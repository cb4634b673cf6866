"""suita-lab benchmark: one workload, one seed, one process.

    python3 benchmark/run.py --workload {verify-default,thin-ring,pointwise} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy, and the run stops with exit
code 2 if ``src/suita_lab`` is missing.  BLAS and OpenMP run one thread
(set before numpy loads), so a run uses one CPU of the machine.

In untraced runs, set-up time is sampled in fresh child processes, one at
a time (process start to inputs ready).  Then whole rounds of the workload run until the
next one would end past S seconds; each round is checked against
references.py outside its timed window.  Every time is reported in
reference seconds: hostspeed.py interleaves a fixed speed probe with the
work and scales the wall time by the probe's speed, so that the load of
the shared host drops out.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` alternates untraced
and traced rounds and prints its per-layer metrics, and writes the spans
to benchmark/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import suita_lab
    import suita_lab.cli  # the package __init__ does not import the CLI

    if os.path.dirname(os.path.dirname(os.path.abspath(suita_lab.__file__))) != src:
        sys.exit(f"benchmark: imported suita_lab from {suita_lab.__file__}, not from {src}")
    return suita_lab


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready, in SETUP_SAMPLES child processes, in
    reference seconds: each child reports its own probe totals."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        ) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.stdout.read()
            status = child.wait(timeout=60)
        words = line.split()
        if words[:1] != ["ready"] or status != 0:
            sys.exit(f"benchmark: set-up child exited with {status}")
        count, probe_s, spent_s = int(words[1]), float(words[2]), float(words[3])
        samples.append(hostspeed.reference_seconds(wall, (0, 0.0, 0.0), (count, probe_s, spent_s))[0])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sampler = hostspeed.Sampler().start() if args.setup_only else None

    for var in THREAD_VARS:  # before numpy loads: one BLAS thread, the main one
        os.environ[var] = "1"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    import tracing as tr
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "suita_lab", "__init__.py")):
        print(f"benchmark: no src/suita_lab under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        WORKLOADS[args.workload](load_program(), args.seed, OUT)
        sampler.stop()
        print("ready", *sampler.totals(), flush=True)
        return 0

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    lab = load_program()
    work = WORKLOADS[args.workload](lab, args.seed, OUT)
    tracer = tr.Tracer()
    sampler = hostspeed.Sampler().start()
    walls = {False: [], True: []}  # raw wall seconds of the rounds
    times = {False: [], True: []}  # the same rounds in reference seconds
    layers = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        restore = tracer.install(lab) if traced else None
        first = len(tracer.spans)
        before = sampler.totals()
        try:
            rnd = work.round()
        finally:
            if restore:
                restore()
        ref_s, scale = hostspeed.reference_seconds(rnd.wall, before, sampler.totals())
        walls[traced].append(rnd.wall)
        times[traced].append(ref_s)
        if traced:
            layers.append(tr.layer_metrics(tracer.spans, first, rnd.wall, scale))
        attempted += rnd.attempted
        failed += rnd.failed
        problems += work.check(rnd.outputs)
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(walls[False]) + len(walls[True]))
        if elapsed + per_round > args.seconds and (not args.trace or walls[True]):
            break
    sampler.stop()

    threads = thread_count()
    if threads > nproc():
        problems.append(f"{threads} threads on {nproc()} CPUs")
    if args.trace:
        values = tr.median_metrics(layers)
        values["trace.overhead_s"] = statistics.median(times[True]) - statistics.median(times[False])
        values["trace.round_wall_s"] = statistics.median(walls[False])
        if values["trace.coverage"] < 0.9:
            problems.append(f"the traced layers cover {values['trace.coverage']:.3f} of the round, under 0.9")
        names = spec["per_layer"]
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, fh)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "round_s": statistics.median(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(walls[False])} untraced and {len(walls[True])} traced rounds, "
        f"{attempted} operations, {failed} failed, {len(problems)} check failures; "
        f"untraced rounds: wall {[round(x, 3) for x in walls[False]]}, reference {[round(x, 3) for x in times[False]]}; "
        f"set-up, reference {[round(x, 3) for x in setup]}",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
