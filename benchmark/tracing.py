"""Spans around calls into the program's modules, installed from here.

The program is not edited: ``install`` replaces the module attributes
listed in WRAPPED with timing wrappers and returns a function that puts
the originals back.  The modules call each other through module
attributes (``gr.critical_points``, ``sublevel_area`` as a module
global), so nested calls are seen too.  Cheap primitives (Moebius maps,
membership tests, marching-squares cell tables, basis norms, the RNG) are
not wrapped: their time is charged to the operation that calls them.

Spans are kept in memory as [name, parent, start, end, work] and written
out at the end of the run.  ``work`` is the count a span contributes to a
per-layer counter (field points, seeds, basis terms, walks, bytes).
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

LAYERS = ("geometry", "green", "sublevel", "bergman", "oracles", "verify", "cli")

FIELD = ("green_values_raw", "green_fprime_raw", "green_fsecond_raw", "green_truncation_bound")


def _z_count(args, kwargs, result):
    return int(np.size(kwargs["z"] if "z" in kwargs else args[2]))


def _length(args, kwargs, result):
    return len(result)


def _basis_terms(args, kwargs, result):
    return int(result.truncation_order)


def _arg(position, name):
    def get(args, kwargs, result):
        return int(kwargs[name] if name in kwargs else args[position])

    return get


def _report_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# module -> {public function: work counter or None}
WRAPPED = {
    "geometry": {"parse_domain": None, "boundary_distance": None, "boundary_sample": None},
    "green": {
        **{name: _z_count for name in FIELD},
        "green_eval": None,
        "robin_capacity": None,
        "disc_max_green": None,
        "boundary_flux": None,
        "gradient_grid_minima": _length,
        "critical_points": _length,
    },
    "sublevel": {
        "sublevel_area": None,
        "coarea_derivative": None,
        "extract_contours": None,
        "profile_scan": None,
        "convexity_report": None,
        "monotonicity_check": None,
    },
    "bergman": {"kernel_j": _basis_terms, "build_frame": None, "laplacian_identity_check": None},
    "oracles": {"wos_green": _arg(3, "walks"), "mc_area": _arg(3, "samples"), "robin_extrapolate": None},
    "verify": {
        "suita_check": None,
        "thm1_check": None,
        "thm2_check": None,
        "poisson_step_check": None,
        "blb_check": None,
        "thm4_scan": None,
        "characterization_probe": None,
        "run_suite": None,
    },
    "cli": {"main": None, "emit_report": _report_bytes},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[4] = work(args, kwargs, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package):
        """Wrap every listed function that the package has; return the undo."""
        saved = []
        for layer, table in WRAPPED.items():
            module = getattr(package, layer)
            for fname, work in table.items():
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                saved.append((module, fname, fn))
                setattr(module, fname, self.wrap(f"{layer}.{fname}", fn, work))

        def restore():
            for module, fname, fn in saved:
                setattr(module, fname, fn)

        return restore


def layer_metrics(all_spans: list[list], first: int, wall: float, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced round: the spans from index first on,
    which took wall seconds.  Self time is a span's duration minus that of
    the spans nested directly inside it.  Times (the ``_s`` metrics) are
    multiplied by scale, the round's host scale from hostspeed.py."""
    spans = [
        [name, parent - first if parent >= 0 else -1, start, end, count]
        for name, parent, start, end, count in all_spans[first:]
    ]
    n = len(spans)
    child = [0.0] * n
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    top_field_calls = top_field_points = seeds = 0
    for i, (name, parent, start, end, count) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + count
        outer = spans[parent][0] if parent >= 0 else ""
        # Moebius images recurse into the base domain: count the outer call only.
        if name.split(".")[1] in FIELD and outer.split(".")[-1] not in FIELD:
            top_field_calls += 1
            top_field_points += count
        if name == "green.gradient_grid_minima" and outer != name:
            seeds += count

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    m = {
        "green.field_calls": top_field_calls,
        "green.field_points": top_field_points,
        "green.field_s": s(*(f"green.{x}" for x in FIELD)),
        "green.critical_points_calls": calls.get("green.critical_points", 0),
        "green.critical_seeds": seeds,
        "green.critical_found": work.get("green.critical_points", 0),
        "green.critical_points_s": s("green.critical_points", "green.gradient_grid_minima"),
        "green.eval_s": s("green.green_eval"),
        "green.robin_s": s("green.robin_capacity"),
        "green.disc_max_s": s("green.disc_max_green"),
        "green.flux_s": s("green.boundary_flux"),
        "geometry.boundary_distance_calls": calls.get("geometry.boundary_distance", 0),
        "geometry.boundary_distance_s": s("geometry.boundary_distance"),
        "sublevel.area_calls": calls.get("sublevel.sublevel_area", 0),
        "sublevel.coarea_calls": calls.get("sublevel.coarea_derivative", 0),
        "sublevel.area_s": s("sublevel.sublevel_area"),
        "sublevel.coarea_s": s("sublevel.coarea_derivative"),
        "sublevel.profile_s": s("sublevel.profile_scan"),
        "sublevel.convexity_s": s("sublevel.convexity_report"),
        "bergman.kernel_calls": calls.get("bergman.kernel_j", 0),
        "bergman.basis_terms": work.get("bergman.kernel_j", 0),
        "bergman.kernel_s": s("bergman.kernel_j"),
        "bergman.identity_s": s("bergman.laplacian_identity_check"),
        "oracles.wos_walks": work.get("oracles.wos_green", 0),
        "oracles.mc_samples": work.get("oracles.mc_area", 0),
        "oracles.wos_s": s("oracles.wos_green"),
        "oracles.mc_area_s": s("oracles.mc_area"),
        "oracles.robin_extrapolate_s": s("oracles.robin_extrapolate"),
        **{
            f"verify.{x}_s": s(f"verify.{x}")
            for x in (
                "suita_check",
                "thm1_check",
                "thm2_check",
                "poisson_step_check",
                "blb_check",
                "thm4_scan",
                "characterization_probe",
                "run_suite",
            )
        },
        # inclusive: report_csv_text and the file write
        "cli.report_s": sum(end - start for name, _, start, end, _ in spans if name == "cli.emit_report"),
        "cli.report_bytes": work.get("cli.emit_report", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for k in m:
        if k.endswith("_s"):
            m[k] *= scale
    m["trace.coverage"] = sum(self_s.values()) / wall
    m["trace.spans"] = n
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
