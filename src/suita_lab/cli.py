"""Command-line front end: evaluation subcommands, the verification suite,
report persistence (CSV/JSON) and SVG contour plots.

Exit codes: 0 success (all checks pass), 1 at least one check failed,
2 usage or configuration error.  Numbers are printed with 12 significant
digits; re-running a command with the same inputs and seeds reproduces the
output byte for byte (the JSON report drops the wall-time field for that
reason; it stays in the in-memory report and the stdout summary).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bergman as bg
from . import geometry as geo
from . import green as gr
from . import oracles as oc
from . import sublevel as sl
from . import verify as vf
from . import weights as wt
from .errors import ConfigError, SuitaLabError
from .verify import Check, SuiteConfig, VerificationReport


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 canonicalizes negative zero


def _parse_point(text: str) -> complex:
    try:
        x, y = map(float, text.split(","))
    except ValueError:
        raise ConfigError(f"point needs x,y: {text!r}") from None
    return complex(x, y)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# Config files: plain key=value with # comments, unknown keys rejected
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {"domains", "poles", "seeds", "steps"}


def parse_config(text: str) -> dict:
    out: dict = {"tolerances": {}}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} given twice")
        seen.add(key)
        if key.startswith("tolerance."):
            family = key[len("tolerance.") :]
            if family != "all" and family not in vf.DEFAULT_TOLERANCES:
                raise ConfigError(f"line {lineno}: no tolerance family {family!r}; known: all, {', '.join(vf.DEFAULT_TOLERANCES)}")
            tol = _number(key, value, float)
            if not (math.isfinite(tol) and tol >= 0):
                raise ConfigError(f"line {lineno}: {key} needs a finite number >= 0, got {value!r}")
            out["tolerances"][family] = tol
        elif key in _KNOWN_KEYS:
            out[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return out


def _number(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key} needs {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def suite_config_from_file(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config(fh.read())
    config = SuiteConfig()
    if "poles" in raw and "domains" not in raw:
        raise ConfigError("poles needs domains: the poles are paired with the configured domains")
    if "domains" in raw:
        literals = [s.strip() for s in raw["domains"].split("|") if s.strip()]
        poles = [_parse_point(s.strip()) for s in raw.get("poles", "").split("|") if s.strip()]
        domains = [(lit, geo.parse_domain(lit)) for lit in literals]
        config.entries = [(lit, w) for lit, domain in domains for w in poles if geo.contains(domain, w)]
        if not config.entries:
            raise ConfigError("no (domain, pole) pair from the config has the pole inside the domain")
    if "seeds" in raw:
        if "," in raw["seeds"]:
            raise ConfigError(f"seeds takes one seed, got {raw['seeds']!r}")
        config.seed = _number("seeds", raw["seeds"], int)
    if "steps" in raw:
        config.profile_steps = _number("steps", raw["steps"], int)
    config.tolerances = raw["tolerances"]
    return config


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

_CSV_HEADER = ["check_name", "domain", "pole", "params", "lhs", "rhs", "margin", "pass"]


def _row(c: Check) -> list[str]:
    """The report fields of one check, in _CSV_HEADER order, as printed."""
    numbers = [_fmt(c.lhs), _fmt(c.rhs), _fmt(c.margin)]
    return [c.name, c.domain, c.pole, c.params, *numbers, "true" if c.passed else "false"]


def _typed(row: list[str]) -> list:
    """A printed row read back: the numbers as floats, pass as a bool."""
    if row[7] not in ("true", "false"):
        raise ValueError(f"pass must be true or false, got {row[7]!r}")
    return [*row[:4], *map(float, row[4:7]), row[7] == "true"]


def report_csv_text(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(map(_row, report.checks))
    return buf.getvalue()


def report_json_text(report: VerificationReport) -> str:
    meta = {k: v for k, v in report.metadata.items() if k != "wall_time_s"}
    checks = [dict(zip(_CSV_HEADER, _typed(_row(c)))) for c in report.checks]
    return json.dumps({"metadata": meta, "checks": checks}, indent=1) + "\n"


def emit_report(report: VerificationReport, path: str, fmt: str = "csv") -> None:
    text = report_csv_text(report) if fmt == "csv" else report_json_text(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def parse_report_csv(path: str) -> list[Check]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CSV_HEADER:
            raise ConfigError(f"{path} is not a verify report")
        for row in reader:
            try:
                if len(row) != len(_CSV_HEADER):
                    raise ValueError(f"expected 8 fields, got {len(row)}")
                out.append(Check(*_typed(row)))
            except ValueError as exc:
                raise ConfigError(f"{path} line {reader.line_num}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# SVG contour plots
# ---------------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b", "#e377c2"]


def _svg_path(points: np.ndarray, scale, color: str) -> str:
    coords = " ".join(f"{scale(p)[0]:.6f},{scale(p)[1]:.6f}" for p in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'


def emit_contours(field: sl.LevelField, t_list, path: str, resolution: int) -> None:
    """SVG with the domain outline and one level curve set per t, each curve
    sampled as LevelField.contours(t, resolution) gives it."""
    domain = field.domain
    x0, x1, y0, y1 = geo.bounding_box(domain)
    pad = 0.05 * max(x1 - x0, y1 - y0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    size = 600.0
    span = max(x1 - x0, y1 - y0)

    def scale(z: complex):
        return ((z.real - x0) / span * size, (y1 - z.imag) / span * size)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">'
    ]
    for center, radius in domain.circles:  # the outline
        cx, cy = scale(center)
        r = radius / span * size
        parts.append(f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" fill="none" stroke="#000000" stroke-width="1.5"/>')
    for i, t in enumerate(t_list):
        color = _PALETTE[i % len(_PALETTE)]
        for line in field.contours(float(t), resolution):
            parts.append(_svg_path(line, scale, color))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_green(args) -> int:
    domain = geo.parse_domain(args.domain)
    value = gr.green_eval(domain, _parse_point(args.pole), _parse_point(args.at))
    print(",".join(_fmt(v) for v in (value.value, value.grad_x, value.grad_y, value.truncation_bound)))
    return 0


def _cmd_capacity(args) -> int:
    domain = geo.parse_domain(args.domain)
    cap = gr.robin_capacity(domain, _parse_point(args.pole))
    print(",".join(_fmt(v) for v in (cap.capacity, cap.robin_constant, cap.truncation_bound)))
    return 0


def _cmd_kernel(args) -> int:
    domain = geo.parse_domain(args.domain)
    k = bg.kernel_j(domain, _parse_point(args.pole), args.order)
    print(f"{k.order},{_fmt(k.value)},{k.truncation_order},{_fmt(k.tail_bound)}")
    return 0


def _cmd_critical(args) -> int:
    domain = geo.parse_domain(args.domain)
    points = gr.critical_points(domain, _parse_point(args.pole))
    for cp in points:
        print(
            ",".join(
                _fmt(v)
                for v in (cp.location.real, cp.location.imag, cp.level, cp.gradient_residual)
            )
            + f",{cp.order}"
        )
    return 0


def _cmd_sublevel(args) -> int:
    domain = geo.parse_domain(args.domain)
    w = _parse_point(args.pole)
    field = sl.LevelField(domain, w)  # the profile and the contours read one field
    p = sl._profile(field, args.tmin, args.tmax, args.steps, with_gamma=True)
    print("t,lambda,log_lambda,gamma_prime,second_diff,e2t_lambda,err_est")
    for row in zip(p.t_samples, p.lam, p.log_lambda, p.gamma_prime, p.second_diff, p.e2t_lambda, p.err_est):
        print(",".join(map(_fmt, row)))
    if args.svg:
        emit_contours(field, p.t_samples, args.svg, args.grid)
    return 0


def _cmd_weights(args) -> int:
    if args.probe:
        values = [float(s) for s in args.probe.split(",")]
        probes = wt.war_probe(values)
        print("s,war")
        for s, p in zip(values, probes):
            print(f"{_fmt(s)},{_fmt(p)}")
        return 0
    if args.s is None:
        raise ConfigError("weights needs --s or --probe")
    v = wt.eval_weights(args.s)
    print("s,eta0,eta0p,eta0pp,gamma0,gamma0p,identity_residual")
    print(
        ",".join(
            _fmt(x)
            for x in (v.s, v.eta0, v.eta0p, v.eta0pp, v.gamma0, v.gamma0p, wt.identity_residual(args.s))
        )
    )
    return 0


def _cmd_oracle(args) -> int:
    domain = geo.parse_domain(args.domain)
    w = _parse_point(args.pole)
    if args.kind == "wos":
        if args.at is None:
            raise ConfigError("oracle wos needs --at")
        est = oc.wos_green(domain, w, _parse_point(args.at), args.samples, args.seed)
    elif args.kind == "area":
        if args.level is None:
            raise ConfigError("oracle area needs --level")
        (est,) = oc.mc_area(domain, w, [args.level], args.samples, args.seed)
    elif args.kind == "robin":
        delta = geo.boundary_distance(domain, w)
        radii = [0.25 * delta / 2**k for k in range(5)]
        value, residual = oc.robin_extrapolate(domain, w, radii)
        print(f"{_fmt(value)},{_fmt(residual)},{64 * len(radii)},{args.seed}")
        return 0
    else:  # gridscan
        for p in oc.grid_min_gradient(domain, w, args.grid):
            print(f"{_fmt(p.real)},{_fmt(p.imag)}")
        return 0
    print(f"{_fmt(est.mean)},{_fmt(est.std_error)},{est.samples},{est.seed}")
    return 0


def _cmd_verify(args) -> int:
    config = suite_config_from_file(args.config) if args.config else SuiteConfig()
    report = vf.run_suite(config, suite=args.suite)
    for c in report.failures:
        name, domain, pole, params, lhs, rhs, _, _ = _row(c)
        print(f"FAIL {name} domain={domain} pole={pole} {params} lhs={lhs} rhs={rhs}")
    print(
        f"{report.metadata['checks_total']} checks, {report.metadata['checks_failed']} failures, "
        f"{report.metadata['wall_time_s']}s"
    )
    if args.out:
        emit_report(report, args.out, args.format)
    return 0 if report.all_passed else 1


def parse_args(argv=None) -> argparse.Namespace:
    if argv is None:
        argv = sys.argv[1:]
    # Merge "--opt value" into "--opt=value" when the value opens with "-",
    # so negative numbers and comma lists survive argparse.
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if token.startswith("--") and "=" not in token and nxt is not None and nxt.startswith("-") and any(ch.isdigit() for ch in nxt):
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    argv = merged
    parser = argparse.ArgumentParser(prog="suita-lab", description="Planar potential-theory toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # --domain and --pole, shared by every subcommand that reads a (domain, pole) pair
    located = argparse.ArgumentParser(add_help=False)
    located.add_argument("--domain", required=True)
    located.add_argument("--pole", required=True)

    p = sub.add_parser("green", parents=[located], help="evaluate the Green function")
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("capacity", parents=[located], help="logarithmic capacity / Robin constant")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser(
        "kernel",
        parents=[located],
        help="order-j extremal kernel: prints j, K_j, the images summed and a bound on the error that includes rounding",
    )
    p.add_argument("--order", type=_nonneg_int, default=0)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("critical", parents=[located], help="critical points of the Green function")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("sublevel", parents=[located], help="sublevel-area profile")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_sublevel)

    p = sub.add_parser("weights", help="lower-bound weight functions")
    p.add_argument("--s", type=float)
    p.add_argument("--probe")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("oracle", parents=[located], help="Monte Carlo / brute-force oracles")
    p.add_argument("kind", choices=["wos", "area", "robin", "gridscan"])
    p.add_argument("--at")
    p.add_argument("--level", type=float)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", "suita", "thm1", "thm2", "blb", "thm4", "poisson", "characterization"],
    )
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=_cmd_verify)

    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SuitaLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
