#!/usr/bin/env python3
"""Reproduce the log-area non-convexity of an annulus Green function.

Finds the critical point of G(., w) on Annulus(q), scans lambda({G < t})
through a window straddling the critical level t0, prints the scan's
verdict beside the first-derivative witness of the verify suite's thm4
line (gamma'/lambda falls just above t0), prints the profile table, and
writes an SVG of the level curves around the saddle (the figure-eight
pinch is visible at t0).  The saddle, the witness, the profile and the
contours read one level field.  Exits 1 unless the witness passes and the
scan detects the non-convexity.

Usage: python3 scripts/annulus_nonconvexity.py [q] [pole_re] [out.svg]
Defaults: q = 0.5, pole = 0.7, annulus_saddle.svg.

Note the scale of t0: it shrinks like exp(-pi^2/log(1/q)), about -2.5e-19
for q = 0.8 and pole 0.9.  Such levels are normal doubles, and the
dual-nome series keeps G accurate relative to its size there, so thin
annuli show the effect too: try `annulus_nonconvexity.py 0.8 0.9`.
"""

import sys

import numpy as np

from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab.cli import emit_contours
from suita_lab.geometry import Annulus


def main() -> int:
    q = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    w = complex(float(sys.argv[2]) if len(sys.argv) > 2 else 0.7, 0.0)
    out = sys.argv[3] if len(sys.argv) > 3 else "annulus_saddle.svg"
    domain = Annulus(q)
    pole = vf.Pole(domain, w)  # the saddle, the witness, the profile and the contours read its one level field

    cp = pole.levels.saddle
    print(
        f"critical point {cp.location:.12g}: level {cp.level:.6e}, "
        f"|grad| residual {cp.gradient_residual:.1e}, order {cp.order}"
    )
    report, _ = vf.thm4_scan(domain, w, resolution=1024, steps=64)
    print(
        f"\nverdict: {report.verdict}  (min second difference {report.min_second_diff:.4e} "
        f"vs noise floor {report.noise_floor:.4e} on window [{report.window[0]:.4e}, {report.window[1]:.4e}])"
    )
    witness = vf.thm4_witness(pole)
    print(
        f"witness: {'pass' if witness.passed else 'FAIL'}  (gamma'/lambda drops by {witness.lhs:.4e} from "
        f"t0 + {vf.THM4_EPS:g}|t0| to t0 + {2 * vf.THM4_EPS:g}|t0|, vs bound {witness.rhs:.4e})"
    )

    t0 = report.critical_level
    width = report.window[1] - report.window[0]
    prof = sl._profile(pole.levels, report.window[0], report.window[1], 16, with_gamma=False)
    print("\n      t             lambda        d2 log lambda")
    for t, lam, d2 in zip(prof.t_samples, prof.lam, prof.second_diff):
        print(f"  {t:+.6e}  {lam:.10f}  {d2 if np.isnan(d2) else f'{d2:+.4e}'}")

    levels = [t0 - 0.2 * width, t0, t0 + 0.1 * width]
    emit_contours(pole.levels, levels, out, 1024)
    print(f"\nlevel curves at {[f'{t:.3e}' for t in levels]} written to {out}")
    return 0 if witness.passed and report.verdict == "NonConvexDetected" else 1


if __name__ == "__main__":
    sys.exit(main())
