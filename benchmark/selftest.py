"""Self-test of the benchmark's checks: python3 benchmark/selftest.py

Every check in references.py is fed a value just inside its tolerance,
which it must accept, and one just outside, which it must reject.  It
also checks the references against each other where they overlap (the
Laurent sum against a long direct sum, the closed-form area derivative
against a finite difference) and BENCHMARK.json against the metrics the
harness produces.  Needs numpy only; exits 1 on the first failed case.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import references as ref  # noqa: E402
import tracing  # noqa: E402

CASES = 0


def expect(reason, ok: bool, label: str) -> None:
    """ok: the check should accept (reason None) or reject (a reason)."""
    global CASES
    CASES += 1
    if (reason is None) != ok:
        sys.exit(f"selftest: {label}: expected {'accept' if ok else 'reject'}, got {reason!r}")


def pair(check, inside, outside, label):
    expect(check(inside), True, label + " inside")
    expect(check(outside), False, label + " outside")


def test_rel_close():
    for name in ("TOL_DISC_G", "TOL_DISC_CAP", "TOL_KERNEL", "TOL_LEVEL", "TOL_EXACT_DIST"):
        tol = getattr(ref, name)
        r = 1.2345678
        pair(lambda g: ref.rel_close(g, r, tol, name), r * (1 + 0.9 * tol), r * (1 + 1.1 * tol), name)


def test_green_pair():
    g = -0.75
    tol = ref.TOL_SYMMETRY
    pair(lambda b: ref.check_green_pair(g, b, "symmetry"), g * (1 + 0.9 * tol), g * (1 + 1.1 * tol), "symmetry")
    pair(lambda a: ref.check_green_pair(a, a, "sign"), -1e-300, 0.0, "G < 0")


def test_suita():
    k0 = 0.7
    cap = math.sqrt(math.pi * k0)
    f = 1 + ref.TOL_SUITA
    pair(lambda c: ref.check_suita(c, k0, "suita"), cap * math.sqrt(1 + 0.9 * (f - 1)), cap * math.sqrt(1 + 1.1 * (f - 1)), "suita")


def test_saddles():
    q, w = 0.8, 0.9 * ref.unit(1.1)
    ray = ref.annulus_saddle_ray(w)
    z = math.sqrt(q) * ray
    tol = ref.TOL_SADDLE
    lev = ref.THIN_RING_LEVEL

    def check(points, radius=math.sqrt(q), level=lev):
        return ref.check_saddles(points, ray, q, "saddle", radius=radius, level=level)

    pair(lambda p: check([(p, lev)]), z + 0.9 * tol * 1j * ray, z + 1.1 * tol * 1j * ray, "off the ray")
    pair(lambda p: check([(p, lev)]), z * (1 + 0.9 * tol / abs(z)), z * (1 + 1.1 * tol / abs(z)), "radius")
    pair(lambda p: check([(p, lev)], radius=None), 0.99 * ray, 1.01 * ray, "radius below 1")
    pair(lambda p: check([(p, lev)], radius=None), 1.01 * q * ray, 0.99 * q * ray, "radius above q")
    pair(lambda t: check([(z, t)]), lev * (1 + 0.9 * ref.TOL_LEVEL), lev * (1 + 1.1 * ref.TOL_LEVEL), "level")
    pair(lambda t: check([(z, t)], level=None), -1e-300, 0.0, "negative level")
    pair(lambda pts: check(pts), [(z, lev)], [(z, lev), (-z, lev)], "exactly one")
    pair(lambda pts: ref.check_saddles(pts, None, 0.0, "disc"), [], [(0.1j, -0.5)], "none on a disc")


def test_moebius_distance():
    brute = 0.1234
    tol = ref.TOL_DIST
    pair(lambda d: ref.check_moebius_distance(d, brute, "dist"), brute * (1 - 0.9 * tol), brute * (1 - 1.1 * tol), "below brute force")
    pair(lambda d: ref.check_moebius_distance(d, brute, "dist"), brute, brute * (1 + 1e-15), "at most brute force")


def test_disc_max():
    samples = [-0.5, -0.4, -0.3]
    pair(lambda m: ref.check_disc_max(m, samples, "max"), -0.3, np.nextafter(-0.3, -1.0), "at least the samples")
    pair(lambda m: ref.check_disc_max(m, [-1.0], "max"), -1e-300, 0.0, "below zero")


def disc_profile(a=0.5):
    ts = np.linspace(-3.0, -0.1, 16)
    lam = ref.disc_area(ts, a)
    return ts, lam, 6e-5 * lam, ref.disc_area_deriv(ts, a)


def test_profiles():
    ts, lam, err, gamma = disc_profile()
    pair(lambda x: ref.check_areas(x, math.pi, "areas"), lam, np.concatenate([lam[:1], lam[:-1]]), "increasing")
    pair(lambda b: ref.check_areas(lam, b, "areas"), lam[-1] * (1 + 1e-15), lam[-1], "below the area")
    pair(lambda g: ref.check_coarea(ts, lam, err, g, "coarea"), gamma, np.where(ts == ts[3], 0.0, gamma), "gamma' > 0")
    bound = ref.trapezoid_bound(ts, err, gamma)
    miss = np.diff(lam) - 0.5 * (gamma[:-1] + gamma[1:]) * (ts[1] - ts[0])

    def shifted(f, i=7):  # increment i made to miss by f times its bound
        out = lam.copy()
        out[i + 1 :] += f * bound[i] - miss[i]
        return out

    pair(lambda x: ref.check_coarea(ts, x, err, gamma, "coarea"), shifted(0.9), shifted(1.1), "trapezoid")
    kmax = float(np.max(np.exp(2.0 * ts) / (lam + err)))
    pair(lambda k: ref.check_lower_bound(ts, lam, err, k, "blb"), kmax, kmax * (1 - 1e-12), "kernel lower bound")

    def dropped(f, i=5):  # e^{-2t} lambda falls by f times the slack after level i
        e2t = np.exp(-2.0 * ts) * lam
        slack = np.exp(-2.0 * ts[i + 1]) * err[i + 1] + np.exp(-2.0 * ts[i]) * err[i]
        out = lam.copy()
        out[i + 1] = (e2t[i] - f * slack) * np.exp(2.0 * ts[i + 1])
        return out

    pair(lambda x: ref.check_lower_bound(ts, x, err, 10.0, "blb"), dropped(0.9), dropped(1.1), "e^(-2t) lambda monotone")
    a = 0.5
    tight = ref.TOL_AREA_REL * lam
    pair(lambda x: ref.check_disc_profile(ts, x, err, gamma, a, "disc"), lam + 0.9 * tight, lam + 1.1 * tight, "area relative")
    loose = 1e-9 * lam  # an err_est below TOL_AREA_REL
    pair(lambda x: ref.check_disc_profile(ts, x, loose, gamma, a, "disc"), lam + 0.9 * loose, lam + 1.1 * loose, "area err_est")
    g_tol = ref.TOL_GAMMA_REL * gamma
    pair(lambda g: ref.check_disc_profile(ts, lam, err, g, a, "disc"), gamma + 0.9 * g_tol, gamma + 1.1 * g_tol, "gamma'")


def test_report():
    line = lambda name, lhs=1.0, rhs=2.0, passed=True: SimpleNamespace(name=name, lhs=lhs, rhs=rhs, passed=passed)
    checks = [line("suita[j=0]"), line("thm2"), line("thm2", 0.0, 0.0)]
    expected = {"suita": 1, "thm2": 2}
    expect(ref.check_report("t", "t", checks, expected, "3 checks, 0 failures, 1.0s\n") or None, True, "report accepted")
    bad = {
        "round trip": ("t", "u", checks, expected, "3 checks, 0 failures"),
        "false line": ("t", "t", [line("suita[j=0]", passed=False)] + checks[1:], expected, "3 checks, 0 failures"),
        "lines per family": ("t", "t", checks[:2], expected, "3 checks, 0 failures"),
        "summary": ("t", "t", checks, expected, "3 checks, 1 failures"),
        "thm2 constant": ("t", "t", [checks[0], line("thm2", 2.0 * (1 + 1e-12), 2.0), checks[2]], expected, "3 checks, 0 failures"),
    }
    for label, args in bad.items():
        expect(ref.check_report(*args) or None, False, f"report {label}")
    at_constant = [checks[0], line("thm2", 2.0, 2.0), checks[2]]
    expect(ref.check_report("t", "t", at_constant, expected, "3 checks, 0 failures") or None, True, "thm2 constant reached")


def test_references():
    """Where two references overlap, they agree."""
    for q, r in ((0.3, 0.5), (0.5, 0.95), (0.8, 0.975)):
        direct = math.fsum(r ** (2 * n) / (math.pi * (1 - q ** (2 * n + 2)) / (n + 1)) for n in range(-200, 6000) if n != -1)
        direct += 1.0 / (r * r * 2.0 * math.pi * math.log(1.0 / q))
        laurent = ref.annulus_kernel0(q, r * ref.unit(0.3))
        expect(ref.rel_close(laurent, direct, 1e-14, f"Laurent sum q={q}"), True, f"Laurent sum q={q}")
    ts = np.linspace(-3.0, -0.1, 16)
    h = 1e-6
    fd = (ref.disc_area(ts + h, 0.5) - ref.disc_area(ts - h, 0.5)) / (2 * h)
    expect(None if np.allclose(fd, ref.disc_area_deriv(ts, 0.5), rtol=1e-8) else "mismatch", True, "area derivative")
    coeffs = (1, 0.15, 0.15, 1)  # unit-disc automorphism: the outer circle maps to itself
    w = 0.3 + 0.2j
    brute = ref.brute_boundary_distance(coeffs, [(0j, 1.0)], w)
    expect(ref.rel_close(brute, 1 - abs(w), 1e-12, "brute force"), True, "brute-force distance")
    z = 0.4 - 0.1j
    expect(ref.rel_close(abs(ref.moebius(coeffs, ref.moebius_inv(coeffs, z))), abs(z), 1e-15, "inverse"), True, "Moebius inverse")


def test_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    spans = [["cli.main", -1, 0.0, 1.0, 0]]
    produced = set(tracing.layer_metrics(spans, 0, 1.0)) | {"trace.overhead_s", "trace.round_wall_s"}
    listed = {m["name"] for m in spec["per_layer"]}
    expect(None if produced == listed else f"{sorted(produced ^ listed)}", True, "per-layer names")


def main() -> int:
    tests = (
        test_rel_close,
        test_green_pair,
        test_suita,
        test_saddles,
        test_moebius_distance,
        test_disc_max,
        test_profiles,
        test_report,
        test_references,
        test_benchmark_json,
    )
    for test in tests:
        test()
    print(f"selftest: {CASES} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
