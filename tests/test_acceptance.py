"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line (run with -s or look at the
captured output).  Tolerances are pinned here and nowhere else.

Criterion 6 is split: 6a on the annulus q=0.5 and 6b on the thin ring
q=0.8.  The Green function of Annulus(0.8) decays like
exp(-pi^2/log(1/q)) across the ring, putting the critical level at
-2.4639e-19.  That is a normal double; what it needs is a field with
relative accuracy where |G| is tiny, which the dual-nome series gives.  A
series of O(1) logarithms, such as the canonical product (about 320 of
them at q=0.8), leaves an absolute error near 1e-16 there, a thousand
times the level.  The name of 6b predates the dual-nome field.
"""

import dataclasses
import math

import numpy as np

from suita_lab import bergman as bg
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab.errors import SkippedDegenerate
from suita_lab.geometry import Annulus, Disc

GRID = 1024

ANNULUS_SAMPLES = [
    (Annulus(0.3), 0.45 + 0j),
    (Annulus(0.3), 0.65 + 0j),
    (Annulus(0.3), 0.55 + 0.55j),
    (Annulus(0.5), 0.6 + 0j),
    (Annulus(0.5), 0.7 + 0j),
    (Annulus(0.5), 0.5 + 0.5j),
    (Annulus(0.8), 0.85 + 0j),
    (Annulus(0.8), 0.9 + 0j),
    (Annulus(0.8), 0.63 + 0.63j),
]


def report(number: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_suita_equality_at_disc_center(unit_disc):
    worst = 0.0
    for j in range(7):
        value = math.pi * bg.kernel_j(unit_disc, 0j, j).value
        expect = math.factorial(j) * math.factorial(j + 1)
        worst = max(worst, abs(value - expect) / expect)
    report("1", "disc-center equality pi*K_j = j!(j+1)!, j=0..6", worst <= 1e-8, f"worst rel err {worst:.2e}")


def test_criterion_02_suita_strict_on_annuli():
    # The defect (pi K - c^2)/c^2 in closed form, positive and at least 10
    # times its bound on all nine samples.  At q = 0.8 it is about 1e-37:
    # there pi K and c^2 agree to every digit a double holds, and their
    # difference is rounding.  At q = 0.3 and 0.5 the difference is at
    # least 5e-11 and is checked directly as well.
    worst, margins = math.inf, []
    for domain, w in ANNULUS_SAMPLES:
        defect, bound = bg.suita_defect(domain, w)
        worst = min(worst, defect / bound if defect > 0 else -math.inf)
        if domain.q < 0.8:
            kernel = bg.kernel_j(domain, w, 0).value
            cap = gr.robin_capacity(domain, w).capacity
            margins.append(math.pi * kernel - cap * cap)
    ok = worst >= 10 and len(margins) == 6 and all(m > 0 for m in margins)
    report("2", "pi*K > c^2 on 9 annulus samples", ok, f"min defect/bound {worst:.3e}, min margin {min(margins):.3e}")


def test_criterion_03_thm1_bound(unit_disc, annulus_half, blaschke_disc, moebius_annulus):
    all_pass = True
    for domain, w in [
        (unit_disc, 0j),
        (unit_disc, 0.5 + 0j),
        (unit_disc, 0.3 + 0.4j),
        (blaschke_disc, 0.2 + 0.1j),
        (moebius_annulus, 0.75 + 0j),
    ] + ANNULUS_SAMPLES:
        checks = vf.thm1_check(domain, w)
        all_pass &= all(c.passed for c in checks)
    # centered disc: sharpest sampled bound within a factor 3 of K
    checks = vf.thm1_check(unit_disc, 0j)
    kernel = bg.kernel_j(unit_disc, 0j, 0).value
    sharpest = min(c.rhs for c in checks)
    ratio = sharpest / kernel
    report(
        "3",
        "K <= 1/(-2 pi r^2 max G) incl. golden radius",
        all_pass and ratio < 3.0,
        f"centered-disc sharpest/K = {ratio:.4f} (reported as data)",
    )


def test_criterion_04_thm2_uniform_bound(unit_disc, blaschke_disc, moebius_annulus):
    degenerate = 0
    all_pass = True
    for domain, w in [
        (unit_disc, 0j),
        (unit_disc, 0.5 + 0j),
        (unit_disc, 0.3 + 0.4j),
        (blaschke_disc, 0.2 + 0.1j),
        (moebius_annulus, 0.75 + 0j),
    ] + ANNULUS_SAMPLES:
        try:
            all_pass &= vf.thm2_check(domain, w).passed
        except SkippedDegenerate:
            degenerate += 1
    report(
        "4",
        "K <= C/(delta^2 log(1/(delta c))), C=(11+5*sqrt5)/(4 pi)",
        all_pass and degenerate == 1,
        f"skipped degenerate: {degenerate} (centered disc)",
    )


def test_criterion_05_lower_bound_profile(unit_disc):
    prof = sl.profile_scan(unit_disc, 0j, -3.0, -0.1, 30, GRID, with_gamma=False)
    disc_dev = float(np.max(np.abs(prof.e2t_lambda / math.pi - 1.0)))
    kernel = bg.kernel_j(unit_disc, 0j, 0).value
    eq_dev = float(np.max(np.abs(1.0 / prof.e2t_lambda / kernel - 1.0)))
    ok = disc_dev <= 1e-6 and eq_dev <= 1e-6
    detail = f"disc e2t dev {disc_dev:.2e}, 1/(e2t*K) dev {eq_dev:.2e}"
    for q, w, t_lo, t_hi in ((0.5, 0.7 + 0j, -2.0, -0.2), (0.8, 0.9 + 0j, -1.0, -0.15)):
        domain = Annulus(q)
        p = sl.profile_scan(domain, w, t_lo, t_hi, 16, GRID, with_gamma=False)
        k = bg.kernel_j(domain, w, 0).value
        bound_ok = bool(np.all(1.0 / p.e2t_lambda <= k * (1 + 1e-4)))
        drop, _ = sl.monotonicity_check(p)
        mono_ok = drop <= 1e-4
        ok &= bound_ok and mono_ok
        detail += f"; q={q}: max drop {drop:.1e}"
    report("5", "K >= 1/(e^{-2t} lambda) with monotone bound", ok, detail)


def _thm4_verdict(q: float, w: complex) -> tuple[str, str]:
    domain = Annulus(q)
    cps = gr.critical_points(domain, w)
    resid = max(cp.gradient_residual for cp in cps)
    rep, check = vf.thm4_scan(domain, w, resolution=GRID, steps=64)
    detail = (
        f"t0={rep.critical_level:.3e}, |grad| resid {resid:.1e}, "
        f"min d2 {rep.min_second_diff:.3e} vs floor {rep.noise_floor:.3e}"
    )
    return rep.verdict, detail


def test_criterion_06a_nonconvexity_q05():
    verdict, detail = _thm4_verdict(0.5, 0.7 + 0j)
    report("6a", "log-area non-convex near t0, annulus q=0.5", verdict == "NonConvexDetected", detail)


def test_criterion_06b_nonconvexity_q08_known_infeasible():
    # The critical level of Annulus(0.8) is -2.4639e-19; the scan window
    # is sized to it, so this needs G accurate relative to its own size
    # there (see the module docstring).
    verdict, detail = _thm4_verdict(0.8, 0.9 + 0j)
    report("6b", "log-area non-convex near t0, annulus q=0.8", verdict == "NonConvexDetected", detail)


def test_criterion_07_coarea(annulus_half):
    w = 0.7 + 0j
    prof = sl.profile_scan(annulus_half, w, -1.2, -0.2, 16, 512)
    ts, gp = prof.t_samples, prof.gamma_prime
    recon = prof.lam[0] + np.concatenate([[0.0], np.cumsum(0.5 * (gp[1:] + gp[:-1]) * np.diff(ts))])
    recon_dev = float(np.max(np.abs(recon / prof.lam - 1.0)))
    t0 = gr.critical_points(annulus_half, w)[0].level
    gammas = [sl.LevelField(annulus_half, w).coarea(t0 - gap) for gap in (1e-1, 1e-2, 1e-3)]
    increasing = gammas[0] < gammas[1] < gammas[2]
    mid = sl.LevelField(annulus_half, w).coarea(-0.5)
    report(
        "7",
        "co-area reconstruction and gamma' growth toward t0",
        recon_dev <= 0.01 and increasing and gammas[2] > 5 * mid,
        f"recon dev {recon_dev:.2%}, gamma'={[f'{g:.3f}' for g in gammas]}, mid {mid:.3f}",
    )


def test_criterion_08_laplacian_identity(unit_disc, annulus_half):
    ok = True
    details = []
    for domain, w, tag in ((unit_disc, 0.3 + 0j, "disc"), (annulus_half, 0.7 + 0j, "annulus")):
        for j in (0, 1):
            _, _, rel1 = bg.laplacian_identity_check(domain, w, j, 1e-3)
            _, _, rel2 = bg.laplacian_identity_check(domain, w, j, 5e-4)
            factor = rel1 / rel2 if rel2 > 0 else float("inf")
            ok &= rel1 <= 1e-3 and rel2 <= 1e-3 and 2.5 <= factor <= 6.0
            details.append(f"{tag} j={j}: rel {rel1:.1e}->{rel2:.1e} (x{factor:.2f})")
    report("8", "d2/dzdzbar log kernel = K_{j+1}/K_j with h^2 convergence", ok, "; ".join(details))


def test_criterion_09_weights():
    from suita_lab import weights as wt

    s = -np.logspace(math.log10(1e-3), math.log10(40.0), 10_000)
    residual = max(wt.identity_residual(float(x)) for x in s)
    probes = wt.war_probe([-1, -5, -10, -20, -40])
    mags = [abs(p) for p in probes]
    decreasing = all(a > b for a, b in zip(mags, mags[1:]))
    ok = residual <= 1e-9 and decreasing and mags[2] < 1e-3
    report("9", "weight identity and boundary-limit probe", ok, f"max residual {residual:.2e}, |war(-10)|={mags[2]:.1e}")


def test_criterion_10_oracle_agreement(annulus_half):
    w = 0.7 + 0j
    ok = True
    details = []
    for i, z in enumerate((0.55 + 0.3j, -0.62 + 0.1j, 0.8 + 0.2j, 0.6 - 0.45j, -0.75 + 0j)):
        est = oc.wos_green(annulus_half, w, z, 1_000_000, 100 + i)
        ref = gr.green_eval(annulus_half, w, z).value
        pulls = abs(est.mean - ref) / est.std_error
        ok &= pulls <= 3.0
        details.append(f"{pulls:.2f}")
    for i, t in enumerate((-0.3, -0.5, -0.8, -1.2, -2.0)):
        est = oc.mc_area(annulus_half, w, t, 1_000_000, 200 + i)
        ref = sl.LevelField(annulus_half, w).area(t).value
        pulls = abs(est.mean - ref) / est.std_error
        ok &= pulls <= 3.0
        details.append(f"{pulls:.2f}")
    worst_robin = 0.0
    for domain, w2 in [(Disc(0j, 1.0), 0.5 + 0j), (Disc(0j, 1.0), 0.3 + 0.4j)] + ANNULUS_SAMPLES:
        radii = [0.25 * geo.boundary_distance(domain, w2) / 2**k for k in range(5)]
        diff = abs(oc.robin_extrapolate(domain, w2, radii)[0] - gr.robin_capacity(domain, w2).capacity)
        worst_robin = max(worst_robin, diff)
    ok &= worst_robin <= 1e-6
    report(
        "10",
        "wos/mc/extrapolation oracles agree with the series",
        ok,
        f"pulls {details}, worst robin diff {worst_robin:.1e}",
    )


def test_criterion_11_flux_identity(unit_disc, annulus_half):
    devs = [
        abs(gr.boundary_flux(unit_disc, 0j, 1024) - 2 * math.pi),
        abs(gr.boundary_flux(unit_disc, 0.5 + 0j, 1024) - 2 * math.pi),
        abs(gr.boundary_flux(annulus_half, 0.7 + 0j, 1024) - 2 * math.pi),
    ]
    report("11", "boundary flux of G_n equals 2 pi", max(devs) <= 1e-4, f"max |flux-2pi| = {max(devs):.2e}")


def test_criterion_12_negative_controls(unit_disc):
    prof = sl.profile_scan(unit_disc, 0j, -2.0, -0.2, 10, 256, with_gamma=False)
    lam = prof.lam.copy()
    lam[4] *= 1.01
    corrupted = dataclasses.replace(
        prof, lam=lam, log_lambda=np.log(lam), e2t_lambda=np.exp(-2 * prof.t_samples) * lam
    )
    _, mono_ok = sl.monotonicity_check(corrupted)
    config = vf.SuiteConfig(
        entries=[("disc:0,0,1", 0.5 + 0j), ("annulus:0.5", 0.7 + 0j)],
        blb_entries=[("disc:0,0,1", 0j, -2.0, -0.2)],
        thm4_entries=[],
        char_entries=[],
        tolerances={"all": 0.0},
        profile_steps=8,
        wos_walks=10_000,
        mc_samples=20_000,
    )
    zero_tol = vf.run_suite(config)
    report(
        "12",
        "corrupted profile and zero-tolerance config both flag failures",
        (not mono_ok) and zero_tol.metadata["checks_failed"] > 0,
        f"zero-tolerance failures: {zero_tol.metadata['checks_failed']}/{zero_tol.metadata['checks_total']}",
    )


def test_default_suite_green():
    # the run_suite contract: default sample plan passes end to end
    rep = vf.run_suite()
    ok = rep.all_passed and len(rep.checks) >= 60
    fails = [c.name for c in rep.failures]
    report(
        "suite",
        "default verification plan all green",
        ok,
        f"{rep.metadata['checks_total']} checks, failures: {fails}, wall {rep.metadata['wall_time_s']}s",
    )
