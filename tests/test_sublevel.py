import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab import verify
from suita_lab.errors import BelowResolution, CriticalLevel, InvalidArgument, UnsupportedDomain

RES = 512  # contour samples; profile_scan accepts it and reads it nowhere


class TestSublevelArea:
    def test_disc_exact(self, unit_disc):
        est = sl.LevelField(unit_disc, 0j).area(-1.0)
        assert est.value == pytest.approx(math.pi * math.exp(-2.0), rel=5e-7)

    def test_disc_near_zero_level(self, unit_disc):
        est = sl.LevelField(unit_disc, 0j).area(-0.001)
        assert est.value == pytest.approx(math.pi * math.exp(-0.002), rel=1e-5)

    def test_error_estimate_covers_resolution_doubling(self, unit_disc, annulus_half):
        # nothing reads a profile's resolution: doubling it moves no bit,
        # so the gap is zero and within every err_est
        for domain, w, ts in (
            (unit_disc, 0j, (-2.0, -0.15)),
            (annulus_half, 0.7 + 0j, (-1.0, -0.25)),
        ):
            coarse = sl.profile_scan(domain, w, *ts, 8, RES, with_gamma=False)
            fine = sl.profile_scan(domain, w, *ts, 8, 2 * RES, with_gamma=False)
            assert _hex(fine.lam) == _hex(coarse.lam) and _hex(fine.err_est) == _hex(coarse.err_est)

    def test_annulus_vs_mc(self, annulus_half):
        est = sl.LevelField(annulus_half, 0.7 + 0j).area(-0.5)
        (mc,) = oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 200_000, 5)
        assert abs(est.value - mc.mean) <= 3 * mc.std_error

    def test_moebius_pullback_area(self, unit_disc, blaschke_disc):
        # Blaschke image of the unit disc is the unit disc: both areas are
        # the pseudo-hyperbolic disc's, pi (rho (1 - a^2) / (1 - rho^2 a^2))^2
        w, t = 0.2 + 0.1j, -0.8
        rho, a = math.exp(t), abs(w)
        exact = math.pi * (rho * (1 - a * a) / (1 - rho * rho * a * a)) ** 2
        for domain in (unit_disc, blaschke_disc):
            assert sl.LevelField(domain, w).area(t).value == pytest.approx(exact, rel=1e-14)

    def test_thin_ring_near_critical_levels(self, annulus_thin):
        # Next to the pole an O(1) field rounds to about 1e-17 on the
        # circles, while |t| is about 1e-19: slice roots there must sit on
        # the circle, or a few percent of the area goes missing.
        field = sl.LevelField(annulus_thin, 0.9 + 0j)
        for t in (0.5 * field.t0, 1.5 * field.t0):
            est = field.area(t)
            ref = oc.grid_area(annulus_thin, 0.9 + 0j, t, 2048)
            assert abs(est.value - ref.value) <= ref.err_est
            assert est.err_est <= 1e-12 * est.value  # the n- and 2n-node rules agree

    def test_deep_level_asymptotics(self, annulus_half):
        # lambda(t) e^{-2t} -> pi / c^2 as t -> -inf
        cap = gr.robin_capacity(annulus_half, 0.7 + 0j).capacity
        est = sl.LevelField(annulus_half, 0.7 + 0j).area(-6.0)
        assert est.value * math.exp(12.0) == pytest.approx(math.pi / cap**2, rel=0.01)

    def test_level_guard(self, unit_disc):
        with pytest.raises(InvalidArgument):
            sl.LevelField(unit_disc, 0j).area(0.1)

    def test_area_below_its_error_estimate_refused(self, annulus_half):
        # At t = -40 the set is smaller than one ulp of the pole's
        # coordinates: the slice roots give 2.2e-34 with err_est 6.5e-33,
        # while pi e^{-80} / c^2 is 5.4e-36.
        with pytest.raises(BelowResolution):
            sl.LevelField(annulus_half, 0.7 + 0j).area(-40.0)
        with pytest.raises(BelowResolution):
            sl.profile_scan(annulus_half, 0.7 + 0j, -40.0, -20.0, 8, RES, with_gamma=False)
        for t in (-20.0, -6.0):
            est = sl.LevelField(annulus_half, 0.7 + 0j).area(t)
            assert 0 < est.err_est < est.value

    def test_polygon_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            sl.LevelField(unit_square, 0.5 + 0.5j).area(-1.0)


class TestCoareaDerivative:
    def test_disc_exact(self, unit_disc):
        gp = sl.LevelField(unit_disc, 0j).coarea(-1.0)
        assert gp == pytest.approx(2 * math.pi * math.exp(-2.0), rel=1e-3)

    def test_matches_area_derivative(self, annulus_half):
        t, h = -0.5, 1e-4
        gp = sl.LevelField(annulus_half, 0.7 + 0j).coarea(t)
        lam_p = sl.LevelField(annulus_half, 0.7 + 0j).area(t + h).value
        lam_m = sl.LevelField(annulus_half, 0.7 + 0j).area(t - h).value
        assert gp == pytest.approx((lam_p - lam_m) / (2 * h), rel=1e-3)

    def test_growth_toward_critical_level(self, annulus_half):
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        gaps = (1e-1, 1e-2, 1e-3, 1e-6, 1e-9)
        values = [sl.LevelField(annulus_half, 0.7 + 0j).coarea(t0 - gap) for gap in gaps]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("r", [0.8999999999999999, 0.9000000000000001])
    def test_resolved_at_pole_radii_one_ulp_from_the_plan(self, annulus_thin, r):
        # at |w| = 0.9 - 1 ulp the tip of the level t = -0.8867 lands where
        # m(phi*) - t = -1.1e-16, so without the rounding margin in _roots the
        # last slice stays open and the gamma' rule never settles (NaN)
        ref = sl.profile_scan(annulus_thin, 0.9 + 0j, -1.0, -0.15, 16, RES).gamma_prime
        got = sl.profile_scan(annulus_thin, r + 0j, -1.0, -0.15, 16, RES).gamma_prime
        assert not np.any(np.isnan(got))
        np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_critical_level_guard(self, annulus_half):
        # at t0 itself the level curve pinches and gamma' diverges
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        with pytest.raises(CriticalLevel):
            sl.LevelField(annulus_half, 0.7 + 0j).coarea(t0)


@pytest.fixture(scope="module")
def disc_profile(unit_disc):
    return sl.profile_scan(unit_disc, 0j, -3.0, -0.1, 16, RES)


class TestProfileAndDiagnostics:

    def test_disc_affine_log_area(self, disc_profile):
        slopes = np.diff(disc_profile.log_lambda) / np.diff(disc_profile.t_samples)
        assert np.allclose(slopes, 2.0, atol=1e-5)
        inner = disc_profile.second_diff[1:-1]
        assert np.max(np.abs(inner)) <= 1e-3  # second differences amplify grid error by 1/dt^2

    def test_disc_e2t_constant(self, disc_profile):
        assert np.allclose(disc_profile.e2t_lambda, math.pi, rtol=1e-6)

    def test_disc_equality_with_kernel(self, disc_profile, unit_disc):
        k = bg.kernel_j(unit_disc, 0j, 0).value
        assert np.allclose(1.0 / disc_profile.e2t_lambda, k, rtol=1e-6)

    def test_lambda_strictly_increasing(self, disc_profile):
        assert np.all(np.diff(disc_profile.lam) > 0)

    def test_gamma_prime_positive_at_regular_levels(self, disc_profile):
        good = ~np.isnan(disc_profile.gamma_prime)
        assert np.all(disc_profile.gamma_prime[good] > 0)

    def test_coarea_reconstruction(self, annulus_half):
        # integral of gamma' recovers lambda within 1% on a regular window
        profile = sl.profile_scan(annulus_half, 0.7 + 0j, -1.2, -0.2, 16, RES)
        ts, gp = profile.t_samples, profile.gamma_prime
        assert not np.any(np.isnan(gp))
        recon = profile.lam[0] + np.concatenate(
            [[0.0], np.cumsum(0.5 * (gp[1:] + gp[:-1]) * np.diff(ts))]
        )
        assert np.allclose(recon, profile.lam, rtol=0.01)

    def test_monotonicity_disc(self, disc_profile):
        max_drop, ok = sl.monotonicity_check(disc_profile)
        assert ok
        assert max_drop <= 1e-5  # bbox-tier switches leave ~1e-6 jitter

    def test_monotonicity_corrupted_fails(self, disc_profile):
        lam = disc_profile.lam.copy()
        lam[7] *= 1.01  # the following sample now looks like a genuine drop
        corrupted = dataclasses.replace(
            disc_profile,
            lam=lam,
            log_lambda=np.log(lam),
            e2t_lambda=np.exp(-2 * disc_profile.t_samples) * lam,
        )
        _, ok = sl.monotonicity_check(corrupted)
        assert not ok


class TestConvexityReport:
    def test_disc_convex(self, unit_disc):
        profile = sl.profile_scan(unit_disc, 0j, -1.2, -0.4, 24, RES, with_gamma=False)
        report = sl.convexity_report(profile, -0.8)
        assert report.verdict == "ConvexWithinTolerance"

    def test_annulus_detects_near_critical_level(self, annulus_half):
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        width = 6 * abs(t0)
        profile = sl.profile_scan(
            annulus_half, 0.7 + 0j, t0 - width / 2, 0.25 * t0, 48, RES, with_gamma=False
        )
        report = sl.convexity_report(profile, t0)
        assert report.verdict == "NonConvexDetected"
        assert report.min_second_diff < -report.noise_floor
        assert report.window[0] <= report.argmin_t <= report.window[1]

    def test_annulus_far_below_critical_is_convex(self, annulus_half):
        profile = sl.profile_scan(annulus_half, 0.7 + 0j, -2.0, -1.0, 24, RES, with_gamma=False)
        report = sl.convexity_report(profile, -1.5)
        assert report.verdict == "ConvexWithinTolerance"

    def test_noise_floor_has_no_absolute_term(self, unit_disc, monkeypatch):
        # Areas whose n- and 2n-node rules agree exactly, with no rounding,
        # carry err_est = 0, so a second difference of -5e-10 is a real
        # concavity: the floor comes from the profile's own error estimates
        # alone, has no absolute part, and needs no second profile.
        profile = sl.profile_scan(unit_disc, 0j, -1.2, -0.4, 24, 64, with_gamma=False)
        d2 = np.full(24, -5e-10)
        d2[0] = d2[-1] = np.nan
        profile = dataclasses.replace(profile, second_diff=d2, err_est=np.zeros(24))

        def no_second_profile(*args, **kwargs):
            raise AssertionError("convexity_report re-profiled")

        monkeypatch.setattr(sl, "profile_scan", no_second_profile)
        report = sl.convexity_report(profile, -0.8)
        assert report.noise_floor == 0.0
        assert report.verdict == "NonConvexDetected"


class TestContours:
    def test_disc_levels_are_circles(self, unit_disc):
        for t in (-2.0, -1.0, -0.5):
            loops = sl.LevelField(unit_disc, 0j).contours(t, RES)
            assert len(loops) == 1
            radii = np.abs(loops[0])
            assert np.allclose(radii, math.exp(t), atol=2e-4)

    def test_annulus_component_count_flips_at_saddle(self, annulus_half):
        # below the critical level one curve bounds the sublevel blob; just
        # above it the level set splits into two collar curves
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        below = sl.LevelField(annulus_half, 0.7 + 0j).contours(t0 - 5e-7, 1024)
        above = sl.LevelField(annulus_half, 0.7 + 0j).contours(t0 + 0.5e-6, 1024)
        assert len(below) == 1
        assert len(above) == 2


class TestLevelField:
    def test_profile_runs_one_saddle_search(self, annulus_half, monkeypatch):
        # the work that does not depend on t (the saddle, and from it the fan
        # of slice minima) is done once for all the levels of a profile
        calls = []
        search = gr.critical_points

        def counted(domain, w):
            calls.append(w)
            return search(domain, w)

        monkeypatch.setattr(gr, "critical_points", counted)
        sl.profile_scan(annulus_half, 0.7 + 0j, -1.2, -0.2, 16, RES, with_gamma=True)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "fixture, w, t_min, t_max",
        [
            ("unit_disc", 0.3 + 0.2j, -3.0, -0.1),
            ("annulus_half", 0.7 + 0j, -1.2, -0.2),
            ("moebius_annulus", 0.75 + 0j, -1.2, -0.2),
        ],
    )
    def test_profile_levels_match_single_calls(self, request, fixture, w, t_min, t_max):
        domain = request.getfixturevalue(fixture)
        res = 256
        profile = sl.profile_scan(domain, w, t_min, t_max, 8, res)
        for t, lam, err, gp in zip(profile.t_samples, profile.lam, profile.err_est, profile.gamma_prime):
            est = sl.LevelField(domain, w).area(float(t))
            assert (est.value, est.err_est) == (lam, err)
            assert sl.LevelField(domain, w).coarea(float(t)) == gp


# ---------------------------------------------------------------------------
# Frozen bits of the slice quadrature (sublevel_frozen_values.json, written
# with float.hex at commit ec5c4e5): the areas, err_est and gamma' of the
# thm4 window and of two profiles, one level curve, and the saddles.  How
# the level field reads G, f' and f'' may change; these bits may not.
# ---------------------------------------------------------------------------

SUBLEVEL_FROZEN = json.loads((Path(__file__).parent / "sublevel_frozen_values.json").read_text())
MOEBIUS_RING = "moebius:1,0.15,0.15,1;base=annulus:0.5"


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def _profile_bits(profile, with_gamma=True):
    bits = {"lam": _hex(profile.lam), "err_est": _hex(profile.err_est)}
    if with_gamma:
        bits["gamma_prime"] = _hex(profile.gamma_prime)
    return bits


def _thm4_bits(monkeypatch):
    """The thm4 window of Annulus(0.8) at the pole 0.9, 64 steps: the profile
    thm4_scan reads from its pole's field, and its report."""
    seen = []
    scan = sl._profile

    def spy(*args, **kwargs):
        seen.append(scan(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sl, "_profile", spy)
    report, _ = verify.thm4_scan(geo.parse_domain("annulus:0.8"), 0.9 + 0j, 1024, 64)
    fields = (report.min_second_diff, report.argmin_t, report.critical_level, report.noise_floor)
    return {**_profile_bits(seen[0], with_gamma=False), "report": _hex(fields)}


def _contour_bits():
    """The level curve of the Moebius annulus at 1.5 t0, below the saddle level."""
    field = sl.LevelField(geo.parse_domain(MOEBIUS_RING), 0.75 + 0j)
    curves = field.contours(1.5 * field.t0, 32)
    return [{"re": _hex(c.real), "im": _hex(c.imag)} for c in curves]


def _saddle_bits():
    """critical_points of the annuli of the default plan and the Moebius annulus."""
    bits = {}
    for literal, w in verify.default_plan():
        if "annulus" in literal:
            cp = gr.critical_points(geo.parse_domain(literal), w)[0]
            bits[f"{literal} @ {w}"] = _hex([cp.location.real, cp.location.imag, cp.level, cp.gradient_residual])
    return bits


def _profile_case(literal, w):
    return lambda _: _profile_bits(sl.profile_scan(geo.parse_domain(literal), w, -2.0, -0.2, 16))


# each case, keyed as in sublevel_frozen_values.json, computed from a monkeypatch
SUBLEVEL_CASES = {
    "thm4 annulus:0.8 @ 0.9, 64 steps": _thm4_bits,
    "profile annulus:0.5 @ 0.7, [-2, -0.2], 16 steps": _profile_case("annulus:0.5", 0.7 + 0j),
    f"profile {MOEBIUS_RING} @ 0.75, [-2, -0.2], 16 steps": _profile_case(MOEBIUS_RING, 0.75 + 0j),
    f"contours {MOEBIUS_RING} @ 0.75, t = 1.5 t0, resolution 32": lambda _: _contour_bits(),
    "critical_points": lambda _: _saddle_bits(),
}


class TestFrozenSublevel:
    def test_cases_are_the_frozen_ones(self):
        assert list(SUBLEVEL_CASES) == list(SUBLEVEL_FROZEN)

    @pytest.mark.parametrize("case", list(SUBLEVEL_CASES))
    def test_case_keeps_its_bits(self, case, monkeypatch):
        assert SUBLEVEL_CASES[case](monkeypatch) == SUBLEVEL_FROZEN[case]
