import dataclasses
import math

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab.errors import CriticalLevel, LevelAbovePeak, UnsupportedDomain

RES = 512  # module tests run at reduced resolution; acceptance uses 1024


class TestSublevelArea:
    def test_disc_exact(self, unit_disc):
        est = sl.sublevel_area(unit_disc, 0j, -1.0, RES)
        assert est.value == pytest.approx(math.pi * math.exp(-2.0), rel=5e-7)

    def test_disc_near_zero_level(self, unit_disc):
        est = sl.sublevel_area(unit_disc, 0j, -0.001, RES)
        assert est.value == pytest.approx(math.pi * math.exp(-0.002), rel=1e-5)

    def test_error_estimate_covers_resolution_doubling(self, unit_disc, annulus_half):
        hits = 0
        total = 0
        for domain, w, ts in (
            (unit_disc, 0j, (-2.0, -1.0, -0.4, -0.15)),
            (annulus_half, 0.7 + 0j, (-1.0, -0.5, -0.25)),
        ):
            for t in ts:
                coarse = sl.sublevel_area(domain, w, t, RES)
                fine = sl.sublevel_area(domain, w, t, 2 * RES)
                total += 1
                hits += abs(fine.value - coarse.value) <= coarse.err_est
        assert hits / total >= 0.95

    def test_annulus_vs_mc(self, annulus_half):
        est = sl.sublevel_area(annulus_half, 0.7 + 0j, -0.5, RES)
        mc = oc.mc_area(annulus_half, 0.7 + 0j, -0.5, 200_000, 5)
        assert abs(est.value - mc.mean) <= 3 * mc.std_error

    def test_moebius_pullback_area(self, unit_disc, blaschke_disc):
        # Blaschke image of the unit disc is the unit disc: areas agree
        w = 0.2 + 0.1j
        direct = sl.sublevel_area(unit_disc, w, -0.8, RES)
        pulled = sl.sublevel_area(blaschke_disc, w, -0.8, RES)
        assert pulled.value == pytest.approx(direct.value, rel=1e-4)

    def test_deep_level_asymptotics(self, annulus_half):
        # lambda(t) e^{-2t} -> pi / c^2 as t -> -inf
        cap = gr.robin_capacity(annulus_half, 0.7 + 0j).capacity
        est = sl.sublevel_area(annulus_half, 0.7 + 0j, -6.0, RES)
        assert est.value * math.exp(12.0) == pytest.approx(math.pi / cap**2, rel=0.01)

    def test_level_guard(self, unit_disc):
        with pytest.raises(LevelAbovePeak):
            sl.sublevel_area(unit_disc, 0j, 0.1, RES)

    def test_polygon_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            sl.sublevel_area(unit_square, 0.5 + 0.5j, -1.0, RES)


class TestCoareaDerivative:
    def test_disc_exact(self, unit_disc):
        gp = sl.coarea_derivative(unit_disc, 0j, -1.0, RES)
        assert gp == pytest.approx(2 * math.pi * math.exp(-2.0), rel=1e-3)

    def test_matches_area_derivative(self, annulus_half):
        t, h = -0.5, 1e-4
        gp = sl.coarea_derivative(annulus_half, 0.7 + 0j, t, RES)
        lam_p = sl.sublevel_area(annulus_half, 0.7 + 0j, t + h, RES).value
        lam_m = sl.sublevel_area(annulus_half, 0.7 + 0j, t - h, RES).value
        assert gp == pytest.approx((lam_p - lam_m) / (2 * h), rel=1e-3)

    def test_growth_toward_critical_level(self, annulus_half):
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        values = [sl.coarea_derivative(annulus_half, 0.7 + 0j, t0 - gap, RES) for gap in (1e-1, 1e-2, 1e-3)]
        assert values[0] < values[1] < values[2]

    def test_critical_level_guard(self, annulus_half):
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        with pytest.raises(CriticalLevel):
            sl.coarea_derivative(annulus_half, 0.7 + 0j, t0 - 1e-9, RES)


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
        # A half-resolution profile identical to the main one leaves no grid
        # error, so a second difference of -5e-10 is a real concavity: the
        # floor is relative to the measured noise and has no absolute part.
        profile = sl.profile_scan(unit_disc, 0j, -1.2, -0.4, 24, 64, with_gamma=False)
        d2 = np.full(24, -5e-10)
        d2[0] = d2[-1] = np.nan
        profile = dataclasses.replace(profile, second_diff=d2)
        monkeypatch.setattr(sl, "profile_scan", lambda *args, **kwargs: profile)
        report = sl.convexity_report(profile, -0.8)
        assert report.noise_floor == 0.0
        assert report.verdict == "NonConvexDetected"


class TestContours:
    def test_disc_levels_are_circles(self, unit_disc):
        for t in (-2.0, -1.0, -0.5):
            loops = sl.extract_contours(unit_disc, 0j, t, RES)
            assert len(loops) == 1
            radii = np.abs(loops[0])
            assert np.allclose(radii, math.exp(t), atol=2e-4)

    def test_annulus_component_count_flips_at_saddle(self, annulus_half):
        # below the critical level one curve bounds the sublevel blob; just
        # above it the level set splits into two collar curves
        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        below = sl.extract_contours(annulus_half, 0.7 + 0j, t0 - 5e-7, 1024)
        above = sl.extract_contours(annulus_half, 0.7 + 0j, t0 + 0.5e-6, 1024)
        assert len(below) == 1
        assert len(above) == 2


class TestLevelField:
    def test_profile_runs_one_coarse_scan(self, unit_disc, monkeypatch):
        # centred pole: the analytic shell covers the whole coarse scan, so
        # each scan is one field call of exactly 256^2 points
        sizes = []
        raw = gr.green_values_raw

        def counted(core, w, z):
            sizes.append(np.size(z))
            return raw(core, w, z)

        monkeypatch.setattr(gr, "green_values_raw", counted)
        sl.profile_scan(unit_disc, 0j, -3.0, -0.1, 16, RES, with_gamma=True)
        assert sizes.count(sl._COARSE**2) == 1

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
            est = sl.sublevel_area(domain, w, float(t), res)
            assert (est.value, est.err_est) == (lam, err)
            assert sl.coarea_derivative(domain, w, float(t), res) == gp
