import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab.errors import PointOutsideDomain, UnsupportedDomain
from suita_lab.geometry import Annulus, MoebiusImage


class TestCounterUniform:
    def test_pure_function(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(42, 1, np.arange(1000))
        assert np.array_equal(a, b)

    def test_seeds_decorrelate(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(43, 1, np.arange(1000))
        assert np.max(np.abs(a - b)) > 0.1

    def test_streams_decorrelate(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(42, 2, np.arange(1000))
        assert not np.array_equal(a, b)

    def test_range_and_moments(self):
        u = oc.counter_uniform(7, 1, np.arange(1_000_000))
        assert np.all((u >= 0) & (u < 1))
        assert np.mean(u) == pytest.approx(0.5, abs=2e-3)
        assert np.var(u) == pytest.approx(1 / 12, rel=1e-2)

    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=2**30))
    def test_scheduling_independence(self, seed, offset):
        # the value at a counter does not depend on which block computed it
        block = oc.counter_uniform(seed, 3, np.arange(offset, offset + 8))
        single = oc.counter_uniform(seed, 3, np.array([offset + 5]))
        assert block[5] == single[0]


class TestWosGreen:
    def test_disc_center_exact(self, unit_disc):
        est = oc.wos_green(unit_disc, 0j, 0.5 + 0j, 20_000, 42)
        # score variance is ~0 here: every exit point has |x| = 1
        assert abs(est.mean - math.log(0.5)) <= max(3 * est.std_error, 1e-9)

    def test_deterministic(self, unit_disc):
        a = oc.wos_green(unit_disc, 0.2 + 0j, 0.5 + 0.1j, 5_000, 7)
        b = oc.wos_green(unit_disc, 0.2 + 0j, 0.5 + 0.1j, 5_000, 7)
        assert a == b

    def test_annulus_matches_series(self, annulus_half):
        z = 0.55 + 0.3j
        est = oc.wos_green(annulus_half, 0.7 + 0j, z, 100_000, 11)
        ref = gr.green_eval(annulus_half, 0.7 + 0j, z).value
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_square(self, unit_square):
        est = oc.wos_green(unit_square, 0.5 + 0.5j, 0.25 + 0.25j, 30_000, 3)
        rev = oc.wos_green(unit_square, 0.25 + 0.25j, 0.5 + 0.5j, 30_000, 4)
        assert abs(est.mean - rev.mean) <= 3 * math.hypot(est.std_error, rev.std_error)

    def test_rotation_equivariance(self, annulus_half):
        base = oc.wos_green(annulus_half, 0.7 + 0j, -0.6 + 0.1j, 50_000, 5)
        for k, angle in enumerate((0.7, 2.0, -1.1)):
            rot = complex(math.cos(angle), math.sin(angle))
            est = oc.wos_green(annulus_half, 0.7 * rot, (-0.6 + 0.1j) * rot, 50_000, 50 + k)
            assert abs(est.mean - base.mean) <= 3 * math.hypot(est.std_error, base.std_error)

    def test_std_error_definition(self, unit_disc):
        est = oc.wos_green(unit_disc, 0.3 + 0j, -0.2 + 0.4j, 10_000, 9)
        assert est.samples == 10_000
        assert est.std_error > 0

    def test_guards(self, unit_disc, annulus_half):
        with pytest.raises(PointOutsideDomain):
            oc.wos_green(unit_disc, 0j, 2 + 0j, 100, 1)
        with pytest.raises(PointOutsideDomain):
            oc.wos_green(annulus_half, 0.7 + 0j, 0.7 + 0j, 100, 1)
        with pytest.raises(UnsupportedDomain):
            oc.wos_green(MoebiusImage(unit_disc, 1 + 0j, 0j, 0j, 1 + 0j), 0j, 0.5 + 0j, 100, 1)


class TestMcArea:
    def test_disc_level(self, unit_disc):
        est = oc.mc_area(unit_disc, 0j, -1.0, 400_000, 11)
        assert abs(est.mean - math.pi * math.exp(-2.0)) <= 3 * est.std_error

    def test_deep_level_nearly_empty(self, unit_disc):
        est = oc.mc_area(unit_disc, 0j, -20.0, 100_000, 13)
        assert est.mean <= 3 * est.std_error + 1e-12

    def test_annulus_matches_grid(self, annulus_half):
        est = oc.mc_area(annulus_half, 0.7 + 0j, -0.5, 200_000, 12)
        ref = sl.sublevel_area(annulus_half, 0.7 + 0j, -0.5, 512).value
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_deterministic(self, annulus_half):
        a = oc.mc_area(annulus_half, 0.7 + 0j, -0.5, 50_000, 21)
        b = oc.mc_area(annulus_half, 0.7 + 0j, -0.5, 50_000, 21)
        assert a == b


class TestRobinExtrapolate:
    def test_disc_center(self, unit_disc):
        c = oc.robin_extrapolate(unit_disc, 0j, [0.1 / 2**k for k in range(5)])
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_disc_offcenter(self, unit_disc):
        c = oc.robin_extrapolate(unit_disc, 0.5 + 0j, [0.1 / 2**k for k in range(5)])
        assert c == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_annulus_matches_series(self, annulus_half):
        c = oc.robin_extrapolate(annulus_half, 0.7 + 0j, [0.08 / 2**k for k in range(5)])
        assert c == pytest.approx(gr.robin_capacity(annulus_half, 0.7 + 0j).capacity, abs=1e-6)

    def test_moebius_transport_validated(self, blaschke_disc):
        w = 0.2 + 0.1j
        series = gr.robin_capacity(blaschke_disc, w).capacity
        limit = oc.robin_extrapolate(blaschke_disc, w, [0.15 / 2**k for k in range(5)])
        assert limit == pytest.approx(series, abs=1e-6)

    def test_radii_validation(self, unit_disc):
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0j, [0.1, 0.2, 0.05, 0.02])  # not decreasing
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0j, [0.1, 0.05, 0.02])  # too few
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0.9 + 0j, [0.2, 0.1, 0.05, 0.02])  # exceeds delta/2


class TestGridMinGradient:
    def test_annulus_seed_near_saddle(self, annulus_half):
        seeds = oc.grid_min_gradient(annulus_half, 0.7 + 0j, 512)
        assert len(seeds) >= 1
        best = seeds[0]
        assert abs(best.imag) < 0.01
        assert best.real < 0

    def test_disc_image_empty(self, unit_disc):
        identity = MoebiusImage(unit_disc, 1 + 0j, 0j, 0j, 1 + 0j)
        assert oc.grid_min_gradient(identity, 0.3 + 0j, 512) == []

    def test_rotation_equivariance(self, annulus_half):
        seeds = oc.grid_min_gradient(annulus_half, 0.7 + 0j, 512)
        rot = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        rotated = oc.grid_min_gradient(annulus_half, 0.7 * rot, 512)
        cell = 2.0 / 511
        assert len(rotated) == len(seeds)
        assert abs(rotated[0] - seeds[0] * rot) <= cell * math.sqrt(2)

    # The lattice scan referees critical_points, which searches only the far
    # ray: one point, negative level, on the ray, and within 1e-9 of the
    # Newton-polished best lattice seed.  The Annulus(0.3) saddle radius
    # 0.547742439 is a 40-digit mpmath root (benchmark/README.md).
    @pytest.mark.parametrize(
        "case",
        ["q03", "q05_angle0", "q05_angle1", "q05_angle2", "q05_angle3", "q08", "moebius"],
    )
    def test_referee_critical_points(self, case, annulus_half, annulus_thin, moebius_annulus):
        if case == "q03":
            domain, zeta_w = Annulus(0.3), 0.55 + 0.2j
        elif case.startswith("q05"):
            angle = (0.3 + int(case[-1])) * math.pi / 2
            domain, zeta_w = annulus_half, 0.7 * complex(math.cos(angle), math.sin(angle))
        elif case == "q08":
            domain, zeta_w = annulus_thin, 0.9 + 0j
        else:
            domain, zeta_w = moebius_annulus, 0.7 + 0j
        core, coeffs = geo.flatten_moebius(domain)
        w = complex(geo.moebius_forward(coeffs, zeta_w))
        cps = gr.critical_points(domain, w)
        assert len(cps) == 1
        cp = cps[0]
        assert cp.level < 0
        along = complex(geo.moebius_inverse(coeffs, cp.location)) * (-zeta_w / abs(zeta_w)).conjugate()
        assert abs(along.imag) <= 1e-12
        assert core.q < along.real < 1.0
        if case == "q03":
            assert along.real == pytest.approx(0.547742439, abs=1e-9)
        z = oc.grid_min_gradient(domain, w, 512)[0]
        for _ in range(60):
            step = complex(gr.green_fprime_raw(domain, w, np.asarray(z))) / complex(gr.green_fsecond_raw(domain, w, np.asarray(z)))
            z -= step
            if abs(step) <= 1e-14 * abs(z):
                break
        assert abs(cp.location - z) <= 1e-9
