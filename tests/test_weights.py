import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suita_lab import weights as wt
from suita_lab.errors import InvalidArgument


def test_eta0_at_minus_one_exact():
    # D(-1) = 1 + e^{-1} - 1 = e^{-1}, so eta0(-1) = 1 with no rounding
    assert wt.eval_weights(-1.0).eta0 == 1.0


@pytest.mark.parametrize("s", [-0.5, -2.0, -7.5, -20.0])
def test_derivatives_match_finite_differences(s):
    h = 1e-6
    v = wt.eval_weights(s)
    eta0 = lambda x: wt.eval_weights(x).eta0
    eta0p = lambda x: wt.eval_weights(x).eta0p
    gamma0 = lambda x: wt.eval_weights(x).gamma0
    assert v.eta0p == pytest.approx((eta0(s + h) - eta0(s - h)) / (2 * h), rel=1e-8)
    assert v.eta0pp == pytest.approx((eta0p(s + h) - eta0p(s - h)) / (2 * h), rel=1e-8)
    assert v.gamma0p == pytest.approx((gamma0(s + h) - gamma0(s - h)) / (2 * h), rel=1e-8)


def test_deep_s_stability():
    v = wt.eval_weights(-40.0)
    assert v.eta0 == pytest.approx(-math.log(39.0), rel=1e-12)
    assert all(map(math.isfinite, (v.eta0, v.eta0p, v.eta0pp, v.gamma0, v.gamma0p)))
    # gamma0 - eta0 = log(1 - e^{-40}) ~ -4.2e-18, zero at double resolution
    assert abs((v.gamma0 - v.eta0) - (-math.exp(-40.0))) < 1e-17


class TestIdentityResidual:
    @pytest.mark.parametrize("s,bound", [(-0.5, 1e-12), (-5.0, 1e-12), (-40.0, 1e-9)])
    def test_pointwise(self, s, bound):
        assert wt.identity_residual(s) <= bound

    def test_dense_sweep(self):
        s = -np.logspace(math.log10(1e-3), math.log10(40.0), 10_000)
        residuals = np.array([wt.identity_residual(float(x)) for x in s])
        assert residuals.max() <= 1e-9

    def test_branch_seam_continuity(self):
        # the stabilized and direct branches agree where they hand over
        # (factor ~ 1e-4 happens near s = -11.6)
        for s in (-11.0, -11.6, -12.2):
            assert wt.identity_residual(s) <= 1e-10


class TestWarProbe:
    def test_magnitude_at_minus_ten(self):
        (value,) = wt.war_probe([-10.0])
        assert abs(value) < 1e-3

    def test_strictly_decreasing_magnitudes(self):
        probes = wt.war_probe([-1, -5, -10, -20, -40])
        mags = [abs(p) for p in probes]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_deep_magnitude_regime(self):
        (value,) = wt.war_probe([-40.0])
        assert abs(value) <= 1e-15


class TestInvariants:
    @given(st.floats(min_value=-36.0, max_value=-1e-4))
    def test_convexity_and_monotonicity(self, s):
        v = wt.eval_weights(s)
        assert v.eta0pp > 0
        assert v.eta0p > 0
        assert v.gamma0p * v.gamma0p < v.eta0pp

    @given(st.floats(min_value=-700.0, max_value=-1e-6))
    def test_denominator_positive(self, s):
        # D(s) = -s + e^s - 1 > 0 backs every formula
        assert -s + math.expm1(s) > 0

    def test_domain_guard(self):
        with pytest.raises(InvalidArgument):
            wt.eval_weights(0.0)
        with pytest.raises(InvalidArgument):
            wt.eval_weights(1.0)
        with pytest.raises(InvalidArgument):
            wt.identity_residual(0.5)
