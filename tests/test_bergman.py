import cmath
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab.errors import PointOutsideDomain, UnsupportedDomain
from suita_lab.geometry import Disc, MoebiusImage, PolarComplement

from conftest import interior_points


def disc_kernel_exact(j: int, cap: float) -> float:
    return math.factorial(j) * math.factorial(j + 1) / math.pi * cap ** (2 * j + 2)


class TestKernel:
    def test_disc_center_equalities(self, unit_disc):
        for j in range(7):
            k = bg.kernel_j(unit_disc, 0j, j)
            assert k.value == pytest.approx(disc_kernel_exact(j, 1.0), rel=1e-10)

    def test_disc_first_orders(self, unit_disc):
        assert bg.kernel_j(unit_disc, 0j, 0).value == pytest.approx(1 / math.pi, rel=1e-12)
        assert bg.kernel_j(unit_disc, 0j, 1).value == pytest.approx(2 / math.pi, rel=1e-12)
        assert bg.kernel_j(unit_disc, 0j, 2).value == pytest.approx(12 / math.pi, rel=1e-12)

    def test_disc_offcenter_equality(self, unit_disc):
        w = 0.5 + 0.2j
        cap = gr.robin_capacity(unit_disc, w).capacity
        for j in (0, 1, 4):
            k = bg.kernel_j(unit_disc, w, j)
            assert k.value == pytest.approx(disc_kernel_exact(j, cap), rel=1e-10)

    def test_annulus_against_direct_sum(self, annulus_half):
        w = 0.7 + 0j
        k = bg.kernel_j(annulus_half, w, 0)
        # |w|^(2n) / ||z^n||^2, ||z^n||^2 = pi (1 - q^(2n+2)) / (n+1) on
        # q < |z| < 1 and 2 pi log(1/q) at n = -1
        q, ns = annulus_half.q, np.arange(-400, 401)
        ns = ns[ns != -1]
        laurent = np.sum(abs(w) ** (2 * ns) * (ns + 1) / (math.pi * (1 - q ** (2.0 * ns + 2))))
        direct = float(laurent) + abs(w) ** -2 / (2 * math.pi * math.log(1 / q))
        assert k.value == pytest.approx(direct, rel=1e-8)

    def test_suita_pointwise(self, annulus_half, unit_disc, blaschke_disc):
        for domain in (annulus_half, unit_disc, blaschke_disc):
            for w in interior_points(domain, 8):
                cap = gr.robin_capacity(domain, w).capacity
                k = bg.kernel_j(domain, w, 0).value
                assert math.pi * k >= cap * cap * (1 - 1e-10)

    def test_simply_connected_equality(self, unit_disc, blaschke_disc):
        for domain in (unit_disc, blaschke_disc):
            for w in interior_points(domain, 6):
                cap = gr.robin_capacity(domain, w).capacity
                k = bg.kernel_j(domain, w, 0).value
                assert math.pi * k == pytest.approx(cap * cap, rel=1e-8)

    def test_order_bound_pointwise(self, annulus_half):
        w = 0.7 + 0j
        cap = gr.robin_capacity(annulus_half, w).capacity
        for j in range(7):
            k = bg.kernel_j(annulus_half, w, j).value
            assert k >= disc_kernel_exact(j, cap) * (1 - 1e-8)

    def test_domain_monotonicity(self):
        small = bg.kernel_j(Disc(0j, 1.0), 0j, 0).value
        large = bg.kernel_j(Disc(0j, 2.0), 0j, 0).value
        assert large == pytest.approx(1 / (4 * math.pi), rel=1e-12)
        assert large < small

    def test_moebius_scaling(self, unit_disc):
        scaled = MoebiusImage(unit_disc, 2 + 0j, 0j, 0j, 1 + 0j)
        assert bg.kernel_j(scaled, 0j, 0).value == pytest.approx(1 / (4 * math.pi), rel=1e-12)

    def test_moebius_equality_all_orders(self, blaschke_disc):
        w = 0.1 + 0.2j
        cap = gr.robin_capacity(blaschke_disc, w).capacity
        for j in (0, 2, 5):
            k = bg.kernel_j(blaschke_disc, w, j)
            assert k.value == pytest.approx(disc_kernel_exact(j, cap), rel=1e-9)

    def test_moebius_annulus_invariance(self, annulus_half, moebius_annulus):
        # K transforms by |F'|^(-2): check against the base annulus value
        from suita_lab import geometry as geo

        zeta = 0.7 + 0j
        _, coeffs = geo.flatten_moebius(moebius_annulus)
        w_img = complex(geo.moebius_forward(coeffs, zeta))
        fp = abs(geo.moebius_fprime(coeffs, zeta))
        base = bg.kernel_j(annulus_half, zeta, 0).value
        img = bg.kernel_j(moebius_annulus, w_img, 0).value
        assert img == pytest.approx(base / fp**2, rel=1e-9)

    def test_polar_complement_zero(self):
        for j in range(5):
            assert bg.kernel_j(PolarComplement(), 1 + 0j, j).value == 0.0

    def test_order_cap(self, unit_disc):
        with pytest.raises(ValueError):
            bg.kernel_j(unit_disc, 0j, 13)

    def test_polygon_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            bg.kernel_j(unit_square, 0.5 + 0.5j, 0)

    def test_closed_form_next_to_the_boundary(self, unit_disc):
        # kernel_j answers in closed form, within its bound: 1 - |w| is
        # exact here, so 1 - |w|^2 = (1 - |w|)(1 + |w|)
        w = (1 - 1e-9) + 0j
        k = bg.kernel_j(unit_disc, w, 0)
        exact = disc_kernel_exact(0, 1.0 / ((1.0 - w.real) * (1.0 + w.real)))
        assert abs(k.value - exact) <= k.tail_bound


# K_j(w), j = 0..3, on Annulus(q) at w = q + f (1 - q), from the Laurent sum
# over |n| <= 40000 of the Gram matrix of the derivative vectors (stdlib
# decimal, 70 digits; the same sums over 1.25 times as many terms agree).
_NEAR_INNER_CIRCLE = {
    (0.3, 0.02): [389.80950309890738, 954739.11127049464, 7015170993.5894365, 103091250106109.59],
    (0.5, 0.02): [782.29513229929296, 3845219.3952016439, 56701281601.14209, 1672224653409375.0],
    (0.8, 0.02): [4956.9997132540875, 154389462.7452032, 14425725793176.389, 2.6958001013755085e18],
    (0.5, 0.01): [3153.7465616537297, 62493298.554980353, 3715021757075.5244, 4.4169173254320512e17],
}


class TestNearTheInnerCircle:
    # next to the inner circle the Laurent sum needs tens of thousands of
    # terms with n <= -2, whose norms q^(2n+2) leave the double range
    @pytest.mark.parametrize("q, f", list(_NEAR_INNER_CIRCLE))
    def test_against_decimal_laurent_sum(self, q, f):
        w = q + f * (1 - q)
        for j, ref in enumerate(_NEAR_INNER_CIRCLE[(q, f)]):
            k = bg.kernel_j(geo.Annulus(q), w, j)
            assert abs(k.value - ref) <= 1e-12 * ref


# K_j(w), j = 0..3, on Annulus(q) at w = q + f (1 - q), to 40 digits, from
# the Laurent sum: the Gram matrix of the derivative functionals,
#     M_ab = sum_n (n)_a (n)_b w^(n-a) conj(w)^(n-b) / ||z^n||^2,
# in mpmath at 60 digits, each side of the sum carried until 50 successive
# terms fall below 1e-48 of every entry (1e-50 for q = 0.05 and 0.95, where
# q = 0.95 takes up to 68,516 terms), then factored by Cholesky: K_j is the
# square of the j-th diagonal entry of the factor.  The entries at f = 0.02
# agree with _NEAR_INNER_CIRCLE to every digit shown, and the 1e-50 sum
# gives the (0.5, 0.5) row to every digit shown.
_LAURENT_40 = {
    (0.05, 0.02): [167.23351203204908, 175962.99326883032, 556394406.9359554, 3520804668000.895],
    (0.05, 0.98): [224.74181799124446, 317356.6894814951, 1344412984.296439, 11390630479497.133],
    (0.3, 0.02): [389.8095030989074, 954739.1112704946, 7015170993.589437, 103091250106109.6],
    (0.3, 0.05): [59.86963498979162, 22521.28193805698, 25415630.381443813, 57363901279.95696],
    (0.3, 0.5): [1.5766944426774179, 15.619774706154157, 464.2186922329192, 27593.227317960936],
    (0.3, 0.95): [67.51870903344202, 28643.634834174107, 36454687.70553117, 92791593341.4126],
    (0.5, 0.02): [782.295132299293, 3845219.395201644, 56701281601.14209, 1672224653409375.0],
    (0.5, 0.05): [123.28141743174533, 95493.78479062484, 221908454.41945776, 1031341720318.4296],
    (0.5, 0.5): [3.123433576222554, 61.29773361395246, 3608.9246541144025, 424953.302226715],
    (0.5, 0.95): [131.17036262921042, 108106.37544788168, 267293346.87093246, 1321767249812.3865],
    (0.8, 0.02): [4956.9997132540875, 154389462.7452032, 14425725793176.389, 2.6958001013755085e18],
    (0.8, 0.05): [794.0233482574104, 3961379.177609812, 59289912657.75718, 1774782763959246.8],
    (0.8, 0.5): [19.62282216156173, 2419.3728583217744, 894881.2223936833, 661999988.4997514],
    (0.8, 0.95): [809.2056630767396, 4114316.479491179, 62756357990.81422, 1914466467469363.0],
    (0.95, 0.02): [79603.91636887085, 39815184989.90857, 5.97426242862802e16, 1.7928743304928863e23],
    (0.95, 0.98): [79756.91513410835, 39968381679.70977, 6.008776285073976e16, 1.8066977408993552e23],
}


class TestImageSums:
    # K_j is rotation invariant on an annulus: the references hold at every
    # angle, here the four of the Baseline grid
    @pytest.mark.parametrize("angle", [0.0, 0.7, 2.0, -2.9])
    @pytest.mark.parametrize("q, f", list(_LAURENT_40))
    def test_within_the_stated_bound_of_a_40_digit_reference(self, q, f, angle):
        w = (q + f * (1 - q)) * cmath.exp(1j * angle)
        for j, ref in enumerate(_LAURENT_40[(q, f)]):
            k = bg.kernel_j(geo.Annulus(q), w, j)
            assert abs(k.value - ref) <= k.tail_bound
            assert k.tail_bound <= 1e-10 * ref

    def test_pinned_kernel_is_the_kernel_at_its_pole(self, moebius_annulus, blaschke_disc):
        for domain, w in ((geo.Annulus(0.3), 0.5 + 0.2j), (moebius_annulus, 0.75 + 0j), (blaschke_disc, 0.2 + 0.1j)):
            for j in range(4):
                k = bg.kernel_j(domain, w, j)
                assert abs(bg.pinned_kernel(domain, w, j, w) - k.value) <= k.tail_bound


# (pi K - c^2)/c^2 on Annulus(0.8): the image sum of K (k = -60..60) minus c^2
# from the Robin series (k = 1..59), in mpmath at 90 digits
_DEFECT_THIN_RING = {
    0.85 + 0j: 1.9730107432749757e-38,
    0.9 + 0j: 6.024420615740263e-38,
    0.63 + 0.63j: 6.080778852875612e-38,
    0.804 + 0j: 1.4823347066297678e-42,
}


class TestSuitaDefect:
    @pytest.mark.parametrize("w", list(_DEFECT_THIN_RING))
    def test_thin_ring_reference(self, w):
        value, bound = bg.suita_defect(geo.Annulus(0.8), w)
        assert abs(value - _DEFECT_THIN_RING[w]) <= bound

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5])
    def test_meets_the_difference_where_it_resolves(self, q):
        domain = geo.Annulus(q)
        for w in interior_points(domain, 6):
            value, bound = bg.suita_defect(domain, w)
            k = bg.kernel_j(domain, w, 0)
            cap = gr.robin_capacity(domain, w)
            c2 = cap.capacity**2
            direct = (math.pi * k.value - c2) / c2
            slack = math.pi * k.tail_bound / c2 + 2 * (cap.truncation_bound + 8 * np.finfo(float).eps) * (1 + direct)
            assert value > 0
            assert abs(value - direct) <= bound + slack

    # past the double range at the mid-width pole: sinh^2(pi^2 / h) overflows
    # from q = 0.9727 on, and the defect, about 4 s^2 u_1, is below the
    # smallest normal double (3.1e-309 at q = 0.9727); u_1 is formed here in
    # log space, where it does not underflow
    @pytest.mark.parametrize("q", [0.9727, 0.975, 0.99])
    def test_past_the_double_range(self, q):
        r, h = (1 + q) / 2, -math.log(q)
        s2 = math.sin(math.pi * min(math.log1p((r - q) / q), -math.log(r)) / h) ** 2
        x = math.pi**2 / h
        # sinh^2 x + s2 = e^(2x) / 4 * ((1 - e^(-2x))^2 + 4 s2 e^(-2x))
        log_u1 = math.log(s2) - (2 * x - math.log(4) + math.log1p(-2 * math.exp(-2 * x) * (1 - 2 * s2) + math.exp(-4 * x)))
        value, bound = bg.suita_defect(geo.Annulus(q), complex(r, 0))
        assert bound > 0
        assert abs(value - 4 * s2 * math.exp(log_u1)) <= bound
        assert math.log(bound) > math.log(4 * s2) + log_u1  # the bound covers the defect itself

    @pytest.mark.parametrize("q, bits", [(0.95, 1.186136706006571e-166), (0.97, 5.724722052374114e-281), (0.9726, 4.3700871008359054e-308)])
    def test_inside_the_double_range(self, q, bits):
        assert bg.suita_defect(geo.Annulus(q), complex((1 + q) / 2, 0))[0] == bits

    def test_conformal_invariance_and_discs(self, moebius_annulus, blaschke_disc):
        _, coeffs = geo.flatten_moebius(moebius_annulus)
        zeta = 0.7 + 0.1j
        w = complex(geo.moebius_forward(coeffs, zeta))
        assert bg.suita_defect(moebius_annulus, w)[0] == pytest.approx(bg.suita_defect(geo.Annulus(0.5), zeta)[0], rel=1e-10)
        assert bg.suita_defect(blaschke_disc, 0.2 + 0.1j) == (0.0, 0.0)
        with pytest.raises(UnsupportedDomain):
            bg.suita_defect(PolarComplement(), 1 + 0j)


class TestLaplacianIdentity:
    def test_disc_closed_form(self, unit_disc):
        fd, ratio, rel = bg.laplacian_identity_check(unit_disc, 0.3 + 0j, 0, 1e-3)
        assert ratio == pytest.approx(2.0 / (1 - 0.09) ** 2, rel=1e-12)
        assert rel <= 1e-4

    def test_disc_j1(self, unit_disc):
        _, _, rel = bg.laplacian_identity_check(unit_disc, 0j, 1, 1e-3)
        assert rel <= 1e-3

    def test_annulus(self, annulus_half):
        _, _, rel = bg.laplacian_identity_check(annulus_half, 0.7 + 0j, 0, 1e-3)
        assert rel <= 1e-3

    def test_h2_convergence(self, annulus_half):
        _, _, rel1 = bg.laplacian_identity_check(annulus_half, 0.7 + 0j, 0, 1e-3)
        _, _, rel2 = bg.laplacian_identity_check(annulus_half, 0.7 + 0j, 0, 5e-4)
        assert 2.8 <= rel1 / rel2 <= 5.5

    def test_stencil_guard(self, unit_disc):
        with pytest.raises(PointOutsideDomain, match="leaves the domain"):
            bg.laplacian_identity_check(unit_disc, 0.9995 + 0j, 0, 1e-3)


# K_j on j = 0..4 at 29 poles of nine domains, in float.hex, as the Laurent
# frame that computed K_j before the image sums gave them (commit 87316b0),
# basis cutoffs of 64 to 4096 modes.  The frame refused j = 4 at the two
# poles of annulus:0.95; those rows carry no value (null).
FROZEN = json.loads((Path(__file__).parent / "kernel_frozen_values.json").read_text())
FROZEN_POLES = [(lit, case["w"]) for lit, cases in FROZEN["domains"].items() for case in cases]


class TestFrozenKernel:
    @pytest.mark.parametrize("literal, w", FROZEN_POLES)
    def test_kernel_meets_the_frozen_values(self, literal, w):
        rows = next(c["rows"] for c in FROZEN["domains"][literal] if c["w"] == w)
        domain = geo.parse_domain(literal)
        for j, value, *_ in rows:
            if value is None:
                continue
            k = bg.kernel_j(domain, complex(w), j)
            assert abs(k.value - float.fromhex(value)) <= k.tail_bound


def _disc_poles():
    """The unit-disc poles of the radius sweep: 0 to 0.995 of the radius."""
    return [f * cmath.exp(0.9j) for f in (0.0, 0.3, 0.6, 0.9, 0.99, 0.995)]


class TestDiscRadius:
    # K_j = j!(j+1)!/pi c^(2j+2), c = R/(R^2 - |w - c0|^2), on every radius,
    # small and large, with no RuntimeWarning
    @pytest.mark.parametrize("center", [0j, 0.3 - 0.2j])
    @pytest.mark.parametrize("radius", [0.01, 0.1, 0.5, 1.0, 1.3, 2.0, 4.0])
    def test_closed_form_on_every_radius(self, radius, center):
        domain = Disc(center, radius)
        for u in _disc_poles():
            w = center + radius * u
            cap = radius / (radius * radius - abs(w - center) ** 2)
            for j in range(4):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    k = bg.kernel_j(domain, w, j)
                assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
                assert k.value == pytest.approx(disc_kernel_exact(j, cap), rel=1e-12, abs=0)
