import cmath
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab.errors import StencilOutsideDomain, TruncationFailure, UnsupportedDomain
from suita_lab.geometry import Disc, MoebiusImage, PolarComplement

from conftest import interior_points


def disc_kernel_exact(j: int, cap: float) -> float:
    return math.factorial(j) * math.factorial(j + 1) / math.pi * cap ** (2 * j + 2)


class TestBasisNorms:
    def test_disc_constant(self, unit_disc):
        assert bg.basis_norms(unit_disc, 0, 0)[0] == pytest.approx(math.pi, abs=1e-15)

    def test_annulus_log_term(self, annulus_half):
        got = bg.basis_norms(annulus_half, -1, -1)[0]
        assert got == pytest.approx(2 * math.pi * math.log(2.0), rel=1e-14)

    def test_annulus_n0(self, annulus_half):
        assert bg.basis_norms(annulus_half, 0, 0)[0] == pytest.approx(0.75 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 2, 5])
    def test_against_quadrature(self, annulus_half, n):
        # independent oracle: Gauss-Legendre for 2 pi * int_q^1 r^(2n+1) dr
        nodes, wts = np.polynomial.legendre.leggauss(200)
        q = annulus_half.q
        r = 0.5 * (nodes + 1) * (1 - q) + q
        integral = 2 * math.pi * float(np.sum(wts * r ** (2 * n + 1))) * 0.5 * (1 - q)
        assert bg.basis_norms(annulus_half, n, n)[0] == pytest.approx(integral, rel=1e-12)

    def test_positive_for_negative_orders(self, annulus_half):
        norms = bg.basis_norms(annulus_half, -40, 40)
        assert np.all(norms > 0)

    def test_disc_negative_rejected(self, unit_disc):
        with pytest.raises(ValueError):
            bg.basis_norms(unit_disc, -1, 3)

    @pytest.mark.parametrize("radius, w, half_n", [(4.0, 1.0, 600), (0.01, 0.005, 200)])
    def test_disc_norms_finite_on_any_radius(self, radius, w, half_n):
        # norms of ((z - c)/R)^n; those of (z - c)^n, pi R^(2n+2)/(n+1),
        # overflow at R = 4 and underflow to 0 at R = 0.01 within these n.
        # The frame is built on the disc's core, the unit disc.
        domain = Disc(0j, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = bg.basis_norms(domain, 0, half_n)
            pb = geo.pull_back(domain, w)
            rows = bg._frame_rows(pb, w, 1, half_n)
        assert norms == pytest.approx(math.pi * radius**2 / np.arange(1, half_n + 2), rel=1e-15)
        assert np.all(norms > 0)
        assert np.array_equal(bg.basis_norms(pb.core, 0, half_n), bg.basis_norms(Disc(0j, 1.0), 0, half_n))
        assert np.all(np.isfinite(rows))


class TestFrame:
    def test_basis_orthonormality_by_quadrature(self, annulus_half):
        # Gram matrix of the normalized Laurent basis via polar quadrature
        q = annulus_half.q
        ns = np.arange(-3, 4)
        norms = bg.basis_norms(annulus_half, -3, 3)
        nodes, wts = np.polynomial.legendre.leggauss(220)
        r = 0.5 * (nodes + 1) * (1 - q) + q
        radial_weight = wts * 0.5 * (1 - q) * r
        gram = np.zeros((7, 7), dtype=complex)
        for a, m in enumerate(ns):
            for b, n in enumerate(ns):
                if m != n:
                    continue  # angular integral vanishes exactly
                gram[a, b] = 2 * math.pi * np.sum(radial_weight * r ** (m + n)) / math.sqrt(norms[a] * norms[b])
        assert np.max(np.abs(gram - np.eye(7))) < 1e-12

    def test_constraint_vectors_orthogonalize(self, annulus_half):
        w = 0.7 + 0j
        rows = bg._frame_rows(geo.pull_back(annulus_half, w), w, 4, 96)
        qmat, _ = np.linalg.qr(rows.T.conj())
        gram = qmat.T.conj() @ qmat
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


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
        ns = np.arange(-400, 401)
        direct = float(np.sum(abs(w) ** (2 * ns) / bg.basis_norms(annulus_half, -400, 400)))
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

    def test_truncation_stability(self, annulus_half):
        # the referee frame: its value at twice the cutoff it settled at
        w = 0.7 + 0j
        k = bg._frame_kernel(annulus_half, w, 2)
        doubled = bg._qr_residual_sq(bg._frame_rows(geo.pull_back(annulus_half, w), w, 2, 2 * k.truncation_order))
        assert abs(doubled - k.value) <= k.tail_bound

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

    def test_truncation_failure_near_boundary(self, unit_disc):
        # the referee frame refuses; kernel_j answers in closed form, within
        # its bound: 1 - |w| is exact here, so 1 - |w|^2 = (1 - |w|)(1 + |w|)
        w = (1 - 1e-9) + 0j
        with pytest.raises(TruncationFailure):
            bg._frame_kernel(unit_disc, w, 0)
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


class TestAnnulusFrameOverflow:
    # next to the inner circle the norms q^(2n+2) of z^n, n <= -2, overflow
    # while the basis elements at w are still far from negligible
    @pytest.mark.parametrize("q, f", list(_NEAR_INNER_CIRCLE))
    def test_against_decimal_laurent_sum(self, q, f):
        w = q + f * (1 - q)
        for j, ref in enumerate(_NEAR_INNER_CIRCLE[(q, f)]):
            k = bg.kernel_j(geo.Annulus(q), w, j)
            assert abs(k.value - ref) <= 1e-12 * ref


# K_j(w), j = 0..3, on Annulus(q) at w = q + f (1 - q), to 40 digits: the
# Gram matrix of the derivative vectors of the Laurent basis in mpmath at 60
# digits, each side of the sum carried until 50 successive terms stay below
# 1e-48 of every entry (|n| up to 13,237), then factored by Cholesky.  The
# entries at f = 0.02 agree with _NEAR_INNER_CIRCLE to every digit shown.
_LAURENT_40 = {
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
}


class TestImageSums:
    @pytest.mark.parametrize("q, f", list(_LAURENT_40))
    def test_within_the_stated_bound_of_a_40_digit_reference(self, q, f):
        w = q + f * (1 - q)
        for j, ref in enumerate(_LAURENT_40[(q, f)]):
            k = bg.kernel_j(geo.Annulus(q), w, j)
            assert abs(k.value - ref) <= k.tail_bound
            assert k.tail_bound <= 1e-10 * ref

    def test_meets_the_frame_on_the_baseline_grid(self):
        # a seeded third of the grid q in {0.05, ..., 0.95}, poles at 2-98%
        # of the width, four angles, j = 0..3: the two routes agree within
        # the sum of their bounds wherever the frame resolves, and kernel_j
        # answers where it does not (next to a circle of a thin ring)
        grid = [
            (q, f, angle)
            for q in (0.05, 0.1, 0.3, 0.5, 0.8, 0.9, 0.95)
            for f in (0.02, 0.05, 0.2, 0.5, 0.8, 0.95, 0.98)
            for angle in (0.0, 0.7, 2.0, -2.9)
        ]
        refused = 0
        for q, f, angle in random.Random(21).sample(grid, 64):
            w = (q + f * (1 - q)) * cmath.exp(1j * angle)
            for j in range(4):
                k = bg.kernel_j(geo.Annulus(q), w, j)
                try:
                    frame = bg._frame_kernel(geo.Annulus(q), w, j)
                except TruncationFailure:
                    refused += 1
                    continue
                assert abs(k.value - frame.value) <= k.tail_bound + frame.tail_bound
        assert refused > 0

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
        with pytest.raises(StencilOutsideDomain):
            bg.laplacian_identity_check(unit_disc, 0.9995 + 0j, 0, 1e-3)


# kernel_j on j = 0..4 at 3-4 poles of ten domains, and one derivative
# matrix, in float.hex, as the frame that rebuilt every power at every
# doubling computed them (commit 87316b0).  A refusal is frozen as its
# class name.
FROZEN = json.loads((Path(__file__).parent / "kernel_frozen_values.json").read_text())
FROZEN_POLES = [(lit, case["w"]) for lit, cases in FROZEN["domains"].items() for case in cases]


def _frozen_row(domain, w, j):
    try:
        k = bg._frame_kernel(domain, w, j)
    except TruncationFailure:
        return [j, "TruncationFailure"]
    return [j, k.value.hex(), k.tail_bound.hex(), k.truncation_order]


class TestFrozenKernel:
    @pytest.mark.parametrize("literal, w", FROZEN_POLES)
    def test_kernel_keeps_frozen_bits(self, literal, w):
        rows = next(c["rows"] for c in FROZEN["domains"][literal] if c["w"] == w)
        domain = geo.parse_domain(literal)
        assert [_frozen_row(domain, complex(w), j) for j in range(5)] == rows

    def test_frame_keeps_frozen_bits(self):
        frame = FROZEN["frame"]
        w = 0.7 + 0j
        got = bg._frame_rows(geo.pull_back(geo.Annulus(0.5), w), w, 4, 96)
        assert list(got.shape) == frame["shape"]
        assert [float(x).hex() for x in got.real.ravel()] == frame["real"]
        assert [float(x).hex() for x in got.imag.ravel()] == frame["imag"]

    @pytest.mark.parametrize("literal, w", FROZEN_POLES)
    def test_kernel_is_the_pinned_kernel_at_its_cutoff(self, literal, w):
        # the grown frame and the frame built at the final cutoff in one go
        # give the same value, bit for bit
        domain, w = geo.parse_domain(literal), complex(w)
        for j in range(5):
            try:
                k = bg._frame_kernel(domain, w, j)
            except TruncationFailure:
                continue
            assert k.value == bg._qr_residual_sq(bg._frame_rows(geo.pull_back(domain, w), w, j, k.truncation_order))


def _disc_poles():
    """The unit-disc poles of the radius sweep: 0 to 0.995 of the radius."""
    return [f * cmath.exp(0.9j) for f in (0.0, 0.3, 0.6, 0.9, 0.99, 0.995)]


class TestDiscRadius:
    # K_j = j!(j+1)!/pi c^(2j+2), c = R/(R^2 - |w - c0|^2), on every radius.
    # kernel_j takes the closed form.  The referee frame's true norms
    # pi R^(2n+2)/(n+1) leave the double range once n > 354/|log R|, and its
    # rows are formed in (w - c0)/R instead: it meets the closed form too,
    # or refuses where the unit disc's frame refuses.
    @pytest.mark.parametrize("center", [0j, 0.3 - 0.2j])
    @pytest.mark.parametrize("radius", [0.01, 0.1, 0.5, 1.0, 1.3, 2.0, 4.0])
    def test_closed_form_or_refused_with_the_unit_disc(self, radius, center):
        domain = Disc(center, radius)
        for u in _disc_poles():
            w = center + radius * u
            cap = radius / (radius * radius - abs(w - center) ** 2)
            for j in range(4):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    k = bg.kernel_j(domain, w, j)
                    try:
                        frame = bg._frame_kernel(domain, w, j)
                    except TruncationFailure:
                        frame = None
                assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
                assert k.value == pytest.approx(disc_kernel_exact(j, cap), rel=1e-12, abs=0)
                if frame is None:
                    with pytest.raises(TruncationFailure):
                        bg._frame_kernel(Disc(0j, 1.0), u, j)
                else:
                    assert frame.value == pytest.approx(disc_kernel_exact(j, cap), rel=1e-12, abs=0)

    def test_unit_disc_refuses_only_at_the_edge(self):
        # the sweep above is not empty: the frame refuses j = 2, 3 at 0.995
        refused = []
        for u in _disc_poles():
            for j in range(4):
                try:
                    bg._frame_kernel(Disc(0j, 1.0), u, j)
                except TruncationFailure:
                    refused.append((round(abs(u), 3), j))
        assert refused == [(0.995, 2), (0.995, 3)]
