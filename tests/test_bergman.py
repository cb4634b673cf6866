import math

import numpy as np
import pytest

from suita_lab import bergman as bg
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
        frame = bg.build_frame(annulus_half, 0.7 + 0j, 4, half_n=96)
        qmat, _ = np.linalg.qr(frame.derivative_matrix.T.conj())
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
        k = bg.kernel_j(annulus_half, 0.7 + 0j, 2)
        doubled = bg.pinned_kernel(annulus_half, 0.7 + 0j, 2, 0.7 + 0j, 2 * k.truncation_order)
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
        with pytest.raises(TruncationFailure):
            bg.kernel_j(unit_disc, (1 - 1e-9) + 0j, 0)


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
