import itertools
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import verify as vf
from suita_lab.errors import (
    ConvergenceFailure,
    InvalidArgument,
    PointOutsideDomain,
    UnsupportedDomain,
)
from suita_lab.geometry import Annulus, Disc, MoebiusImage, PolarComplement

from conftest import interior_points

# the plan's Moebius disc and Moebius annulus
BLASCHKE = "moebius:1,-0.3,-0.3,1;base=disc:0,0,1"
MOEBIUS_RING = "moebius:1,0.15,0.15,1;base=annulus:0.5"


class TestGreenEval:
    def test_disc_center_value_and_gradient(self, unit_disc):
        v = gr.green_eval(unit_disc, 0j, 0.5 + 0j)
        assert v.value == pytest.approx(math.log(0.5), abs=1e-14)
        assert v.grad_x == pytest.approx(2.0, abs=1e-14)
        assert v.grad_y == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_example(self, unit_disc):
        assert gr.green_eval(unit_disc, 0.5 + 0j, 0j).value == pytest.approx(math.log(0.5), abs=1e-14)

    def test_coincident_raises(self, unit_disc):
        with pytest.raises(PointOutsideDomain, match="z == w"):
            gr.green_eval(unit_disc, 0.5 + 0j, 0.5 + 0j)

    def test_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            gr.green_eval(unit_square, 0.5 + 0.5j, 0.25 + 0.25j)
        with pytest.raises(UnsupportedDomain):
            gr.green_eval(PolarComplement(), 1 + 0j, 2 + 0j)

    def test_outside_raises(self, annulus_half):
        with pytest.raises(PointOutsideDomain):
            gr.green_eval(annulus_half, 0.7 + 0j, 0.2 + 0j)

    def test_moebius_outside_raises(self, annulus_half):
        # membership is read on the base; 2 is the image of infinity, where
        # the inverse map divides by zero
        domain = MoebiusImage(annulus_half, 1 + 0j, 0j, 0.5 + 0j, 1 + 0j)
        for w, z, message in (
            (2 + 0j, 0.55 + 0j, "pole (2+0j) outside domain"),
            (0.55 + 0j, 2 + 0j, "evaluation point (2+0j) outside domain"),
            (0.1 + 0j, 0.55 + 0j, "pole (0.1+0j) outside domain"),
        ):
            with pytest.raises(PointOutsideDomain, match=re.escape(message)):
                gr.green_eval(domain, w, z)

    @pytest.mark.parametrize("fixture", ["unit_disc", "annulus_half", "blaschke_disc", "moebius_annulus", "annulus_thin"])
    def test_symmetry_invariant(self, fixture, request):
        # relative, so it also holds where |G| is tiny (the far side of a thin ring)
        domain = request.getfixturevalue(fixture)
        pts = interior_points(domain, 20)
        for z1, z2 in zip(pts[::2], pts[1::2]):
            if abs(z1 - z2) < 1e-3:
                continue
            a = gr.green_eval(domain, z1, z2).value
            b = gr.green_eval(domain, z2, z1).value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    @pytest.mark.parametrize("fixture", ["unit_disc", "annulus_half"])
    def test_interior_negativity(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        w = interior_points(domain, 1)[0]
        for z in interior_points(domain, 30, seed=11):
            if z != w:
                assert gr.green_eval(domain, w, z).value < 0

    def test_boundary_vanishing_scaled(self, annulus_half, annulus_thin):
        # |G| at distance 1e-6 inside the boundary is within the gradient
        # scale; no absolute slack, since on the far side of the thin ring
        # both |G| and eps |grad G| are below 1e-20
        eps = 1e-6
        for domain, w in ((annulus_half, 0.7 + 0j), (annulus_thin, 0.9 + 0j)):
            for p, nrm in geo.boundary_sample(domain, 64):
                z = p - eps * nrm
                v = gr.green_eval(domain, w, z)
                grad = math.hypot(v.grad_x, v.grad_y)
                assert abs(v.value) <= eps * grad * 1.01

    def test_harmonicity(self, annulus_half):
        # five-point Laplacian at h=1e-3 stays below 1e-3 away from the pole
        w = 0.7 + 0j
        h = 1e-3
        tested = 0
        for z in interior_points(annulus_half, 40, seed=3):
            # the 5-point error scales like h^2 / distance^4 to the nearest
            # singularity (pole or reflected pole), so keep clear of both
            if abs(z - w) < 0.25 or geo.boundary_distance(annulus_half, z) < 0.15:
                continue
            tested += 1
            stencil = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z])
            vals = gr.green_values_raw(annulus_half, w, stencil)
            lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4 * vals[4]) / (h * h)
            assert abs(lap) <= 1e-3
        assert tested >= 3

    def test_domain_monotonicity(self):
        # enlarging the domain pushes G down (more negative)
        small, large = Disc(0j, 1.0), Disc(0j, 2.0)
        for z in interior_points(small, 40):
            if abs(z) < 1e-3:
                continue
            g_small = gr.green_eval(small, 0j, z).value
            g_large = gr.green_eval(large, 0j, z).value
            assert g_large <= g_small + 1e-14

    def test_gradient_vs_finite_differences(self, annulus_half):
        w = 0.7 + 0j
        h = 1e-5
        for z in interior_points(annulus_half, 10, seed=5):
            if abs(z - w) < 0.05 or geo.boundary_distance(annulus_half, z) < 2 * h:
                continue
            v = gr.green_eval(annulus_half, w, z)
            gx = (gr.green_values_raw(annulus_half, w, np.asarray(z + h)) - gr.green_values_raw(annulus_half, w, np.asarray(z - h))) / (2 * h)
            gy = (gr.green_values_raw(annulus_half, w, np.asarray(z + 1j * h)) - gr.green_values_raw(annulus_half, w, np.asarray(z - 1j * h))) / (2 * h)
            assert v.grad_x == pytest.approx(float(gx), rel=1e-6, abs=1e-9)
            assert v.grad_y == pytest.approx(float(gy), rel=1e-6, abs=1e-9)

    def test_truncation_bound_small(self, annulus_half):
        v = gr.green_eval(annulus_half, 0.7 + 0j, -0.3 + 0.45j)
        assert 0 <= v.truncation_bound < 1e-10

    def test_moebius_pullback_matches_direct(self, unit_disc, blaschke_disc):
        # the Blaschke image of the unit disc is the unit disc itself, so the
        # pullback route must agree with the direct closed form
        w, z = 0.2 + 0.1j, -0.4 + 0.3j
        a = gr.green_eval(blaschke_disc, w, z)
        b = gr.green_eval(unit_disc, w, z)
        assert a.value == pytest.approx(b.value, abs=1e-13)
        assert a.grad_x == pytest.approx(b.grad_x, rel=1e-12)
        assert a.grad_y == pytest.approx(b.grad_y, rel=1e-12)


# G, f' and f'' on arrays, and the truncation bound of green_eval, as the
# per-image evaluator that preceded the one-pass field (commit a83d0f1)
# computed them, in float.hex: 16 points on each of seven domains, two of
# them next to the pole, where G takes the quotient form.
FROZEN = json.loads((Path(__file__).parent / "green_frozen_values.json").read_text())


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def _ring_points(n, q=0.05):
    """n points spread over Annulus(q) by two golden-ratio sequences."""
    k = np.arange(n)
    r = q + (1.0 - q) * (0.01 + 0.98 * ((k * 0.6180339887498949) % 1.0))
    return r * np.exp(2j * np.pi * ((k * 0.7548776662466927) % 1.0))


RAW = (
    gr.green_values_raw,
    lambda domain, w, z: gr.green_field(domain, w, z, ("f1",))[0],
    lambda domain, w, z: gr.green_field(domain, w, z, ("f2",))[0],
)


class TestOnePassField:
    @pytest.mark.parametrize("literal", list(FROZEN))
    def test_raw_functions_keep_frozen_bits(self, literal):
        domain, case = geo.parse_domain(literal), FROZEN[literal]
        z, g, f1_re, f1_im, f2_re, f2_im, _ = map(list, zip(*case["rows"]))
        got_g, got_f1, got_f2 = (f(domain, complex(case["w"]), np.array([complex(x) for x in z])) for f in RAW)
        assert _hex(got_g) == g
        assert (_hex(got_f1.real), _hex(got_f1.imag)) == (f1_re, f1_im)
        assert (_hex(got_f2.real), _hex(got_f2.imag)) == (f2_re, f2_im)

    @pytest.mark.parametrize("literal", list(FROZEN))
    def test_green_eval_is_the_raw_field(self, literal):
        # the value bit for bit, the gradient to 4 ulps, and the frozen bound
        domain, case = geo.parse_domain(literal), FROZEN[literal]
        w = complex(case["w"])
        for row in case["rows"]:
            z = complex(row[0])
            v = gr.green_eval(domain, w, z)
            assert float(v.value).hex() == float(gr.green_values_raw(domain, w, np.asarray(z))).hex()
            fp = complex(gr.green_field(domain, w, z, ("f1",))[0])
            assert abs(v.gradient - fp.conjugate()) <= 4 * math.ulp(abs(fp))
            assert float(v.truncation_bound).hex() == row[6]

    @pytest.mark.parametrize("shape", [(1,), (8191,), (8192,), (8193,), (97, 91)])
    def test_blocks_do_not_move_a_bit(self, shape):
        # sizes around the block of 8192 points and a grid of two blocks on
        # Annulus(0.05), with 13 images: the whole array, chunks of 1000
        # points, and single points around the block edges give the same bits
        domain, w = Annulus(0.05), 0.4 + 0.2j
        n = math.prod(shape)
        z = _ring_points(n).reshape(shape)
        flat = z.reshape(-1)
        probe = sorted({0, n - 1, 8190, 8191, 8192, 8193} & set(range(n)) | set(range(0, n, 997)))
        for f in RAW:
            whole = f(domain, w, z)
            assert whole.shape == shape
            chunks = np.concatenate([f(domain, w, flat[i : i + 1000]) for i in range(0, n, 1000)])
            assert whole.tobytes() == chunks.tobytes()
            single = np.array([f(domain, w, np.asarray(flat[i])) for i in probe])
            assert whole.reshape(-1)[probe].tobytes() == single.tobytes()

    def test_block_size_does_not_change_the_field(self, monkeypatch):
        domain, w = Annulus(0.05), 0.4 + 0.2j
        z = _ring_points(1000).reshape(40, 25)
        ref = [f(domain, w, z) for f in RAW]
        monkeypatch.setattr(gr, "_BLOCK", 96)
        assert [f(domain, w, z).tobytes() for f in RAW] == [r.tobytes() for r in ref]


PARTS = ("g", "f1", "f2", "tail")


class TestGreenField:
    @pytest.mark.parametrize("image", [False, True])
    @pytest.mark.parametrize(
        "base, w", [(Disc(0j, 1.0), 0.3 + 0.2j), (Annulus(0.3), 0.5 - 0.2j), (Annulus(0.8), 0.3 + 0.85j)]
    )
    def test_each_part_keeps_its_single_part_bits(self, base, w, image, monkeypatch):
        # every order and subset of the parts, on one point (0-d) and on 300
        # points in blocks of 96: a part has the bits it has when read alone
        # (Annulus(0.3) sums K = 3 images on each side, Annulus(0.8) K = 1)
        monkeypatch.setattr(gr, "_BLOCK", 96)
        zeta = _ring_points(300, getattr(base, "q", 0.0))
        domain, z = base, zeta
        if image:  # pole and points pushed onto the image; f'' is pushed with f'
            coeffs = (1 + 0j, 0.15 + 0j, 0.15 + 0j, 1 + 0j)
            domain, z, w = MoebiusImage(base, *coeffs), geo.moebius_forward(coeffs, zeta), geo.moebius_forward(coeffs, w)
        for points in (z, np.asarray(z[7])):
            alone = {p: gr.green_field(domain, w, points, (p,))[0] for p in PARTS}
            for p, raw in zip(PARTS, RAW):
                assert raw(domain, w, points).tobytes() == alone[p].tobytes()
            for k in range(2, len(PARTS) + 1):
                for parts in itertools.permutations(PARTS, k):
                    got = gr.green_field(domain, w, points, parts)
                    assert [v.tobytes() for v in got] == [alone[p].tobytes() for p in parts], parts


def _log_prime(t, q):
    """log|P|, P'/P and (P'/P)' for the canonical product
    P(t) = (1 - t) prod_k (1 - q^2k t)(1 - q^2k / t), k = 1..80."""
    lg, ld, ld2 = np.log(np.abs(1.0 - t)), -1.0 / (1.0 - t), -1.0 / (1.0 - t) ** 2
    for k in range(1, 81):
        s = q ** (2 * k)
        lg = lg + np.log(np.abs(1.0 - s * t)) + np.log(np.abs(1.0 - s / t))
        ld = ld - s / (1.0 - s * t) + s / (t * (t - s))
        ld2 = ld2 - s * s / (1.0 - s * t) ** 2 - s * (2.0 * t - s) / (t * (t - s)) ** 2
    return lg, ld, ld2


def _product_robin(q, w):
    """Robin constant of Annulus(q) at w from the canonical product, an
    independent referee for robin_capacity.  With s = q^2k, carried until
    s < 1e-17, and x = |w|^2:
        sum_k [2 log(1 - s) - log(1 - s x) - log(1 - s / x)]
            - log(1 - x) - log^2|w| / log q,
    every factor taken as -expm1 of its logarithm, so that it keeps its
    relative accuracy where it is close to 0 (s near 1 on a thin ring)."""
    lq, lw = math.log(q), math.log(abs(w))
    a = 2.0 * lq * np.arange(1, math.ceil(math.log(1e-17) / (2.0 * lq)) + 1)
    terms = 2.0 * np.log(-np.expm1(a)) - np.log(-np.expm1(a + 2.0 * lw)) - np.log(-np.expm1(a - 2.0 * lw))
    return math.fsum(terms) - math.log(-math.expm1(2.0 * lw)) - lw * lw / lq


def _product_field(q, w, z):
    """G, f' and f'' assembled from the canonical product, an independent
    reference: it sums O(1) logarithms, so it is accurate only where G is."""
    lw, lq = math.log(abs(w)), math.log(q)
    a, a1, a2 = _log_prime(z / w, q)
    b, b1, b2 = _log_prime(z * np.conj(w), q)
    g = a - b + lw - lw * np.log(np.abs(z)) / lq
    d1 = a1 / w - np.conj(w) * b1 - (lw / lq) / z
    d2 = a2 / (w * w) - np.conj(w) ** 2 * b2 + (lw / lq) / (z * z)
    return g, d1, d2


class TestAnnulusField:
    @pytest.mark.parametrize("q, w", [(0.5, 0.7 + 0j), (0.5, -0.6 + 0.2j), (0.3, 0.55 + 0.55j)])
    def test_matches_product_where_accurate(self, q, w):
        domain = Annulus(q)
        z = np.array([p for p in interior_points(domain, 400, seed=13) if abs(p - w) > 0.05])
        ref_g, ref_d1, ref_d2 = _product_field(q, w, z)
        keep = np.abs(ref_g) > 0.05  # O(1) values: the product is accurate there
        assert np.count_nonzero(keep) > 50
        z = z[keep]
        for new, ref in (
            (gr.green_values_raw(domain, w, z), ref_g[keep]),
            (gr.green_field(domain, w, z, ("f1",))[0], ref_d1[keep]),
            (gr.green_field(domain, w, z, ("f2",))[0], ref_d2[keep]),
        ):
            assert np.max(np.abs(new - ref) / np.abs(ref)) <= 1e-12

    def test_thin_ring_far_side(self, annulus_thin):
        # mpmath, 60 digits, canonical product carried to 1e-65, q = 0.8 and
        # w = 0.9 as doubles; the far values sit near 1e-19
        z = np.array([0.85j, -0.82 + 0.1j, 0.95 + 0j])
        ref = np.array([-3.733530634891261e-10, -3.065177003464952e-19, -0.8764809768209325])
        got = gr.green_values_raw(annulus_thin, 0.9 + 0j, z)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_term_count_from_q(self):
        assert [gr.annulus_dual_terms(q) for q in (0.8, 0.5, 0.3)] == [1, 2, 3]
        assert gr.annulus_dual_terms(1e-6) > gr.annulus_dual_terms(0.01) > 3


class TestRobinCapacity:
    def test_disc_radius_two(self):
        assert gr.robin_capacity(Disc(0j, 2.0), 0j).capacity == pytest.approx(0.5, abs=1e-15)

    def test_disc_offcenter(self, unit_disc):
        c = gr.robin_capacity(unit_disc, 0.5 + 0j)
        assert c.capacity == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert c.robin_constant == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize(
        "w, ref",
        [
            # 1 / (1 - w^2) at the doubles w, 40 digits (mpmath)
            (1 - 1e-6, "500000.2499857471678048114425714449692815"),
            (1 - 1e-9, "500000014.3909661317714752215111853092743"),
        ],
    )
    def test_disc_next_to_the_circle(self, unit_disc, w, ref):
        # (1 - r)(1 + r) is exact there, where 1 - r^2 loses the digits of r^2
        got = gr.robin_capacity(unit_disc, complex(w)).capacity
        assert abs(Decimal(got) - Decimal(ref)) <= Decimal(4e-16) * Decimal(ref)

    def test_polar_complement_zero(self):
        c = gr.robin_capacity(PolarComplement(), 1 + 0j)
        assert c.capacity == 0.0
        assert c.robin_constant == -math.inf

    def test_polygon_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            gr.robin_capacity(unit_square, 0.5 + 0.5j)

    @pytest.mark.parametrize(
        "literal, w", [(lit, w) for lit, w in vf.default_plan() if lit.startswith("annulus:")]
    )
    def test_annulus_matches_product_on_plan(self, literal, w):
        domain = geo.parse_domain(literal)
        got = gr.robin_capacity(domain, w).capacity
        ref = math.exp(_product_robin(domain.q, w))
        assert abs(got - ref) <= 1e-13 * ref

    def test_moebius_annulus_matches_product(self, moebius_annulus):
        w = 0.75 + 0j
        pb = geo.pull_back(moebius_annulus, w)
        zeta, scale = pb.zeta_w, abs(geo.moebius_fprime(pb.coeffs, pb.zeta_w))
        got = gr.robin_capacity(moebius_annulus, w).capacity
        ref = math.exp(_product_robin(0.5, zeta)) / scale
        assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("q", [0.05, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("frac", [0.02, 0.5, 0.98])
    def test_annulus_matches_product_across_the_ring(self, q, frac):
        # poles at 2%, 50% and 98% of the width; on the thin rings the
        # product needs about 2,000 and 20,000 factors
        w = (q + frac * (1.0 - q)) * complex(math.cos(1.3), math.sin(1.3))
        got = gr.robin_capacity(Annulus(q), w).capacity
        ref = math.exp(_product_robin(q, w))
        assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("fixture", ["unit_disc", "annulus_half", "blaschke_disc", "moebius_annulus"])
    def test_capacity_delta_product(self, fixture, request):
        # c * boundary_distance <= 1, equality only for a centered disc
        domain = request.getfixturevalue(fixture)
        for w in interior_points(domain, 15):
            c = gr.robin_capacity(domain, w).capacity
            delta = geo.boundary_distance(domain, w)
            assert c * delta <= 1.0 + 1e-9

    def test_centered_disc_saturates(self):
        for radius in (0.5, 1.0, 2.0):
            c = gr.robin_capacity(Disc(0.3 + 0.2j, radius), 0.3 + 0.2j).capacity
            assert c * radius == pytest.approx(1.0, abs=1e-9)


class TestDiscMaxGreen:
    def test_radial_symmetry(self, unit_disc):
        assert gr.disc_max_green(unit_disc, 0j, 0.6) == pytest.approx(math.log(0.6), abs=1e-8)

    def test_tangency_case(self, unit_disc):
        # r equals the full boundary distance: the closed disc touches the
        # boundary, where G = 0, so the maximum is exactly 0
        assert gr.disc_max_green(unit_disc, 0.5 + 0j, 0.5) == 0.0

    def test_touching_disc_is_zero(self, annulus_thin, moebius_annulus):
        for domain, w in ((Disc(0j, 1.0), 0.3 + 0.4j), (annulus_thin, 0.9 + 0j), (moebius_annulus, 0.75 + 0.1j)):
            delta = geo.boundary_distance(domain, w)
            assert gr.disc_max_green(domain, w, delta) == 0.0
            # just inside, the maximum is negative and capped at 0
            assert gr.disc_max_green(domain, w, 0.999 * delta) < 0

    def test_radius_guard(self, unit_disc):
        with pytest.raises(InvalidArgument):
            gr.disc_max_green(unit_disc, 0.5 + 0j, 0.6)

    def test_annulus_value_negative(self, annulus_half):
        value = gr.disc_max_green(annulus_half, 0.7 + 0j, 0.15)
        assert value < 0

    def test_upper_bound_property(self, unit_disc):
        # the returned value dominates G on a dense independent sampling, with
        # no slack beyond its own rounding allowance
        w, r = 0.3 + 0.2j, 0.4
        bound = gr.disc_max_green(unit_disc, w, r)
        theta = np.linspace(0, 2 * math.pi, 1000, endpoint=False) + 0.123
        vals = gr.green_values_raw(unit_disc, w, w + r * np.exp(1j * theta))
        assert float(np.max(vals)) <= bound

    # log(rho / (1 - t^2 - t rho)) at the doubles w and r, 40 digits
    # (mpmath): t = |w - centre| / R and rho = r / R on the disc (centre,
    # R); the Moebius map is an automorphism, so its image is the unit disc
    DISC_MAXIMA = [
        ("disc:0,0,1", 0j, 0.25, "-1.386294361119890618834464242916353136151"),
        ("disc:0,0,1", 0j, 0.5, "-0.6931471805599453094172321214581765680755"),
        ("disc:0,0,1", 0j, 0.8, "-0.223143551314209700255143859052009022937"),
        ("disc:0,0,1", 0j, 0.999, "-0.001000500333583534389210469441380890239765"),
        ("disc:0,0,1", 0.5 + 0j, 0.125, "-1.704748092238425234644711456506952731746"),
        ("disc:0,0,1", 0.5 + 0j, 0.25, "-0.9162907318741550651835272117680110714501"),
        ("disc:0,0,1", 0.5 + 0j, 0.4, "-0.3184537311185345401132228073299277219023"),
        ("disc:0,0,1", 0.5 + 0j, 0.4995, "-0.001500375375234582747141361236701765697362"),
        ("disc:0,0,1", 0.3 + 0.4j, 0.125, "-1.704748092238425216477425599004390010076"),
        ("disc:0,0,1", 0.3 + 0.4j, 0.25, "-0.9162907318741550429790667192648788331671"),
        ("disc:0,0,1", 0.3 + 0.4j, 0.4, "-0.3184537311185345118530003623259401594655"),
        ("disc:0,0,1", 0.3 + 0.4j, 0.4995, "-0.001500375375234549468192327245250589459063"),
        ("disc:0.3,0.2,2", 0.3 + 0.2j, 0.5, "-1.386294361119890618834464242916353136151"),
        ("disc:0.3,0.2,2", 0.3 + 0.2j, 1.0, "-0.6931471805599453094172321214581765680755"),
        ("disc:0.3,0.2,2", 0.3 + 0.2j, 1.6, "-0.223143551314209700255143859052009022937"),
        ("disc:0.3,0.2,2", 0.3 + 0.2j, 1.998, "-0.001000500333583534389210469441380890239765"),
        ("disc:0.3,0.2,2", 1 + 0.5j, 0.309605672353, "-1.637513278206618299467323937498997041679"),
        ("disc:0.3,0.2,2", 1 + 0.5j, 0.619211344707, "-0.8674318005630933894379480070290480917001"),
        ("disc:0.3,0.2,2", 1 + 0.5j, 0.990738151531, "-0.2965405925135587783997036054645738056628"),
        ("disc:0.3,0.2,2", 1 + 0.5j, 1.23718426672, "-0.001381216511957109638237492740875966704659"),
        ("disc:0.3,0.2,2", -1.2 + 0.1j, 0.124167590541, "-1.833380257705488446411672687465125940129"),
        ("disc:0.3,0.2,2", -1.2 + 0.1j, 0.248335181081, "-1.012206117204173390456142835071934878649"),
        ("disc:0.3,0.2,2", -1.2 + 0.1j, 0.39733628973, "-0.3631949855081914878334100620864968112677"),
        ("disc:0.3,0.2,2", -1.2 + 0.1j, 0.496173691801, "-0.001751882792386160376295705025409668465115"),
        (BLASCHKE, 0.2 + 0.1j, 0.194098300562, "-1.541334729327617925921107784340431632201"),
        (BLASCHKE, 0.2 + 0.1j, 0.388196601125, "-0.7991305611846277388248509369717341483064"),
        (BLASCHKE, 0.2 + 0.1j, 0.621114561799, "-0.2668937595987637250560432350567821618168"),
        (BLASCHKE, 0.2 + 0.1j, 0.775616809047, "-0.001224082136275661883074078246589669012968"),
        (BLASCHKE, 0.6 - 0.3j, 0.0822949016874, "-1.793834178822131439851820808445802801425"),
        (BLASCHKE, 0.6 - 0.3j, 0.164589803375, "-0.9823856886061596218977934958075423843362"),
        (BLASCHKE, 0.6 - 0.3j, 0.2633436854, "-0.3490394363209770707191885055551734064554"),
        (BLASCHKE, 0.6 - 0.3j, 0.328850427143, "-0.001671095828995413831253676683174641708676"),
        (BLASCHKE, -0.9 + 0j, 0.025, "-1.902107526396920070755011092382604310385"),
        (BLASCHKE, -0.9 + 0j, 0.0499999999999, "-1.064710736995048764286752568962301555602"),
        (BLASCHKE, -0.9 + 0j, 0.0799999999999, "-0.3886579897937955395469395518390929690203"),
        (BLASCHKE, -0.9 + 0j, 0.0998999999999, "-0.001900095578319409148888238210492033802281"),
    ]

    @pytest.mark.parametrize("literal, w, r, ref", DISC_MAXIMA)
    def test_disc_cores_meet_the_closed_form(self, literal, w, r, ref):
        # radii 0.25 to 0.999 of delta: the result lies at or above the
        # maximum, by at most twice its rounding allowance
        domain = geo.parse_domain(literal)
        assert 0.24 * geo.boundary_distance(domain, w) < r < geo.boundary_distance(domain, w)
        got = gr.disc_max_green(domain, w, r)
        value, allowance = gr._disc_max(domain, w, r)
        assert got == value + allowance
        assert Decimal(ref) <= Decimal(got) <= Decimal(ref) + 2 * Decimal(allowance)

    @staticmethod
    def _scan_max(domain, w, r, n=1 << 16):
        """G on n angles of the circle, and the largest value once the top
        sample's two intervals are scanned again at 4097 angles."""
        step = 2 * math.pi / n
        theta = step * (np.arange(n) + 0.37)
        samples = gr.green_values_raw(domain, w, w + r * np.exp(1j * theta))
        fine = theta[np.argmax(samples)] + np.linspace(-step, step, 4097)
        finer = gr.green_values_raw(domain, w, w + r * np.exp(1j * fine))
        return samples, max(float(np.max(samples)), float(np.max(finer)))

    @pytest.mark.parametrize("literal", ["annulus:0.3", "annulus:0.5", "annulus:0.8", "annulus:0.95", MOEBIUS_RING])
    @pytest.mark.parametrize("frac", [0.02, 0.5, 0.95])
    @pytest.mark.parametrize("scale", [0.5, 0.999])
    def test_annulus_cores_dominate_a_dense_scan(self, literal, frac, scale):
        # poles at 2%, 50% and 95% of the base ring's width, off every axis
        domain = geo.parse_domain(literal)
        core, coeffs = geo.flatten_moebius(domain)
        zeta = (core.q + frac * (1 - core.q)) * complex(math.cos(1.3), math.sin(1.3))
        w = complex(geo.moebius_forward(coeffs, zeta))
        r = scale * geo.boundary_distance(domain, w)
        got = gr.disc_max_green(domain, w, r)
        _, allowance = gr._disc_max(domain, w, r)
        samples, top = self._scan_max(domain, w, r)
        assert float(np.max(samples)) <= got
        assert top <= got <= top + 2 * allowance
        assert allowance < 1e-11  # rounding-sized: Newton ran to its end

    @pytest.mark.parametrize(
        "q, w",
        [
            # r = 0.99 delta from 0.71: the circle passes 0.002 from the inner
            # circle and 0.08 from the outer one, a local maximum next to each
            (0.5, 0.71 + 0j),
            (0.5, 0.71 * complex(math.cos(0.4), math.sin(0.4))),
            # from 0.52 in Annulus(0.05) the circle nearly touches both
            # circles; the peak at the small one is the higher, and narrower
            # than the scan's spacing, so the best sample is at the other one
            (0.05, 0.52 * complex(math.cos(2.9), math.sin(2.9))),
        ],
    )
    def test_circle_with_two_local_maxima(self, q, w):
        domain = Annulus(q)
        r = 0.99 * geo.boundary_distance(domain, w)
        samples, top = self._scan_max(domain, w, r)
        assert np.count_nonzero((samples > np.roll(samples, 1)) & (samples > np.roll(samples, -1))) == 2
        got = gr.disc_max_green(domain, w, r)
        _, allowance = gr._disc_max(domain, w, r)
        assert top <= got <= top + 2 * allowance

    def test_value_keeps_its_digits_next_to_the_circle(self, unit_disc):
        # delta - r = 5e-10: the maximum, -1.5e-9, to rounding relative to
        # itself (log(|c'| + rho') would keep it only to 1e-16 absolute);
        # the reference is log(rho / (1 - t^2 - t rho)), 40 digits (mpmath)
        value, _ = gr._disc_max(unit_disc, 0.5 + 0j, 0.4999999995)
        ref = Decimal("-1.499999957952102784025630881378005614876e-9")
        assert abs(Decimal(value) - ref) <= Decimal(4e-16) * abs(ref)

    @pytest.mark.parametrize(
        "literal, passes",
        [("disc:0,0,1", 0), ("disc:0.3,0.2,2", 0), (BLASCHKE, 0), ("annulus:0.3", 4), ("annulus:0.8", 4), (MOEBIUS_RING, 4)],
    )
    def test_field_passes_per_call(self, literal, passes, monkeypatch):
        # none on a disc core; on an annulus core the scan and a few Newton
        # steps, however many local maxima start them
        calls = []

        def counted(*args, _fn=gr.green_field):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(gr, "green_field", counted)
        domain = geo.parse_domain(literal)
        core, coeffs = geo.flatten_moebius(domain)
        q = getattr(core, "q", 0.0)
        for frac, angle in itertools.product((0.02, 0.5, 0.95), (0.0, 0.4, 1.3, 2.9)):
            w = complex(geo.moebius_forward(coeffs, (q + frac * (1 - q)) * complex(math.cos(angle), math.sin(angle))))
            calls.clear()
            gr.disc_max_green(domain, w, 0.5 * geo.boundary_distance(domain, w))
            assert len(calls) <= passes
            assert all(args[0] is domain for args in calls)


class TestNewton:
    """green._newton, the one bracketed Newton of the package: the slice
    roots of sublevel and the saddle of critical_points."""

    @staticmethod
    def _solve(fun, lo, hi, x, tol, noise=0.0):
        """The roots, and the points at which each sweep read fun."""
        seen = []

        def recorded(x, idx):
            seen.append((x.copy(), idx.copy()))
            return fun(x)

        return gr._newton(recorded, lo, hi, x, tol, noise), seen

    @staticmethod
    def _cubic(x):
        return x**3 + x - 1.0, 3.0 * x * x + 1.0

    @staticmethod
    def _triple(x):  # a triple root at 0.5, where the slope vanishes too
        return (x - 0.5) ** 3, 3.0 * (x - 0.5) ** 2

    def test_a_step_that_leaves_the_bracket_is_a_bisection(self):
        # Newton on arctan overshoots from 5 (to -26.4) and from -2.5 (to 8.4)
        arctan = lambda x: (np.arctan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2))
        root, seen = self._solve(arctan, [-10.0], [10.0], [5.0], 1e-12)
        points = [float(x[0]) for x, _ in seen]
        assert points[:3] == [5.0, -2.5, 1.25]  # the midpoints of [-10, 5] and [-2.5, 5]
        assert all(-10.0 <= p <= 10.0 for p in points)
        assert root[0] == pytest.approx(0.3, abs=1e-15)

    def test_an_exact_zero_is_kept(self):
        # g = g' = 0 at the start: the step is nan, and the start is the root
        root, seen = self._solve(self._triple, [0.0], [1.0], [0.5], 0.0)
        assert root[0] == 0.5 and len(seen) == 1

    def test_each_problem_is_done_on_its_own(self):
        # the first starts on its root, so later sweeps read only the second
        root, seen = self._solve(self._triple, [0.0, 0.0], [1.0, 1.0], [0.5, 0.9], 0.0)
        assert root[0] == 0.5 and abs(root[1] - 0.5) < 1e-5
        assert seen[0][1].tolist() == [0, 1] and all(idx.tolist() == [1] for _, idx in seen[1:])
        assert all(0.5 <= x[-1] <= 1.0 for x, _ in seen)

    @pytest.mark.parametrize("noise", [1e-6, 2e-6, 1e-3])
    def test_stops_on_the_noise_rule(self, noise):
        root, seen = self._solve(self._cubic, [0.0], [2.0], [2.0], 0.0, noise)
        values = [abs(float(self._cubic(x)[0][0])) for x, _ in seen]
        assert all(v > noise for v in values[:-1]) and values[-1] <= noise
        _, exhaustive = self._solve(self._cubic, [0.0], [2.0], [2.0], 0.0)
        assert len(seen) < len(exhaustive)
        assert root[0] == pytest.approx(0.6823278038280193, rel=1e-3)

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_stops_on_the_tol_rule(self, tol):
        root, seen = self._solve(self._cubic, [0.0], [2.0], [2.0], tol)
        points = [float(x[0]) for x, _ in seen] + [float(root[0])]
        steps = np.abs(np.diff(points))
        assert np.all(steps[:-1] > tol) and steps[-1] <= tol
        assert root[0] == pytest.approx(0.6823278038280193, abs=tol)

    def test_bisections_stop_on_the_tol_rule(self):
        # f' = 0 everywhere: every step is a bisection of the bracket, the
        # k-th of length 2^-(k+1) from 0.5 in [0, 1], and the ninth is tol
        root, seen = self._solve(lambda x: (x - 0.3, np.zeros_like(x)), [0.0], [1.0], [0.5], 2.0**-10)
        assert len(seen) == 9 and abs(root[0] - 0.3) <= 2.0**-10

    def test_convergence_failure_after_the_sweeps(self, monkeypatch):
        monkeypatch.setattr(gr, "_SWEEPS", 3)
        with pytest.raises(ConvergenceFailure, match="2 roots not found in 3 Newton sweeps"):
            gr._newton(lambda x, idx: self._cubic(x), [0.0, 0.0], [2.0, 2.0], [2.0, 1.5], 0.0)


class TestCriticalPoints:
    def test_disc_empty(self, unit_disc):
        assert gr.critical_points(unit_disc, 0.3 + 0j) == []

    # Level of the Annulus(0.8) saddle for the pole 0.9, with q and w the
    # doubles 0.8 and 0.9: mpmath at 60 digits, findroot on dG/dx along the
    # negative real axis, G from the canonical product carried to 1e-70.
    THIN_SADDLE_LEVEL = -2.46388416433516e-19

    def test_annulus_single_saddle(self, annulus_half, annulus_thin):
        for domain, w, level in ((annulus_half, 0.7 + 0j, None), (annulus_thin, 0.9 + 0j, self.THIN_SADDLE_LEVEL)):
            cps = gr.critical_points(domain, w)
            assert len(cps) == 1
            cp = cps[0]
            assert cp.gradient_residual <= 1e-9
            assert abs(cp.location.imag) < 1e-8  # symmetry pins it to the real axis
            assert cp.location.real < 0
            assert domain.q < abs(cp.location) < 1.0
            assert cp.order == 2
            assert cp.level < 0
            if level is not None:
                assert cp.level == pytest.approx(level, rel=1e-10)

    @staticmethod
    def _passes(domain, w, monkeypatch):
        """The green_field passes of one critical_points call."""
        calls = []

        def counted(*args, _fn=gr.green_field):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(gr, "green_field", counted)
        gr.critical_points(domain, w)
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("q, w", [(0.5, 0.7), (0.3, 0.55), (0.8, 0.9)])
    def test_field_passes_on_the_plan(self, q, w, monkeypatch):
        # one pass for the bracket ends, the Newton sweeps, one for the point
        assert self._passes(Annulus(q), w + 0j, monkeypatch) <= 8

    def test_field_passes_across_the_rings(self, monkeypatch):
        # 243 poles: nine rings, nine radii across each, three angles
        passes = []
        for q in np.linspace(0.02, 0.95, 9):
            for frac in np.linspace(0.1, 0.9, 9):
                for angle in (0.0, 1.0, 2.5):
                    w = (q + frac * (1 - q)) * complex(math.cos(angle), math.sin(angle))
                    passes.append(self._passes(Annulus(float(q)), w, monkeypatch))
        assert len(passes) == 243 and max(passes) <= 16

    def test_thin_ring_underflow_refused(self):
        # across Annulus(0.99) G is about exp(-pi^2 / log(1/q)) = exp(-982),
        # which no double holds: refused, with the cause named
        q = 0.99
        for frac in (0.2, 0.5, 0.8):
            with pytest.raises(ConvergenceFailure, match="below the double range"):
                gr.critical_points(Annulus(q), q + frac * (1 - q) + 0j)

    def test_level_between_extremes(self, annulus_half):
        cps = gr.critical_points(annulus_half, 0.7 + 0j)
        cp = cps[0]
        t0 = cp.level
        # saddle signature: along the radial section through z0 the level is
        # the minimum, along the angular circle it is the maximum
        radii = np.linspace(0.55, 0.95, 400)
        section = radii * np.exp(1j * math.pi)
        radial = gr.green_values_raw(annulus_half, 0.7 + 0j, section)
        assert float(np.min(radial)) == pytest.approx(t0, abs=1e-9)
        assert float(np.max(radial)) > t0
        circle = abs(cp.location) * np.exp(1j * np.linspace(0.6 * math.pi, 1.4 * math.pi, 400))
        angular = gr.green_values_raw(annulus_half, 0.7 + 0j, circle)
        assert float(np.max(angular)) == pytest.approx(t0, abs=1e-9)
        assert float(np.min(angular)) < t0

    def test_moebius_annulus_transported(self, annulus_half, moebius_annulus):
        core, coeffs = geo.flatten_moebius(moebius_annulus)
        w_img = complex(geo.moebius_forward(coeffs, 0.7 + 0j))
        cps_img = gr.critical_points(moebius_annulus, w_img)
        cps_base = gr.critical_points(annulus_half, 0.7 + 0j)
        assert len(cps_img) == len(cps_base) == 1
        expect = complex(geo.moebius_forward(coeffs, cps_base[0].location))
        assert abs(cps_img[0].location - expect) < 1e-8
        assert cps_img[0].level == pytest.approx(cps_base[0].level, abs=1e-12)


class TestBoundaryFlux:
    def test_disc_center(self, unit_disc):
        assert abs(gr.boundary_flux(unit_disc, 0j, 256) - 2 * math.pi) <= 1e-6

    def test_disc_offcenter(self, unit_disc):
        assert abs(gr.boundary_flux(unit_disc, 0.5 + 0j, 256) - 2 * math.pi) <= 1e-6

    def test_annulus_richardson(self, annulus_half):
        # two resolutions, both well inside tolerance (the error floor here
        # is rounding, orders below the 1e-4 contract)
        f1 = gr.boundary_flux(annulus_half, 0.7 + 0j, 512)
        f2 = gr.boundary_flux(annulus_half, 0.7 + 0j, 1024)
        assert abs(f1 - 2 * math.pi) <= 1e-4
        assert abs(f2 - 2 * math.pi) <= 1e-6

    def test_annulus_components_positive(self, annulus_half):
        # each boundary component contributes positive flux
        w = 0.7 + 0j
        for pts, nrm, length in (
            (np.exp(2j * math.pi * np.arange(512) / 512), np.exp(2j * math.pi * np.arange(512) / 512), 2 * math.pi),
            (0.5 * np.exp(2j * math.pi * np.arange(512) / 512), -np.exp(2j * math.pi * np.arange(512) / 512), math.pi),
        ):
            g_n = np.real(gr.green_field(annulus_half, w, pts, ("f1",))[0] * nrm)
            flux = float(np.mean(g_n)) * length
            assert flux > 0

    def test_node_minimum(self, unit_disc):
        with pytest.raises(ValueError):
            gr.boundary_flux(unit_disc, 0j, 32)

    @pytest.mark.parametrize(
        "fixture, w",
        [("blaschke_disc", 0.2 + 0.1j), ("moebius_annulus", 0.75 + 0j), ("nested_moebius", 1 / 0.65 + 0j), (None, 1.5 + 2.5j)],
        ids=["blaschke_disc", "moebius_annulus", "nested_moebius", "offset_disc"],
    )
    def test_images_and_offset_disc(self, fixture, w, request):
        # the trapezoid nodes of the exact image circles, and f' pushed
        # through the inverse map: the images need no refusal
        domain = request.getfixturevalue(fixture) if fixture else Disc(1 + 2j, 3.0)
        assert abs(gr.boundary_flux(domain, w, 1024) - 2 * math.pi) <= 1e-13
