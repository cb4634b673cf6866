import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suita_lab import geometry as geo
from suita_lab.errors import InvalidDomain, PointOutsideDomain, UnsupportedDomain
from suita_lab.geometry import (
    Annulus,
    Disc,
    MoebiusImage,
    PolarComplement,
    Polygon,
    boundary_distance,
    boundary_sample,
    contains,
    domain_literal,
    parse_domain,
)

from conftest import interior_points


class TestContains:
    def test_annulus(self, annulus_half):
        assert contains(annulus_half, 0.7 + 0j)
        assert not contains(annulus_half, 0.3 + 0j)
        assert not contains(annulus_half, 1.0 + 0j)  # boundary counts as outside

    def test_disc(self, unit_disc):
        assert not contains(unit_disc, 1.2 + 0j)
        assert contains(unit_disc, 0.99 + 0j)

    def test_polar_complement(self):
        pc = PolarComplement()
        assert contains(pc, 0.3 + 0j)
        assert not contains(pc, 0j)

    def test_square(self, unit_square):
        assert contains(unit_square, 0.5 + 0.5j)
        assert not contains(unit_square, 1.5 + 0.5j)

    def test_moebius_pullback(self, blaschke_disc):
        # The Blaschke automorphism maps the unit disc onto itself.
        assert contains(blaschke_disc, 0.9 + 0j)
        assert not contains(blaschke_disc, 1.1 + 0j)


class TestBoundaryDistance:
    def test_disc(self, unit_disc):
        assert boundary_distance(unit_disc, 0.3 + 0j) == pytest.approx(0.7, abs=1e-15)

    def test_annulus(self, annulus_half):
        assert boundary_distance(annulus_half, 0.7 + 0j) == pytest.approx(0.2, abs=1e-15)
        assert boundary_distance(annulus_half, 0.55 + 0j) == pytest.approx(0.05, abs=1e-15)

    def test_square(self, unit_square):
        assert boundary_distance(unit_square, 0.5 + 0.5j) == pytest.approx(0.5, abs=1e-15)
        assert boundary_distance(unit_square, 0.25 + 0.5j) == pytest.approx(0.25, abs=1e-15)

    def test_outside_raises(self, unit_disc):
        with pytest.raises(PointOutsideDomain):
            boundary_distance(unit_disc, 2 + 0j)

    def test_polar_complement_infinite(self):
        assert boundary_distance(PolarComplement(), 1 + 0j) == math.inf

    def test_moebius_certified_lower_bound(self, blaschke_disc):
        # image = unit disc, so the distance is known exactly
        w = 0.2 + 0.1j
        d = boundary_distance(blaschke_disc, w)
        exact = 1.0 - abs(w)
        assert d <= exact
        assert d == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("fixture", ["blaschke_disc", "moebius_annulus", "nested_moebius"])
    def test_moebius_closed_form_against_dense_sample(self, fixture, request):
        # The image circles give the distance in closed form; 2^16 boundary
        # samples per circle, refined around the best one, bound it above.
        domain = request.getfixturevalue(fixture)
        core, coeffs = geo.flatten_moebius(domain)
        circles = [(core.center, core.radius)] if isinstance(core, Disc) else [(0j, 1.0), (0j, core.q)]
        n = 1 << 16
        theta = 2 * np.pi * np.arange(n) / n
        for w in interior_points(domain, 10):
            sampled = math.inf
            for center, radius in circles:
                d = np.abs(geo.moebius_forward(coeffs, center + radius * np.exp(1j * theta)) - w)
                k = int(np.argmin(d))
                fine = theta[k] + (2 * np.pi / n) * np.linspace(-1.0, 1.0, 4097)
                d_fine = np.abs(geo.moebius_forward(coeffs, center + radius * np.exp(1j * fine)) - w)
                sampled = min(sampled, float(np.min(d)), float(np.min(d_fine)))
            delta = boundary_distance(domain, w)
            assert delta <= sampled
            assert sampled - delta <= 1e-11 * sampled

    @pytest.mark.parametrize("fixture", ["blaschke_disc", "moebius_annulus", "nested_moebius"])
    def test_moebius_circles_carry_the_mapped_boundary(self, fixture, request):
        # circle i holds the image of the core's boundary component i
        domain = request.getfixturevalue(fixture)
        core, coeffs = geo.flatten_moebius(domain)
        base = [(core.center, core.radius)] if isinstance(core, Disc) else [(0j, 1.0), (0j, core.q)]
        images = geo.moebius_circles(domain)
        assert len(images) == len(base)
        theta = 2 * np.pi * np.arange(256) / 256
        for (c0, rho), (center, radius) in zip(base, images):
            pts = geo.moebius_forward(coeffs, c0 + rho * np.exp(1j * theta))
            assert np.max(np.abs(np.abs(pts - center) - radius)) <= 1e-13 * radius


class TestBoundarySample:
    def test_disc_angles(self, unit_disc):
        # circles start at angle 0, equally spaced
        samples = boundary_sample(unit_disc, 8)
        for k, (p, nrm) in enumerate(samples):
            expect = cmath.exp(2j * math.pi * k / 8)
            assert p == pytest.approx(expect, abs=1e-12)
            assert nrm == pytest.approx(expect, abs=1e-12)

    def test_annulus_split_and_normals(self, annulus_half):
        samples = boundary_sample(annulus_half, 16)
        outer = [s for s in samples if abs(abs(s[0]) - 1.0) < 1e-12]
        inner = [s for s in samples if abs(abs(s[0]) - 0.5) < 1e-12]
        assert len(outer) == 11  # 16/(1+q) rounded
        assert len(inner) == 5
        for p, nrm in outer:
            assert nrm == pytest.approx(p, abs=1e-12)
        for p, nrm in inner:
            # outward from the domain = toward the origin
            assert nrm == pytest.approx(-p / abs(p), abs=1e-12)

    def test_square_two_per_side(self, unit_square):
        samples = boundary_sample(unit_square, 8)
        assert len(samples) == 8
        sides = {(0 - 1j): 0, (1 + 0j): 0, (0 + 1j): 0, (-1 + 0j): 0}
        for _, nrm in samples:
            key = complex(round(nrm.real), round(nrm.imag))
            sides[key] += 1
        assert all(v == 2 for v in sides.values())

    def test_minimum_count(self, unit_disc):
        with pytest.raises(ValueError):
            boundary_sample(unit_disc, 4)

    def test_polar_unsupported(self):
        with pytest.raises(UnsupportedDomain):
            boundary_sample(PolarComplement(), 16)

    @pytest.mark.parametrize(
        "fixture", ["unit_disc", "annulus_half", "unit_square", "blaschke_disc", "moebius_annulus", "nested_moebius"]
    )
    def test_clear_disc_invariant(self, fixture, request):
        # no sampled boundary point may enter the open disc of radius
        # boundary_distance(w) around any interior w
        domain = request.getfixturevalue(fixture)
        samples = boundary_sample(domain, 4096)
        pts = np.array([p for p, _ in samples])
        for w in interior_points(domain, 25):
            delta = boundary_distance(domain, w)
            assert np.min(np.abs(pts - w)) >= delta * (1 - 1e-6)


    @pytest.mark.parametrize("fixture", ["blaschke_disc", "moebius_annulus", "nested_moebius"])
    def test_image_samples_on_exact_circles(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        circles = domain.circles
        samples = boundary_sample(domain, 1000)
        counts = geo.boundary_counts(1000, [r for _, r in circles])
        start = 0
        for (c, r), m in zip(circles, counts):
            pts = np.array([p for p, _ in samples[start : start + m]])
            nrm = np.array([v for _, v in samples[start : start + m]])
            start += m
            assert np.max(np.abs(np.abs(pts - c) - r)) <= 1e-13 * r
            assert np.max(np.abs(np.abs(nrm) - 1.0)) <= 1e-15
            # outward: a step along the normal leaves the domain, against it enters
            step = 1e-6 * r
            assert geo.contains_mask(domain, pts - step * nrm).all()
            assert not geo.contains_mask(domain, pts + step * nrm).any()
        assert start == len(samples)

    @pytest.mark.parametrize("fixture", ["blaschke_disc", "moebius_annulus", "nested_moebius"])
    def test_image_box_is_the_outer_circle_box(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        c, r = max(domain.circles, key=lambda cr: cr[1])
        box = geo.bounding_box(domain)
        assert box == (c.real - r, c.real + r, c.imag - r, c.imag + r)
        pts = np.array([p for p, _ in boundary_sample(domain, 1000)])
        x0, x1, y0, y1 = box
        assert np.all((pts.real >= x0) & (pts.real <= x1) & (pts.imag >= y0) & (pts.imag <= y1))

    def test_nested_image_lists_its_outer_circle_second(self, nested_moebius):
        (_, r_first), (_, r_second) = nested_moebius.circles
        assert r_second > r_first


def _probe_points(domain, count=4000, seed=3):
    """Random points in and around the bounding box, at least 1e-9 from
    every boundary circle."""
    x0, x1, y0, y1 = geo.bounding_box(domain)
    pad = 0.2 * (x1 - x0)
    u = np.random.default_rng(seed).random((2, count))
    z = (x0 - pad + (x1 - x0 + 2 * pad) * u[0]) + 1j * (y0 - pad + (y1 - y0 + 2 * pad) * u[1])
    gap = np.min([np.abs(np.abs(z - c) - r) for c, r in domain.circles], axis=0)
    return z[gap >= 1e-9]


_CIRCLE_FAMILIES = ["unit_disc", "annulus_half", "blaschke_disc", "moebius_annulus", "nested_moebius"]
_L_SHAPE = Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))


class TestBoundaryModel:
    @pytest.mark.parametrize("fixture", _CIRCLE_FAMILIES)
    def test_wall_sign_is_membership(self, fixture, request):
        # the nested image lists its outer circle second
        domain = request.getfixturevalue(fixture)
        z = _probe_points(domain)
        inside = geo.contains_mask(domain, z)
        assert inside.any() and not inside.all()
        assert np.array_equal(domain._wall(z) > 0, inside)

    @pytest.mark.parametrize("fixture", _CIRCLE_FAMILIES)
    def test_projection_lands_on_a_circle(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        proj = domain._project(_probe_points(domain))
        off = np.min([np.abs(np.abs(proj - c) - r) / r for c, r in domain.circles], axis=0)
        assert np.max(off) <= 1e-15

    @pytest.mark.parametrize("polygon", [Polygon([0, 1, 1 + 1j, 1j]), _L_SHAPE], ids=["square", "L"])
    def test_projection_lands_on_an_edge(self, polygon):
        x0, x1, y0, y1 = geo.bounding_box(polygon)
        u = np.random.default_rng(5).random((2, 4000))
        z = (x0 - 0.5 + (x1 - x0 + 1) * u[0]) + 1j * (y0 - 0.5 + (y1 - y0 + 1) * u[1])
        proj = polygon._project(z)
        v = polygon.vertices
        off = np.full(z.shape, np.inf)
        for a, b in zip(v, v[1:] + v[:1]):
            e = b - a
            t = ((proj - a) * np.conj(e)).real / abs(e) ** 2
            line = np.abs(((proj - a) * np.conj(e)).imag) / abs(e)
            off = np.minimum(off, np.where((t >= -1e-15) & (t <= 1 + 1e-15), line, np.inf))
        assert np.max(off) <= 1e-15 * (x1 - x0)

    @pytest.mark.parametrize("polygon", [Polygon([0, 1, 1 + 1j, 1j]), _L_SHAPE], ids=["square", "L"])
    def test_polygon_distance_reads_the_wall(self, polygon):
        for w in interior_points(polygon, 50):
            v = np.asarray(polygon.vertices)
            e = np.roll(v, -1) - v
            t = np.clip(((w - v) * np.conj(e)).real / np.abs(e) ** 2, 0.0, 1.0)
            assert boundary_distance(polygon, w) == pytest.approx(float(np.min(np.abs(w - (v + t * e)))), rel=1e-15)

    @pytest.mark.parametrize("fixture", _CIRCLE_FAMILIES + ["unit_square"])
    def test_weights_sum_to_the_perimeter(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        pts, nrm, wts = domain._nodes(1000)
        assert pts.shape == nrm.shape == wts.shape == (1000,)
        if isinstance(domain, Polygon):
            perimeter = 4.0
        else:
            perimeter = 2 * math.pi * sum(r for _, r in domain.circles)
        assert float(np.sum(wts)) == pytest.approx(perimeter, rel=1e-14)

    def test_polygon_samples_start_at_each_vertex(self, unit_square):
        pts = [p for p, _ in boundary_sample(unit_square, 8)]
        assert pts == [0j, 0.5 + 0j, 1 + 0j, 1 + 0.5j, 1 + 1j, 0.5 + 1j, 1j, 0.5j]

    def test_more_components_than_nodes_refused(self):
        with pytest.raises(ValueError, match="10 boundary components"):
            geo.boundary_counts(8, [1.0] * 10)
        assert geo.boundary_counts(10, [1.0] * 10) == [1] * 10
        twelve_gon = Polygon([complex(math.cos(a), math.sin(a)) for a in 2 * math.pi * np.arange(12) / 12])
        with pytest.raises(ValueError):
            boundary_sample(twelve_gon, 8)
        assert len(boundary_sample(twelve_gon, 12)) == 12


class TestMoebius:
    def test_identity_image_pulls_back_to_its_core(self, unit_disc, annulus_half):
        # the composed map is the identity: the series read the core itself,
        # the pole stays where it is and |F'| = 1
        for base, w in ((unit_disc, 0.3 + 0.4j), (annulus_half, -0.2 + 0.6j)):
            m = MoebiusImage(base, 1 + 0j, 0j, 0j, 1 + 0j)
            pb = geo.pull_back(m, w)
            assert pb.coeffs is None
            assert pb.zeta_w == w
            assert abs(geo.moebius_fprime(geo.flatten_moebius(m)[1], w)) == 1.0

    def test_identity_transport(self, unit_disc):
        m = MoebiusImage(unit_disc, 1 + 0j, 0j, 0j, 1 + 0j)
        zeta = geo.pull_back(m, 0.3 + 0.4j).zeta_w
        fp = abs(geo.moebius_fprime(geo.flatten_moebius(m)[1], zeta))
        assert zeta == pytest.approx(0.3 + 0.4j, abs=1e-15)
        assert fp == pytest.approx(1.0, abs=1e-15)

    def test_scaling_transport(self, unit_disc):
        m = MoebiusImage(unit_disc, 2 + 0j, 0j, 0j, 1 + 0j)
        pb = geo.pull_back(m, 0j)
        fp = abs(geo.moebius_fprime(pb.coeffs, pb.zeta_w))
        assert pb.zeta_w == 0j
        assert fp == pytest.approx(2.0, abs=1e-15)

    def test_blaschke_derivative(self, unit_disc):
        # F = (z - 0.5)/(1 - 0.5 z); F(0.5) = 0 and |F'(0.5)| = 4/3
        m = MoebiusImage(unit_disc, 1 + 0j, -0.5 + 0j, -0.5 + 0j, 1 + 0j)
        pb = geo.pull_back(m, 0j)
        fp = abs(geo.moebius_fprime(pb.coeffs, pb.zeta_w))
        assert pb.zeta_w == pytest.approx(0.5 + 0j, abs=1e-14)
        assert fp == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("fixture", ["blaschke_disc", "moebius_annulus"])
    def test_roundtrip_invariant(self, fixture, request):
        domain = request.getfixturevalue(fixture)
        core, coeffs = geo.flatten_moebius(domain)
        for w in interior_points(domain, 100):
            zeta = geo.moebius_inverse(coeffs, w)
            back = geo.moebius_forward(coeffs, zeta)
            assert abs(back - w) <= 1e-12

    def test_singular_map_rejected(self, unit_disc):
        with pytest.raises(InvalidDomain):
            MoebiusImage(unit_disc, 1 + 0j, 2 + 0j, 2 + 0j, 4 + 0j)

    def test_pole_in_base_rejected(self, unit_disc):
        # pole of 1/(z - 0.5) sits inside the unit disc
        with pytest.raises(InvalidDomain):
            MoebiusImage(unit_disc, 0j, 1 + 0j, 1 + 0j, -0.5 + 0j)

    def test_polygon_base_rejected(self, unit_square):
        with pytest.raises(InvalidDomain):
            MoebiusImage(unit_square, 1 + 0j, 0j, 0j, 1 + 0j)


class TestPolygonValidation:
    def test_needs_positive_orientation(self):
        with pytest.raises(InvalidDomain):
            Polygon([0, 1j, 1 + 1j, 1])  # clockwise square

    def test_rejects_self_intersection(self):
        with pytest.raises(InvalidDomain):
            Polygon([0, 1 + 1j, 1, 1j])  # bowtie

    def test_winding_agreement(self, unit_square):
        # membership agrees with the winding number of the sampled boundary
        samples = boundary_sample(unit_square, 512)
        loop = np.array([p for p, _ in samples])
        for p in interior_points(unit_square, 200) + [2 + 2j, -0.5 + 0.5j, 0.5 + 1.7j]:
            angles = np.angle((np.roll(loop, -1) - p) / (loop - p))
            winding = int(round(float(np.sum(angles)) / (2 * math.pi)))
            assert contains(unit_square, p) == (winding != 0)


class TestLiterals:
    @pytest.mark.parametrize(
        "literal",
        [
            "disc:0,0,1",
            "disc:0.5,-0.25,2",
            "annulus:0.5",
            "polygon:0,0;1,0;1,1;0,1",
            "moebius:1,-0.3,-0.3,1;base=disc:0,0,1",
            "moebius:2,0,0,1;base=annulus:0.25",
            "moebius:1,0.1+0.2j,0.1-0.2j,1;base=disc:0,0,1",
            "polar-complement",
        ],
    )
    def test_roundtrip(self, literal):
        domain = parse_domain(literal)
        assert parse_domain(domain_literal(domain)) == domain

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parse_domain("sphere:1"),
            lambda: parse_domain("disc:1,2"),
            lambda: parse_domain("polygon:0,0;1"),
            lambda: parse_domain("moebius:1,0,0;base=disc:0,0,1"),
            lambda: parse_domain("moebius:1,0,0,1"),
            lambda: parse_domain("foo"),
            lambda: Disc(0j, -1.0),
            lambda: Annulus(1.5),
            lambda: Polygon([0j, 1 + 0j]),
        ],
        ids=[
            "unknown-kind",
            "disc-two-numbers",
            "polygon-lone-coordinate",
            "moebius-three-coefficients",
            "moebius-without-base",
            "no-kind",
            "disc-negative-radius",
            "annulus-q-above-1",
            "polygon-two-vertices",
        ],
    )
    def test_rejects_garbage(self, build):
        with pytest.raises(InvalidDomain):
            build()

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_annulus_roundtrip_property(self, q):
        assert parse_domain(domain_literal(Annulus(q))).q == pytest.approx(q, rel=1e-12)
