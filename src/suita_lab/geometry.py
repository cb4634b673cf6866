"""Planar domains, each family answering the geometric questions asked of it.

* ``Disc(center, radius)``
* ``Annulus(inner_radius)`` -- the ring q < |z| < 1; general annuli are
  Moebius images of this canonical one
* ``MoebiusImage(base, a, b, c, d)`` -- the image of a base domain under
  F(zeta) = (a zeta + b)/(c zeta + d) with ad - bc != 0
* ``Polygon(vertices)`` -- a simple, positively oriented polygon; supported
  by the geometric queries and walk-on-spheres only
* ``PolarComplement()`` -- the plane minus the origin, whose complement
  carries no logarithmic capacity

Discs, annuli and their images are bounded by the circles that
``circles`` lists as (center, radius).  The domain lies inside the largest
circle and outside the others.  A disc or an annulus lists its outer
circle first; an image lists the images of its core's circles in the
core's order, so its outer circle comes second when the map's pole lies
in the hole.  Membership, boundary distance, the walk-on-spheres wall and
projection, the boundary nodes of the samples, the flux and the control
fit, bounding boxes and the Moebius outline read this one list; a polygon
answers from its edges.  No other module keeps a copy of a boundary.

The series modules see every such domain through its *core*, the unit
disc or ``Annulus(q)``, both centred at 0 with outer radius 1: a disc of
centre c and radius R is the unit disc under z -> c + R z, and an image
composes its map with its base's.  ``pull_back`` gives them the core, the
composed map (None when it is the identity) and the pulled-back pole, and
is where they refuse a polygon or the polar complement (UnsupportedDomain)
and a pole outside the domain (PointOutsideDomain).

Points are plain ``complex`` numbers.  All operations here are pure and
stateless; array-valued variants (``contains_mask``) accept numpy arrays of
complex and are used by the grid and Monte Carlo machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidArgument, InvalidDomain, PointOutsideDomain, UnsupportedDomain

Point = complex  # a point of the plane; real/imag parts are the coordinates


def _format_real(x: float) -> str:
    return f"{x:.12g}"


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return _format_real(z.real)
    return f"{_format_real(z.real)}{'+' if z.imag >= 0 else '-'}{_format_real(abs(z.imag))}j"


# ---------------------------------------------------------------------------
# Circles: what discs, annuli and their images share
# ---------------------------------------------------------------------------


def boundary_counts(n: int, lengths) -> list[int]:
    """Nodes per boundary component (a circle or a polygon edge), n in all,
    in proportion to the lengths: the cut after each falls at its rounded
    share of n, and each keeps a node (InvalidArgument when n cannot)."""
    if n < len(lengths):
        raise InvalidArgument(f"{n} boundary nodes cannot cover {len(lengths)} boundary components")
    total = sum(lengths)
    cuts, acc = [0], 0.0
    for i, length in enumerate(lengths[:-1], start=1):
        acc += length
        cuts.append(min(max(int(round(n * acc / total)), cuts[-1] + 1), n - (len(lengths) - i)))
    cuts.append(n)
    return [b - a for a, b in zip(cuts, cuts[1:])]


class _Bounded:
    """The boundary of a family bounded by circles: inside the largest, outside the rest."""

    def _distance(self, w: Point) -> float:
        return min(abs(abs(w - c) - r) for c, r in self.circles)

    def _outer(self) -> int:
        """Index of the outer circle in circles (the first of the largest)."""
        radii = [r for _, r in self.circles]
        return radii.index(max(radii))

    def _wall(self, z: np.ndarray) -> np.ndarray:
        """Distance from each point of z to the boundary, negative past a circle."""
        k = self._outer()
        c0, r0 = self.circles[k]
        dist = np.abs(z - c0) if c0 else np.abs(z)  # reused by a concentric hole
        d = r0 - dist
        for c, r in self.circles[:k] + self.circles[k + 1 :]:
            np.minimum((dist if c == c0 else np.abs(z - c)) - r, d, out=d)
        return d

    def _project(self, z: np.ndarray) -> np.ndarray:
        """The nearest boundary point, on the nearest circle (the earlier one on a tie)."""
        best = np.full(z.shape, np.inf)
        proj = np.array(z, dtype=complex)
        for c, r in self.circles:
            u = z - c
            ru = np.abs(u)
            d = np.abs(ru - r)
            closer = d < best
            best = np.where(closer, d, best)
            proj = np.where(closer, c + r * u / ru, proj)
        return proj

    def _nodes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n boundary nodes as arrays of points, outward unit normals and
        trapezoid weights, shared among the circles by boundary_counts: the
        m nodes c + r u, u = exp(2 pi i k / m), of each circle run
        counterclockwise from angle 0, with the normal -u on a hole."""
        outer, counts = self._outer(), boundary_counts(n, [r for _, r in self.circles])
        u = [np.exp(2j * math.pi * np.arange(m) / m) for m in counts]
        pts = np.concatenate([c + r * uk for (c, r), uk in zip(self.circles, u)])
        nrm = np.concatenate([uk if k == outer else -uk for k, uk in enumerate(u)])
        wts = np.concatenate([np.full(m, 2 * math.pi * r / m) for (_, r), m in zip(self.circles, counts)])
        return pts, nrm, wts

    def _box(self) -> tuple[float, float, float, float]:
        c, r = self.circles[self._outer()]
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


class _Core(_Bounded):
    """A disc or an annulus: the domain inside circles[0] and outside the rest."""

    def _mask(self, z: np.ndarray) -> np.ndarray:
        (c0, r0), *holes = self.circles
        dist = np.abs(z - c0) if c0 else np.abs(z)  # reused by a concentric hole
        inside = dist < r0
        for c, r in holes:
            inside &= (dist if c == c0 else np.abs(z - c)) > r
        return inside


@dataclass(frozen=True)
class Disc(_Core):
    center: complex
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise InvalidDomain("disc center must be finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidDomain(f"disc radius must be positive, got {self.radius}")

    @cached_property
    def circles(self) -> tuple[tuple[complex, float], ...]:
        return ((self.center, self.radius),)

    def _literal(self) -> str:
        c = self.center
        return f"disc:{_format_real(c.real)},{_format_real(c.imag)},{_format_real(self.radius)}"


@dataclass(frozen=True)
class Annulus(_Core):
    inner_radius: float  # q in (0, 1)

    def __post_init__(self):
        if not (0.0 < self.inner_radius < 1.0):
            raise InvalidDomain(f"annulus needs 0 < q < 1, got {self.inner_radius}")

    @property
    def q(self) -> float:
        return self.inner_radius

    @cached_property
    def circles(self) -> tuple[tuple[complex, float], ...]:
        return ((0j, 1.0), (0j, self.inner_radius))

    def _literal(self) -> str:
        return f"annulus:{_format_real(self.q)}"


@dataclass(frozen=True)
class MoebiusImage(_Bounded):
    base: "Domain"
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if isinstance(self.base, (Polygon, PolarComplement)):
            raise InvalidDomain("Moebius base must not be Polygon or PolarComplement")
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-14 * (abs(self.a * self.d) + abs(self.b * self.c) + 1.0):
            raise InvalidDomain("Moebius map is singular (ad - bc = 0)")
        core, (a, b, c, d) = flatten_moebius(self)
        if c != 0:
            # The pole of the composed map must stay clear of the closure of
            # the core domain (outside its outer circle or inside a hole),
            # otherwise the image is unbounded.
            pole = -d / c
            (c0, r0), *holes = core.circles
            clear = abs(pole - c0) > r0 * (1 + 1e-12) or any(abs(pole - h) < r * (1 - 1e-12) for h, r in holes)
            if not clear:
                raise InvalidDomain("Moebius pole meets the base domain closure; image would be unbounded")

    @property
    def coeffs(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    @cached_property
    def circles(self) -> tuple[tuple[complex, float], ...]:
        return tuple(moebius_circles(self))

    def _distance(self, w: Point) -> float:
        """Shrunk by 1e-12 to stay a lower bound: the image circles carry rounding."""
        return super()._distance(w) * (1.0 - 1e-12)

    def _mask(self, z: np.ndarray) -> np.ndarray:
        core, (a, b, c, d) = flatten_moebius(self)
        denom = -c * z + a
        ok = np.abs(denom) > 1e-300
        zeta = np.where(ok, (d * z - b) / np.where(ok, denom, 1.0), np.inf)
        return ok & core._mask(zeta)

    def _literal(self) -> str:
        coeffs = ",".join(_format_complex(z) for z in self.coeffs)
        return f"moebius:{coeffs};base={self.base._literal()}"


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(complex(v) for v in self.vertices))
        v = self.vertices
        if len(v) < 3:
            raise InvalidDomain("polygon needs at least 3 vertices")
        if _polygon_signed_area(v) <= 0:
            raise InvalidDomain("polygon must be positively oriented")
        if not _polygon_is_simple(v):
            raise InvalidDomain("polygon must be simple (non-self-intersecting)")

    def _mask(self, z: np.ndarray) -> np.ndarray:
        """Crossing-parity test, vectorized over z."""
        x, y = z.real, z.imag
        inside = np.zeros(z.shape, dtype=bool)
        v = self.vertices
        for p, r in zip(v, v[1:] + v[:1]):
            x1, y1, x2, y2 = p.real, p.imag, r.real, r.imag
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xint, np.inf))
        return inside

    def _wall(self, z: np.ndarray) -> np.ndarray:
        """Distance from each point of z to the nearest edge."""
        x, y = z.real, z.imag
        d2 = np.full(z.shape, np.inf)
        v = self.vertices
        for a, b in zip(v, v[1:] + v[:1]):
            e = b - a
            dx, dy = x - a.real, y - a.imag
            t = dx * e.real
            t += dy * e.imag
            t /= abs(e) ** 2
            np.clip(t, 0.0, 1.0, out=t)
            dx -= t * e.real
            dy -= t * e.imag
            dx *= dx
            dy *= dy
            dx += dy
            np.minimum(d2, dx, out=d2)
        return np.sqrt(d2, out=d2)

    def _project(self, z: np.ndarray) -> np.ndarray:
        """The nearest boundary point, on the nearest edge (the earlier one on a tie)."""
        best = np.full(z.shape, np.inf)
        proj = np.array(z, dtype=complex)
        v = self.vertices
        for a, b in zip(v, v[1:] + v[:1]):
            e = b - a
            t = np.clip(((z - a) * np.conj(e)).real / abs(e) ** 2, 0.0, 1.0)
            q = a + t * e
            d = np.abs(z - q)
            closer = d < best
            best = np.where(closer, d, best)
            proj = np.where(closer, q, proj)
        return proj

    def _distance(self, w: Point) -> float:
        return float(self._wall(np.array([w]))[0])

    def _nodes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """As _Bounded._nodes, shared among the edges: equally spaced from
        each vertex along its edge; a vertex weighs half of each spacing."""
        v = np.asarray(self.vertices, dtype=complex)
        edges = np.roll(v, -1) - v
        lengths = np.abs(edges)
        counts = boundary_counts(n, lengths.tolist())
        pts = np.concatenate([a + e * (np.arange(m) / m) for a, e, m in zip(v, edges, counts)])
        nrm = np.repeat(-1j * edges / lengths, counts)  # the domain lies to the left of each edge
        h = lengths / counts
        wts = np.repeat(h, counts)
        wts[np.cumsum(counts) - counts] = 0.5 * (h + np.roll(h, 1))
        return pts, nrm, wts

    def _box(self) -> tuple[float, float, float, float]:
        v = np.asarray(self.vertices, dtype=complex)
        return (float(v.real.min()), float(v.real.max()), float(v.imag.min()), float(v.imag.max()))

    def _literal(self) -> str:
        return "polygon:" + ";".join(f"{_format_real(v.real)},{_format_real(v.imag)}" for v in self.vertices)


@dataclass(frozen=True)
class PolarComplement:
    """The plane minus the origin."""

    def _mask(self, z: np.ndarray) -> np.ndarray:
        return np.isfinite(z.real) & np.isfinite(z.imag) & (z != 0)

    def _distance(self, w: Point) -> float:
        return math.inf  # the complement is a single point

    def _nodes(self, n: int):
        raise UnsupportedDomain("PolarComplement has no samplable boundary")

    def _box(self):
        raise UnsupportedDomain(f"no bounding box for {self!r}")

    def _literal(self) -> str:
        return "polar-complement"


Domain = Union[Disc, Annulus, MoebiusImage, Polygon, PolarComplement]

UNIT_DISC = Disc(0j, 1.0)


def _polygon_signed_area(vertices) -> float:
    area = 0.0
    n = len(vertices)
    for i in range(n):
        p, r = vertices[i], vertices[(i + 1) % n]
        area += p.real * r.imag - r.real * p.imag
    return 0.5 * area


def _segments_properly_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b - a).real * (c - a).imag - (b - a).imag * (c - a).real
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _polygon_is_simple(vertices) -> bool:
    n = len(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex, skip
            if _segments_properly_intersect(
                vertices[i], vertices[(i + 1) % n], vertices[j], vertices[(j + 1) % n]
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# Moebius map plumbing
# ---------------------------------------------------------------------------

IDENTITY_COEFFS = (1 + 0j, 0j, 0j, 1 + 0j)


def moebius_forward(coeffs, zeta):
    """F(zeta) = (a zeta + b)/(c zeta + d); works on scalars and arrays."""
    a, b, c, d = coeffs
    return (a * zeta + b) / (c * zeta + d)


def moebius_inverse(coeffs, z):
    a, b, c, d = coeffs
    return (d * z - b) / (-c * z + a)


def moebius_fprime(coeffs, zeta):
    """F'(zeta) = (ad - bc)/(c zeta + d)^2."""
    a, b, c, d = coeffs
    return (a * d - b * c) / (c * zeta + d) ** 2


def moebius_compose(outer, inner):
    """Coefficients of F_outer o F_inner (2x2 matrix product)."""
    a1, b1, c1, d1 = outer
    a2, b2, c2, d2 = inner
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def flatten_moebius(domain: Domain) -> tuple[Domain, tuple[complex, complex, complex, complex]]:
    """Peel nested MoebiusImage layers into (core domain, composed
    coefficients).  A disc's core is the unit disc, under z -> c + R z."""
    if isinstance(domain, Disc):
        return UNIT_DISC, (complex(domain.radius), complex(domain.center), 0j, 1 + 0j)
    if not isinstance(domain, MoebiusImage):
        return domain, IDENTITY_COEFFS
    core, inner = flatten_moebius(domain.base)
    return core, moebius_compose(domain.coeffs, inner)


def moebius_circles(domain: MoebiusImage) -> list[tuple[complex, float]]:
    """(center, radius) of each boundary circle, in the core's circle order.

    The pole -d/c of F stays off every base circle (c0, rho), so each maps
    to a circle.  Its center is F(zeta*), zeta* = c0 + rho^2 / conj(-d/c - c0)
    the pole reflected in the circle (F(c0) when c = 0); written out so that
    a pole at c0 (C = a/c) needs no separate case,
        C = ((a c0 + b) conj(c c0 + d) - a conj(c) rho^2) / D,
        R = rho |ad - bc| / |D|,  D = |c c0 + d|^2 - |c|^2 rho^2.
    """
    core, (a, b, c, d) = flatten_moebius(domain)
    out = []
    for c0, rho in core.circles:
        e = c * c0 + d
        den = abs(e) ** 2 - abs(c) ** 2 * rho * rho
        center = ((a * c0 + b) * e.conjugate() - a * c.conjugate() * rho * rho) / den
        out.append((center, rho * abs(a * d - b * c) / abs(den)))
    return out


class PullBack(NamedTuple):
    """A domain seen from its core: the unit disc or Annulus(q), the
    composed coefficients of the map F from it onto the domain (None when
    F is the identity) and the pole pulled back, zeta_w = F^-1(w)."""

    core: Domain
    coeffs: tuple[complex, complex, complex, complex] | None
    zeta_w: Point

    def pull(self, z: np.ndarray) -> np.ndarray:
        """F^-1 on an array of the domain's points; the image of infinity,
        a/c, goes to infinity."""
        if self.coeffs is None:
            return z
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(moebius_inverse(self.coeffs, z))


def pull_back(domain: Domain, w: Point, check: bool = True) -> PullBack:
    """The core of domain, its map and the pole pulled back (PullBack).

    The series operations refuse here, and only here: UnsupportedDomain
    when the core has no series Green function (a polygon or the polar
    complement), and, unless check is False, PointOutsideDomain when w is
    not inside domain (zeta_w is tested on the core).  Unchecked, a pole at
    the image of infinity raises ZeroDivisionError.
    """
    core, coeffs = flatten_moebius(domain)
    if not isinstance(core, (Disc, Annulus)):
        raise UnsupportedDomain(f"no series Green function for {type(core).__name__}; use the Monte Carlo oracle")
    if coeffs == IDENTITY_COEFFS:
        pb = PullBack(core, None, w)
    else:
        try:
            pb = PullBack(core, coeffs, moebius_inverse(coeffs, w))
        except ZeroDivisionError:  # w = a/c, the image of infinity
            if check:
                raise PointOutsideDomain(f"pole {w} outside domain") from None
            raise
    if check and not contains(core, pb.zeta_w):
        raise PointOutsideDomain(f"pole {w} outside domain")
    return pb


# ---------------------------------------------------------------------------
# The queries, each answered by the domain's family
# ---------------------------------------------------------------------------


def contains(domain: Domain, z: Point) -> bool:
    """True iff z lies in the open domain. Boundary points count as outside."""
    return bool(contains_mask(domain, np.asarray(z, dtype=complex)))


def contains_mask(domain: Domain, z: np.ndarray) -> np.ndarray:
    """Vectorized membership test; z is an array of complex.  An image is
    tested on its core, at the pulled-back points."""
    return domain._mask(np.asarray(z, dtype=complex))


def boundary_distance(domain: Domain, w: Point) -> float:
    """Euclidean distance from an interior point to the boundary.

    Exact for Disc/Annulus/Polygon.  A MoebiusImage of a disc or an annulus
    is bounded by circles, so its distance is exact too, reported 1e-12
    relative low to stay a lower bound under rounding.  PolarComplement
    reports +inf: its complement is a single point.
    """
    if not contains(domain, w):
        raise PointOutsideDomain(f"{w} is not an interior point")
    return domain._distance(w)


def boundary_sample(domain: Domain, n: int) -> list[tuple[Point, Point]]:
    """n boundary points with outward unit normals, arc-length spaced.

    Points are ordered per boundary circle, in the order of ``circles``, or
    per polygon edge, and boundary_counts splits n among them by length
    (InvalidArgument for a polygon of more than n edges).  Each circle's samples
    run counterclockwise from angle 0, each edge's from its first vertex.
    """
    if n < 8:
        raise InvalidArgument(f"need n >= 8 boundary samples, got {n}")
    pts, nrm, _ = domain._nodes(n)
    return list(zip(pts.tolist(), nrm.tolist()))


def bounding_box(domain: Domain) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) enclosing the domain (used by grids,
    Monte Carlo and SVG output): the box of the outer circle of a disc, an
    annulus or an image, the hull of a polygon's vertices."""
    return domain._box()


# ---------------------------------------------------------------------------
# Domain literals (the CLI/config syntax)
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def parse_domain(literal: str) -> Domain:
    """Parse a domain literal.

    Syntax: ``disc:cx,cy,r`` | ``annulus:q`` |
    ``moebius:a,b,c,d;base=<literal>`` | ``polygon:x1,y1;x2,y2;...`` |
    ``polar-complement``.  Moebius coefficients accept complex numbers in
    Python syntax (``0.5``, ``1+2j``).
    """
    text = literal.strip()
    if text == "polar-complement":
        return PolarComplement()
    head, sep, rest = text.partition(":")
    if not sep:
        raise InvalidDomain(f"malformed domain literal {literal!r}")
    if head == "disc":
        parts = rest.split(",")
        if len(parts) != 3:
            raise InvalidDomain(f"disc literal needs cx,cy,r: {literal!r}")
        cx, cy, r = (float(p) for p in parts)
        return Disc(complex(cx, cy), r)
    if head == "annulus":
        return Annulus(float(rest))
    if head == "polygon":
        pts = []
        for chunk in rest.split(";"):
            xy = chunk.split(",")
            if len(xy) != 2:
                raise InvalidDomain(f"polygon vertex needs x,y: {chunk!r}")
            pts.append(complex(float(xy[0]), float(xy[1])))
        return Polygon(pts)
    if head == "moebius":
        coeff_text, sep, base_text = rest.partition(";base=")
        if not sep:
            raise InvalidDomain(f"moebius literal needs ;base=<literal>: {literal!r}")
        parts = coeff_text.split(",")
        if len(parts) != 4:
            raise InvalidDomain(f"moebius literal needs a,b,c,d: {literal!r}")
        a, b, c, d = (_parse_complex(p) for p in parts)
        return MoebiusImage(parse_domain(base_text), a, b, c, d)
    raise InvalidDomain(f"unknown domain kind {head!r}")


def domain_literal(domain: Domain) -> str:
    """Inverse of parse_domain (round-trips up to float formatting)."""
    return domain._literal()
