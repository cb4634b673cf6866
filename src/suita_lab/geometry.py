"""Planar domain descriptors and the queries every other module builds on.

Domains are described by a closed set of variants:

* ``Disc(center, radius)``
* ``Annulus(inner_radius)`` -- the ring q < |z| < 1, outer radius fixed at 1
  and centered at the origin; general annuli are reached through a Moebius
  image of this canonical one
* ``MoebiusImage(base, a, b, c, d)`` -- the image of a base domain under
  F(zeta) = (a zeta + b)/(c zeta + d) with ad - bc != 0
* ``Polygon(vertices)`` -- a simple, positively oriented polygon; supported
  only by the Monte Carlo oracle paths
* ``PolarComplement()`` -- the plane minus the origin, the degenerate case
  whose complement carries no logarithmic capacity

Points are plain ``complex`` numbers.  All operations here are pure and
stateless; array-valued variants (``contains_mask``) accept numpy arrays of
complex and are used by the grid and Monte Carlo machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    InvalidDomain,
    MapSingular,
    PointOutsideDomain,
    UnsupportedDomain,
)

Point = complex  # a point of the plane; real/imag parts are the coordinates


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise InvalidDomain("disc center must be finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidDomain(f"disc radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    inner_radius: float  # q in (0, 1); outer radius is 1, centered at 0

    def __post_init__(self):
        if not (0.0 < self.inner_radius < 1.0):
            raise InvalidDomain(f"annulus needs 0 < q < 1, got {self.inner_radius}")

    @property
    def q(self) -> float:
        return self.inner_radius


@dataclass(frozen=True)
class MoebiusImage:
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
            # the core domain, otherwise the image is unbounded.
            pole = -d / c
            if isinstance(core, Disc):
                clear = abs(pole - core.center) > core.radius * (1 + 1e-12)
            else:  # Annulus
                clear = abs(pole) < core.q * (1 - 1e-12) or abs(pole) > 1 + 1e-12
            if not clear:
                raise InvalidDomain("Moebius pole meets the base domain closure; image would be unbounded")


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


@dataclass(frozen=True)
class PolarComplement:
    """The plane minus the origin."""


Domain = Union[Disc, Annulus, MoebiusImage, Polygon, PolarComplement]


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
    """Peel nested MoebiusImage layers into (core domain, composed coefficients)."""
    if not isinstance(domain, MoebiusImage):
        return domain, IDENTITY_COEFFS
    core, inner = flatten_moebius(domain.base)
    return core, moebius_compose((domain.a, domain.b, domain.c, domain.d), inner)


def moebius_transport(domain: MoebiusImage, w: Point) -> tuple[Point, float]:
    """Pull a point of the image domain back to the base.

    Returns ``(base_point, |F'(base_point)|)`` where F is the forward map.
    Downstream transport rules: capacity scales by 1/|F'|, the diagonal
    Bergman kernel by 1/|F'|^2.
    """
    if not isinstance(domain, MoebiusImage):
        raise UnsupportedDomain("moebius_transport needs a MoebiusImage domain")
    if not contains(domain, w):
        raise PointOutsideDomain(f"{w} is not inside the Moebius image")
    core, coeffs = flatten_moebius(domain)
    a, b, c, d = coeffs
    if c != 0 and abs(w - a / c) < 1e-15 * (abs(w) + abs(a / c)):
        raise MapSingular("point is the image of the pole of the map")
    zeta = moebius_inverse(coeffs, w)
    return zeta, abs(moebius_fprime(coeffs, zeta))


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def contains(domain: Domain, z: Point) -> bool:
    """True iff z lies in the open domain. Boundary points count as outside."""
    return bool(contains_mask(domain, np.asarray(z, dtype=complex)))


def contains_mask(domain: Domain, z: np.ndarray) -> np.ndarray:
    """Vectorized membership test; z is an array of complex."""
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, Disc):
        return np.abs(z - domain.center) < domain.radius
    if isinstance(domain, Annulus):
        r = np.abs(z)
        return (r > domain.q) & (r < 1.0)
    if isinstance(domain, PolarComplement):
        return np.isfinite(z.real) & np.isfinite(z.imag) & (z != 0)
    if isinstance(domain, Polygon):
        return _polygon_contains(domain.vertices, z)
    if isinstance(domain, MoebiusImage):
        core, coeffs = flatten_moebius(domain)
        a, b, c, d = coeffs
        denom = -c * z + a
        ok = np.abs(denom) > 1e-300
        zeta = np.where(ok, (d * z - b) / np.where(ok, denom, 1.0), np.inf)
        return ok & contains_mask(core, zeta)
    raise UnsupportedDomain(f"unknown domain {domain!r}")


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


def _polygon_contains(vertices, z: np.ndarray) -> np.ndarray:
    """Crossing-parity test, vectorized over z."""
    x, y = z.real, z.imag
    inside = np.zeros(z.shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        p, r = vertices[i], vertices[(i + 1) % n]
        x1, y1, x2, y2 = p.real, p.imag, r.real, r.imag
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


# ---------------------------------------------------------------------------
# Boundary distance
# ---------------------------------------------------------------------------

def boundary_distance(domain: Domain, w: Point) -> float:
    """Euclidean distance from an interior point to the boundary.

    Exact for Disc/Annulus/Polygon.  A MoebiusImage of a disc or an annulus
    is bounded by circles, so its distance is exact too, reported 1e-12
    relative low to stay a lower bound under rounding.  PolarComplement
    reports +inf: its complement is a single point.
    """
    if not contains(domain, w):
        raise PointOutsideDomain(f"{w} is not an interior point")
    if isinstance(domain, Disc):
        return domain.radius - abs(w - domain.center)
    if isinstance(domain, Annulus):
        r = abs(w)
        return min(r - domain.q, 1.0 - r)
    if isinstance(domain, PolarComplement):
        return math.inf
    if isinstance(domain, Polygon):
        return float(np.min(_point_segment_distances(domain.vertices, w)))
    if isinstance(domain, MoebiusImage):
        return _moebius_boundary_distance(domain, w)
    raise UnsupportedDomain(f"unknown domain {domain!r}")


def _point_segment_distances(vertices, w: Point) -> np.ndarray:
    v = np.asarray(vertices, dtype=complex)
    p, r = v, np.roll(v, -1)
    d = r - p
    t = np.clip(((w - p) * np.conj(d)).real / np.abs(d) ** 2, 0.0, 1.0)
    return np.abs(w - (p + t * d))


def _core_boundary_points(core: Domain, m: int) -> list[np.ndarray]:
    """m parameter samples per component of the core (Disc or Annulus) boundary."""
    theta = 2 * np.pi * np.arange(m) / m
    if isinstance(core, Disc):
        return [core.center + core.radius * np.exp(1j * theta)]
    if isinstance(core, Annulus):
        return [np.exp(1j * theta), core.q * np.exp(-1j * theta)]
    raise UnsupportedDomain("core must be Disc or Annulus")


def _moebius_boundary_distance(domain: MoebiusImage, w: Point) -> float:
    """Distance to the image circles, shrunk by 1e-12 to stay a lower bound."""
    return min(abs(abs(w - center) - radius) for center, radius in moebius_circles(domain)) * (1.0 - 1e-12)


def moebius_circles(domain: MoebiusImage) -> list[tuple[complex, float]]:
    """(center, radius) of each boundary circle, in the core's component order.

    The pole -d/c of F stays off every base circle (c0, rho), so each maps
    to a circle.  Its center is F(zeta*), zeta* = c0 + rho^2 / conj(-d/c - c0)
    the pole reflected in the circle (F(c0) when c = 0); written out so that
    a pole at c0 (C = a/c) needs no separate case,
        C = ((a c0 + b) conj(c c0 + d) - a conj(c) rho^2) / D,
        R = rho |ad - bc| / |D|,  D = |c c0 + d|^2 - |c|^2 rho^2.
    """
    core, (a, b, c, d) = flatten_moebius(domain)
    circles = [(core.center, core.radius)] if isinstance(core, Disc) else [(0j, 1.0), (0j, core.q)]
    out = []
    for c0, rho in circles:
        e = c * c0 + d
        den = abs(e) ** 2 - abs(c) ** 2 * rho * rho
        center = ((a * c0 + b) * e.conjugate() - a * c.conjugate() * rho * rho) / den
        out.append((center, rho * abs(a * d - b * c) / abs(den)))
    return out


# ---------------------------------------------------------------------------
# Boundary sampling
# ---------------------------------------------------------------------------

def boundary_sample(domain: Domain, n: int) -> list[tuple[Point, Point]]:
    """n boundary points with outward unit normals, arc-length spaced.

    Points are ordered per boundary component (outer first for the annulus).
    Circles start at angle 0; polygon and Moebius components are offset by
    half a spacing so samples avoid vertices.
    """
    if n < 8:
        raise ValueError(f"need n >= 8 boundary samples, got {n}")
    if isinstance(domain, PolarComplement):
        raise UnsupportedDomain("PolarComplement has no samplable boundary")
    if isinstance(domain, Disc):
        theta = 2 * np.pi * np.arange(n) / n
        normals = np.exp(1j * theta)
        pts = domain.center + domain.radius * normals
        return list(zip(pts.tolist(), normals.tolist()))
    if isinstance(domain, Annulus):
        q = domain.q
        n_outer = int(round(n / (1.0 + q)))
        n_outer = min(max(n_outer, 1), n - 1)
        n_inner = n - n_outer
        th_o = 2 * np.pi * np.arange(n_outer) / n_outer
        th_i = 2 * np.pi * np.arange(n_inner) / n_inner
        out = list(zip(np.exp(1j * th_o).tolist(), np.exp(1j * th_o).tolist()))
        # Inner circle: outward from the domain means toward the origin.
        inn = list(zip((q * np.exp(-1j * th_i)).tolist(), (-np.exp(-1j * th_i)).tolist()))
        return out + inn
    if isinstance(domain, Polygon):
        return _polygon_boundary_sample(domain.vertices, n)
    if isinstance(domain, MoebiusImage):
        return _moebius_boundary_sample(domain, n)
    raise UnsupportedDomain(f"unknown domain {domain!r}")


def _polygon_boundary_sample(vertices, n):
    v = np.asarray(vertices, dtype=complex)
    edges = np.roll(v, -1) - v
    lengths = np.abs(edges)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    s = (np.arange(n) + 0.5) * total / n
    idx = np.searchsorted(cum, s, side="right") - 1
    idx = np.clip(idx, 0, len(v) - 1)
    frac = (s - cum[idx]) / lengths[idx]
    pts = v[idx] + frac * edges[idx]
    tangents = edges[idx] / lengths[idx]
    normals = -1j * tangents  # domain lies to the left of a CCW traversal
    return list(zip(pts.tolist(), normals.tolist()))


def _moebius_boundary_sample(domain: MoebiusImage, n):
    core, coeffs = flatten_moebius(domain)
    dense = max(64 * n, 4096)
    comps = _core_boundary_points(core, dense)
    imgs = [moebius_forward(coeffs, comp) for comp in comps]
    lengths = []
    for img in imgs:
        seg = np.abs(np.diff(np.append(img, img[0])))
        lengths.append(float(np.sum(seg)))
    total = sum(lengths)
    counts = [max(1, int(round(n * L / total))) for L in lengths]
    counts[0] += n - sum(counts)
    out = []
    for comp, img, L, m in zip(comps, imgs, lengths, counts):
        seg = np.abs(np.diff(np.append(img, img[0])))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        s = (np.arange(m) + 0.5) * L / m
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, dense - 1)
        zeta = comp[idx]
        # Tangent of the core parametrization, then pushed through the map.
        step = comp[(idx + 1) % dense] - comp[idx - 1]
        t_base = step / np.abs(step)
        t_img = moebius_fprime(coeffs, zeta) * t_base
        normals = -1j * t_img / np.abs(t_img)
        pts = moebius_forward(coeffs, zeta)
        out.extend(zip(pts.tolist(), normals.tolist()))
    return out


# ---------------------------------------------------------------------------
# Bounding boxes (used by grids, Monte Carlo and SVG output)
# ---------------------------------------------------------------------------

def bounding_box(domain: Domain) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) enclosing the domain."""
    if isinstance(domain, Disc):
        c, r = domain.center, domain.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)
    if isinstance(domain, Annulus):
        return (-1.0, 1.0, -1.0, 1.0)
    if isinstance(domain, Polygon):
        v = np.asarray(domain.vertices, dtype=complex)
        return (float(v.real.min()), float(v.real.max()), float(v.imag.min()), float(v.imag.max()))
    if isinstance(domain, MoebiusImage):
        core, coeffs = flatten_moebius(domain)
        pts = np.concatenate([moebius_forward(coeffs, c) for c in _core_boundary_points(core, 4096)])
        pad = 0.01 * (pts.real.max() - pts.real.min() + pts.imag.max() - pts.imag.min())
        return (
            float(pts.real.min() - pad),
            float(pts.real.max() + pad),
            float(pts.imag.min() - pad),
            float(pts.imag.max() + pad),
        )
    raise UnsupportedDomain(f"no bounding box for {domain!r}")


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


def _format_real(x: float) -> str:
    return f"{x:.12g}"


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return _format_real(z.real)
    return f"{_format_real(z.real)}{'+' if z.imag >= 0 else '-'}{_format_real(abs(z.imag))}j"


def domain_literal(domain: Domain) -> str:
    """Inverse of parse_domain (round-trips up to float formatting)."""
    if isinstance(domain, PolarComplement):
        return "polar-complement"
    if isinstance(domain, Disc):
        c = domain.center
        return f"disc:{_format_real(c.real)},{_format_real(c.imag)},{_format_real(domain.radius)}"
    if isinstance(domain, Annulus):
        return f"annulus:{_format_real(domain.q)}"
    if isinstance(domain, Polygon):
        body = ";".join(f"{_format_real(v.real)},{_format_real(v.imag)}" for v in domain.vertices)
        return f"polygon:{body}"
    if isinstance(domain, MoebiusImage):
        coeffs = ",".join(_format_complex(z) for z in (domain.a, domain.b, domain.c, domain.d))
        return f"moebius:{coeffs};base={domain_literal(domain.base)}"
    raise UnsupportedDomain(f"unknown domain {domain!r}")
