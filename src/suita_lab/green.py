"""Green functions, Robin constants and logarithmic capacity on model domains.

The (negative) Green function G(., w) of a domain is harmonic away from the
pole w, behaves like log|z - w| at the pole, and vanishes on the boundary.
Closed forms used here:

* Disc(c, R):   G(z, w) = log( R |z - w| / |R^2 - conj(w - c)(z - c)| )
* Annulus q < |z| < 1, via the dual-nome series (Jacobi's imaginary
  transformation, DLMF 20.7).  With h = log(1/q), the strip coordinate
  s = log(z/q) and W = exp(i pi s / h) map the ring onto the upper
  half-plane modulo W -> p W, p = exp(-2 pi^2 / h), so G is the sum of
  the half-plane Green functions of the images:
      G(z, w) = sum_k log|(W p^k - W0) / (W p^k - conj(W0))|,
  lifted so that |arg(z/w)| <= pi.  Every term vanishes on both circles
  and has the sign of G, and each is evaluated as 1/2 log1p(-rho) with
  0 <= rho < 1 computed without cancellation, so G keeps its relative
  accuracy where it is tiny: across a thin ring it is of order
  exp(-pi^2 / h), about 1e-19 at q = 0.8.  The term count follows from
  q (annulus_dual_terms).
  The Robin constant comes from the same images: the k = 0 term minus
  log|z - w| tends to log(pi / (2 h |w| sin theta0)), theta0 = pi
  log(|w|/q) / h, and the other terms are taken at z = w, where the image
  pairs k and -k add up to log1p(-sin^2 theta0 / (sinh^2(k pi^2 / h) +
  sin^2 theta0)).
* MoebiusImage: pullback, since G is conformally invariant.

Gradients come from term-wise differentiation: writing G = Re f with f
holomorphic in z, grad G = (Re f', -Im f').  The same f'' feeds the Newton
refinement of critical points.

Everything is vectorized over numpy arrays of complex z; the scalar public
operations wrap the array kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import (
    CoincidentPoints,
    ConvergenceFailure,
    PointOutsideDomain,
    RadiusTooLarge,
    UnsupportedDomain,
)
from .geometry import Annulus, Disc, Domain, MoebiusImage, Point, PolarComplement, Polygon

# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenValue:
    value: float
    grad_x: float
    grad_y: float
    truncation_bound: float

    @property
    def gradient(self) -> complex:
        return complex(self.grad_x, self.grad_y)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    robin_constant: float  # log of the capacity
    truncation_bound: float


@dataclass(frozen=True)
class CriticalPoint:
    location: complex
    level: float  # G at the critical point
    gradient_residual: float
    order: int  # local normal-form exponent n >= 2


# ---------------------------------------------------------------------------
# Annulus dual-nome series (Green field)
# ---------------------------------------------------------------------------


def _dual_log_nome(q: float) -> float:
    """log p for the dual nome p = exp(-2 pi^2 / log(1/q))."""
    return -2.0 * math.pi**2 / -math.log(q)


def annulus_dual_terms(q: float) -> int:
    """Smallest K for which the images k = -K..K give G to 1e-16 relative.

    Every image term has the sign of G, and the dropped ones (|k| > K)
    total at most 8 p^K / ((1 - p)(1 - sqrt p)^2) times |G|.  K = 1 for
    q >= 0.56; K grows like log(1/q) as q -> 0, where p tends to 1.
    """
    log_p = _dual_log_nome(q)
    p = math.exp(log_p)
    target = 1e-16 * (1.0 - p) * (1.0 - math.sqrt(p)) ** 2 / 8.0
    return max(1, int(math.ceil(math.log(target) / log_p)))


def _strip_coords(q: float, w: Point, z: np.ndarray):
    """Angles across the ring and the image offsets along it.

    theta = pi log(|z|/q) / h lies in (0, pi) inside the annulus
    (h = log(1/q)); the image k sits at the offset L_k = pi (arg(z/w) +
    2 pi k) / h along the strip, with the principal arg(z/w), so
    |L_0| <= pi^2 / h.
    """
    h = -math.log(q)
    theta = math.pi * np.log(np.abs(z) / q) / h
    theta0 = math.pi * math.log(abs(w) / q) / h
    l0 = math.pi * np.angle(z * np.conj(w)) / h
    n = annulus_dual_terms(q)
    offsets = [l0 + k * (2.0 * math.pi**2 / h) for k in range(-n, n + 1)]
    return h, theta, theta0, offsets


def _dual_values(q: float, w: Point, z: np.ndarray) -> np.ndarray:
    """G = sum_k 1/2 log((sinh^2(L_k/2) + sin^2((theta - theta0)/2)) /
    (sinh^2(L_k/2) + sin^2((theta + theta0)/2))).

    Each term is evaluated as 1/2 log1p(-rho) with rho = sin(theta)
    sin(theta0) / (sinh^2(L_k/2) + sin^2((theta + theta0)/2)), which
    involves no cancellation however small the term; only next to the
    pole (rho > 1/2) is the quotient itself taken.
    """
    _, theta, theta0, offsets = _strip_coords(q, w, z)
    num = np.sin(theta) * math.sin(theta0)
    a_minus = np.sin(0.5 * (theta - theta0)) ** 2
    a_plus = np.sin(0.5 * (theta + theta0)) ** 2
    acc = np.zeros(np.shape(z))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lk in offsets:
            sh2 = np.sinh(0.5 * lk) ** 2
            rho = num / (sh2 + a_plus)
            term = np.log1p(-rho)
            near = rho > 0.5
            if np.any(near):
                term = np.where(near, np.log((sh2 + a_minus) / (sh2 + a_plus)), term)
            acc += 0.5 * term
    return acc


def _dual_images(q: float, w: Point, z: np.ndarray):
    """Per image: v_k = exp(-|L_k| +- i theta) with |v_k| <= 1, the sign
    eps_k = +-1 of L_k, and D_k = (1 - v_k e^{i theta0})(1 - v_k e^{-i theta0}).

    The image term of f' is proportional to v/D; v is the image point of
    the upper half-plane model or its inverse, whichever lies in the unit
    disc, so nothing overflows however far the image sits.
    """
    h, theta, theta0, offsets = _strip_coords(q, w, z)
    e0 = complex(math.cos(theta0), math.sin(theta0))
    out = []
    for lk in offsets:
        eps = np.where(lk >= 0, 1.0, -1.0)
        v = np.exp(-np.abs(lk) + 1j * eps * theta)
        out.append((v, eps, (1.0 - v * e0) * (1.0 - v * e0.conjugate())))
    return h, theta0, out


def _dual_fprime(q: float, w: Point, z: np.ndarray) -> np.ndarray:
    """f' = -(2 pi sin(theta0) / (h z)) sum_k v_k / D_k."""
    h, theta0, images = _dual_images(q, w, z)
    acc = sum(v / d for v, _, d in images)
    return -(2.0 * math.pi * math.sin(theta0) / h) * acc / z


def _dual_fsecond(q: float, w: Point, z: np.ndarray) -> np.ndarray:
    """f'' from f' = C(z) S with C = -2 pi sin(theta0) / (h z):
    f'' = (C / z) (-S + (i pi / h) sum_k eps_k v_k (1 - v_k^2) / D_k^2)."""
    h, theta0, images = _dual_images(q, w, z)
    s = sum(v / d for v, _, d in images)
    t = sum(eps * v * (1.0 - v * v) / (d * d) for v, eps, d in images)
    c = -2.0 * math.pi * math.sin(theta0) / h
    return c * (-s + (1j * math.pi / h) * t) / (z * z)


def _dual_tail_bound(q: float, w: Point, z: np.ndarray) -> np.ndarray:
    """Bound on the dropped images |k| > K: each is below 2.2 |sin(theta)
    sin(theta0)| exp(-|L_k|), and beyond k = +-(K+1) they fall off by
    the factor p per image."""
    h, theta, theta0, offsets = _strip_coords(q, w, z)
    step = 2.0 * math.pi**2 / h
    edge = np.exp(-np.abs(offsets[-1] + step)) + np.exp(-np.abs(offsets[0] - step))
    return 2.2 * np.abs(np.sin(theta) * math.sin(theta0)) * edge / (1.0 - math.exp(_dual_log_nome(q)))


# ---------------------------------------------------------------------------
# Raw field evaluation (no membership checks; callers mask)
# ---------------------------------------------------------------------------


def _require_series_domain(domain: Domain) -> tuple[Domain, tuple[complex, complex, complex, complex]]:
    core, coeffs = geo.flatten_moebius(domain)
    if isinstance(core, (Polygon, PolarComplement)):
        raise UnsupportedDomain(f"no series Green function for {type(core).__name__}; use the Monte Carlo oracle")
    return core, coeffs


def green_values_raw(domain: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """G(z, w) evaluated by formula on an array of z.

    No membership clipping: the closed forms continue analytically a short
    distance past the boundary, which the grid machinery exploits so that
    level-line interpolation stays exact near the boundary.
    """
    core, coeffs = _require_series_domain(domain)
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        zeta_z = geo.moebius_inverse(coeffs, z)
        return green_values_raw(core, zeta_w, zeta_z)
    with np.errstate(divide="ignore"):  # log(0) = -inf at the pole is correct
        if isinstance(core, Disc):
            u = z - core.center
            v = w - core.center
            r2 = core.radius * core.radius
            return np.log(core.radius * np.abs(z - w) / np.abs(r2 - np.conj(v) * u))
        return _dual_values(core.q, w, z)


def green_fprime_raw(domain: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """f'(z) where G = Re f; grad G = (Re f', -Im f')."""
    core, coeffs = _require_series_domain(domain)
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        zeta_z = geo.moebius_inverse(coeffs, z)
        a, b, c, d = coeffs
        det = a * d - b * c
        inv_prime = det / (a - c * z) ** 2  # derivative of the inverse map
        return green_fprime_raw(core, zeta_w, zeta_z) * inv_prime
    if isinstance(core, Disc):
        v = w - core.center
        r2 = core.radius * core.radius
        return 1.0 / (z - w) + np.conj(v) / (r2 - np.conj(v) * (z - core.center))
    return _dual_fprime(core.q, w, z)


def green_fsecond_raw(domain: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """f''(z); the full Hessian of G follows since G is harmonic."""
    core, coeffs = _require_series_domain(domain)
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        zeta_z = geo.moebius_inverse(coeffs, z)
        a, b, c, d = coeffs
        det = a * d - b * c
        ip = det / (a - c * z) ** 2
        ipp = 2.0 * c * det / (a - c * z) ** 3
        return green_fsecond_raw(core, zeta_w, zeta_z) * ip * ip + green_fprime_raw(core, zeta_w, zeta_z) * ipp
    if isinstance(core, Disc):
        v = w - core.center
        r2 = core.radius * core.radius
        return -1.0 / (z - w) ** 2 + np.conj(v) ** 2 / (r2 - np.conj(v) * (z - core.center)) ** 2
    return _dual_fsecond(core.q, w, z)


def green_truncation_bound(domain: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """Reported bound on the series truncation error of G (0 for closed forms)."""
    core, coeffs = _require_series_domain(domain)
    z = np.asarray(z, dtype=complex)
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        zeta_z = geo.moebius_inverse(coeffs, z)
        return green_truncation_bound(core, zeta_w, zeta_z)
    if isinstance(core, Disc):
        return np.zeros(z.shape)
    return _dual_tail_bound(core.q, w, z)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def green_eval(domain: Domain, w: Point, z: Point) -> GreenValue:
    """Value and gradient of the Green function G(., w) at z."""
    if isinstance(domain, (Polygon, PolarComplement)):
        raise UnsupportedDomain("green_eval supports Disc, Annulus and their Moebius images")
    if z == w:
        raise CoincidentPoints("Green function pole: z == w")
    if not geo.contains(domain, w):
        raise PointOutsideDomain(f"pole {w} outside domain")
    if not geo.contains(domain, z):
        raise PointOutsideDomain(f"evaluation point {z} outside domain")
    za = np.asarray(z, dtype=complex)
    value = float(green_values_raw(domain, w, za))
    fp = complex(green_fprime_raw(domain, w, za))
    bound = float(green_truncation_bound(domain, w, za))
    return GreenValue(value=value, grad_x=fp.real, grad_y=-fp.imag, truncation_bound=bound)


def robin_capacity(domain: Domain, w: Point) -> CapacityResult:
    """Logarithmic capacity c(w) = exp(Robin constant) of the complement.

    The log singularity is cancelled inside the series (the k = 0 image is
    taken to its limit in closed form), never by subtracting two nearly
    equal logarithms.
    """
    if isinstance(domain, PolarComplement):
        if not geo.contains(domain, w):
            raise PointOutsideDomain(f"{w} outside domain")
        return CapacityResult(capacity=0.0, robin_constant=-math.inf, truncation_bound=0.0)
    if isinstance(domain, Polygon):
        raise UnsupportedDomain("capacity on polygons is oracle territory")
    if not geo.contains(domain, w):
        raise PointOutsideDomain(f"{w} outside domain")
    core, coeffs = geo.flatten_moebius(domain)
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        base = robin_capacity(core, zeta_w)
        scale = abs(geo.moebius_fprime(coeffs, zeta_w))
        robin = base.robin_constant - math.log(scale)
        return CapacityResult(capacity=math.exp(robin), robin_constant=robin, truncation_bound=base.truncation_bound)
    if isinstance(core, Disc):
        d2 = abs(w - core.center) ** 2
        c = core.radius / (core.radius**2 - d2)
        return CapacityResult(capacity=c, robin_constant=math.log(c), truncation_bound=0.0)
    # The k = 0 image gives log|z - w| + log(pi / (2 h |w| sin(theta0)))
    # as z -> w; every other image pair is taken at z = w, where its
    # 1/2 log1p(-rho) terms carry no singularity.  sin(theta0) is read from
    # the nearer circle, log(|w|/q) = log1p((|w| - q)/q) or log(1/|w|), so
    # it keeps its relative accuracy next to either circle of a thin ring.
    q, r = core.q, abs(w)
    h = -math.log(q)
    s = math.sin(math.pi * min(math.log1p((r - q) / q), -math.log(r)) / h)
    k = np.arange(1, annulus_dual_terms(q) + 1)
    with np.errstate(over="ignore"):
        sh2 = np.sinh(k * (math.pi**2 / h)) ** 2
    robin = math.log(math.pi / (2.0 * h * r * s)) + float(np.sum(np.log1p(-s * s / (sh2 + s * s))))
    tail = float(_dual_tail_bound(q, w, np.asarray(w, dtype=complex)))
    return CapacityResult(capacity=math.exp(robin), robin_constant=robin, truncation_bound=tail)


def disc_max_green(domain: Domain, w: Point, r: float, n_angles: int = 4096) -> float:
    """Maximum of G(., w) over the closed disc of radius r around w.

    G is subharmonic there, so the maximum sits on the circle |z - w| = r.
    Dense angular sampling (offset half a spacing so a boundary tangency is
    never hit exactly) plus one parabolic refinement per local maximum, and
    a second-order modulus-of-continuity margin capped at 1e-8.  The result
    is capped at zero; at r equal to the boundary distance the closed disc
    touches the boundary, where G = 0, and 0.0 is returned.
    """
    if isinstance(domain, (Polygon, PolarComplement)):
        raise UnsupportedDomain("disc_max_green supports Disc, Annulus and their Moebius images")
    delta = geo.boundary_distance(domain, w)
    if not (0 < r <= delta * (1 + 1e-12)):
        raise RadiusTooLarge(f"r={r} exceeds boundary distance {delta}")
    if r >= delta:
        return 0.0
    dtheta = 2 * math.pi / n_angles
    theta = (np.arange(n_angles) + 0.5) * dtheta
    circle = w + r * np.exp(1j * theta)
    vals = green_values_raw(domain, w, circle)
    # Parabolic refinement through each discrete local maximum.
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    is_max = (vals >= left) & (vals >= right)
    best = float(np.max(vals))
    idx = np.nonzero(is_max)[0]
    denom = right[idx] - 2 * vals[idx] + left[idx]
    ok = denom < -1e-300
    offset = np.zeros(len(idx))
    offset[ok] = 0.5 * dtheta * (left[idx][ok] - right[idx][ok]) / denom[ok]
    offset = np.clip(offset, -dtheta, dtheta)
    refined_pts = w + r * np.exp(1j * (theta[idx] + offset))
    refined_vals = green_values_raw(domain, w, refined_pts)
    if len(refined_vals):
        best = max(best, float(np.max(refined_vals)))
    second = np.abs(right - 2 * vals + left) / dtheta**2
    margin = min(float(np.max(second)) * dtheta**2 / 8.0, 1e-8)
    return min(best + margin, 0.0)


def boundary_flux(domain: Domain, w: Point, n: int) -> float:
    """Flux of the outward normal derivative of G(., w) over the boundary.

    One-sided second-order differences along inward normals, step tied to
    the node spacing; trapezoid quadrature per circle (spectrally accurate
    for these smooth periodic integrands).  Converges to 2*pi.
    """
    if not isinstance(domain, (Disc, Annulus)):
        raise UnsupportedDomain("boundary_flux supports Disc and Annulus")
    if n < 64:
        raise ValueError("need at least 64 quadrature nodes")
    if not geo.contains(domain, w):
        raise PointOutsideDomain(f"{w} outside domain")
    samples = geo.boundary_sample(domain, n)
    pts = np.array([p for p, _ in samples])
    nrm = np.array([v for _, v in samples])
    if isinstance(domain, Disc):
        weights = np.full(n, 2 * math.pi * domain.radius / n)
        spacing = weights
    else:
        q = domain.q
        n_outer = int(round(n / (1.0 + q)))
        n_outer = min(max(n_outer, 1), n - 1)
        n_inner = n - n_outer
        weights = np.concatenate(
            [np.full(n_outer, 2 * math.pi / n_outer), np.full(n_inner, 2 * math.pi * q / n_inner)]
        )
        spacing = weights
    h = 1e-4 * spacing
    g_half = green_values_raw(domain, w, pts - 0.5 * h * nrm)
    g_full = green_values_raw(domain, w, pts - h * nrm)
    # G = 0 on the boundary; (G(-h) - 4 G(-h/2)) / h = G_n + O(h^2).
    g_n = (g_full - 4.0 * g_half) / h
    return float(np.sum(g_n * weights))


# ---------------------------------------------------------------------------
# Critical points
# ---------------------------------------------------------------------------


def critical_points(domain: Domain, w: Point) -> list[CriticalPoint]:
    """All zeros of grad G(., w).

    Simply connected domains have none: an empty list is returned for a
    disc (or Moebius image of one).  An annulus has exactly one, and it
    lies on the far ray z = r u, u = -w/|w|, q < r < 1: reflection through
    the line of the pole maps the ring and the pole to themselves, so
    grad G is radial along that line, and G, which vanishes at both ends
    of the segment and is negative in between, has its minimum there.  r is
    the root of g(r) = Re(f'(r u) u) by Newton steps g / Re(f'' u^2) kept
    inside the shrinking sign-change bracket (bisection otherwise), down
    to rounding.  The point is nondegenerate (|f''| > 0), of order 2.  A
    Moebius image pulls the pole back and pushes the point forward.
    ConvergenceFailure is raised when g shows no sign change on (q, 1), as
    when the field underflows across a very thin ring.
    """
    core, coeffs = geo.flatten_moebius(domain)
    if isinstance(core, (Polygon, PolarComplement)):
        raise UnsupportedDomain("critical_points needs a series Green function")
    if not geo.contains(domain, w):
        raise PointOutsideDomain(f"{w} outside domain")
    if isinstance(core, Disc):
        return []
    zeta_w = geo.moebius_inverse(coeffs, w) if isinstance(domain, MoebiusImage) else w
    q = core.q
    u = -zeta_w / abs(zeta_w)

    def slope(r: float) -> float:
        return (complex(green_fprime_raw(core, zeta_w, np.asarray(r * u))) * u).real

    lo, hi = q, 1.0
    if not (slope(lo) < 0 < slope(hi)):
        raise ConvergenceFailure(
            f"dG/dr shows no sign change on the far ray of Annulus({q}) from the pole {zeta_w}: "
            f"G there is about exp(-pi^2/log(1/q)) = exp({-math.pi**2 / -math.log(q):.4g}), "
            "below the double range"
        )
    r = math.sqrt(q)
    for _ in range(200):
        g = slope(r)
        if g == 0:
            break
        if g < 0:
            lo = r
        else:
            hi = r
        dg = (complex(green_fsecond_raw(core, zeta_w, np.asarray(r * u))) * u * u).real
        nxt = r - g / dg if dg > 0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt in (lo, hi, r):
            break
        r = nxt
    else:
        raise ConvergenceFailure(f"no root of dG/dr found on the far ray of Annulus({q}) from the pole {zeta_w}")
    zc = r * u
    if not abs(complex(green_fsecond_raw(core, zeta_w, np.asarray(zc)))) > 0:
        raise ConvergenceFailure(f"degenerate critical point at {zc}: f'' vanishes")
    resid = abs(complex(green_fprime_raw(core, zeta_w, np.asarray(zc))))
    level = float(green_values_raw(core, zeta_w, np.asarray(zc)))
    if isinstance(domain, MoebiusImage):
        z_img = complex(geo.moebius_forward(coeffs, zc))
        return [CriticalPoint(z_img, level, resid / abs(geo.moebius_fprime(coeffs, zc)), 2)]
    return [CriticalPoint(zc, level, resid, 2)]
