"""Green functions, Robin constants and logarithmic capacity on model domains.

The (negative) Green function G(., w) of a domain is harmonic away from the
pole w, behaves like log|z - w| at the pole, and vanishes on the boundary.
Closed forms used here:

* The unit disc: G(z, w) = log( |z - w| / |1 - conj(w) z| ); a disc
  Disc(c, R) is its image under z -> c + R z, pulled back like any other
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
holomorphic in z, grad G = (Re f', -Im f').  The same f'' gives the slope
for the Newton search of critical points.  That search, and every root
the sublevel module solves, runs on one vectorized, safeguarded bracketed
Newton (_newton).

Everything is vectorized over numpy arrays of complex z.  The annulus
series makes one pass per point set (green_field), for every part the
caller needs there: it forms the strip coordinates once, holds the images
on the leading array axis, and takes z in fixed-size blocks, returning
whichever of G, f', f'' and the tail bound are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConvergenceFailure, InvalidArgument, PointOutsideDomain
from .geometry import Annulus, Disc, Domain, Point, PolarComplement

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


# Points per block of the dual-nome pass: the image axis holds at most
# (2K + 1) * _BLOCK values, however many points are asked for.
_BLOCK = 8192


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


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the image axis from 0.0, one image after another (np.sum
    would add runs of them pairwise, which moves the last bit)."""
    acc = 0.0 + rows[0]
    for row in rows[1:]:
        acc += row
    return acc


def _dual_field(q: float, w: Point, z: np.ndarray, parts: tuple[str, ...]) -> list[np.ndarray]:
    """The parts of the field of Annulus(q) at z, in the order asked: "g"
    (G), "f1" (f'), "f2" (f'') and "tail" (the truncation bound of G).

    theta = pi log(|z|/q) / h in (0, pi) crosses the ring, and the image k
    sits at the offset L_k = pi (arg(z/w) + 2 pi k) / h along the strip,
    with the principal arg(z/w), so |L_0| <= pi^2 / h.

    G = sum_k 1/2 log((sinh^2(L_k/2) + sin^2((theta - theta0)/2)) /
    (sinh^2(L_k/2) + sin^2((theta + theta0)/2))), each term taken as
    1/2 log1p(-rho), rho = sin(theta) sin(theta0) / (sinh^2(L_k/2) +
    sin^2((theta + theta0)/2)), which has no cancellation however small the
    term; only next to the pole (rho > 1/2) is the quotient itself taken.

    f' = C S / z and f'' = (C / z^2) (-S + (i pi / h) sum_k eps_k v_k (1 -
    v_k^2) / D_k^2), with C = -2 pi sin(theta0) / h, S = sum_k v_k / D_k,
    v_k = exp(-|L_k| +- i theta), eps_k = +-1 the sign of L_k and D_k =
    (1 - v_k e^{i theta0})(1 - v_k e^{-i theta0}).  |v_k| <= 1: v is the
    image point of the upper half-plane model or its inverse, whichever
    lies in the unit disc, so nothing overflows however far the image sits.

    The dropped images |k| > K are each below 2.2 |sin(theta) sin(theta0)|
    exp(-|L_k|), and beyond k = +-(K+1) they fall off by the factor p.
    """
    h = -math.log(q)
    theta0 = math.pi * math.log(abs(w) / q) / h
    sin0 = math.sin(theta0)
    e0 = complex(math.cos(theta0), sin0)
    c = -2.0 * math.pi * sin0 / h
    step = 2.0 * math.pi**2 / h
    n = annulus_dual_terms(q)
    shifts = np.arange(-n, n + 1) * step
    if z.ndim:  # a 0-d z is one block, whose images lie on a 1-D array
        shifts = shifts[:, None]
    blocks = [z] if z.ndim == 0 else [z.reshape(-1)[b : b + _BLOCK] for b in range(0, max(z.size, 1), _BLOCK)]
    cw = np.conj(w)
    results = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for zb in blocks:
            zw = zb * cw
            theta = math.pi * np.log(np.abs(zb) / q) / h
            offsets = math.pi * np.arctan2(zw.imag, zw.real) / h + shifts
            out = {}
            if "g" in parts or "tail" in parts:
                neg_num = np.sin(theta) * -sin0
            if "g" in parts:
                s_plus = np.sin(0.5 * (theta + theta0))
                a_plus = s_plus * s_plus  # not ** 2, which is pow() on a numpy scalar
                sh2 = np.sinh(0.5 * offsets) ** 2
                neg_rho = neg_num / (sh2 + a_plus)
                terms = np.log1p(neg_rho)
                near = neg_rho < -0.5
                if near.any():
                    s_minus = np.sin(0.5 * (theta - theta0))
                    a_minus = s_minus * s_minus
                    terms = np.where(near, np.log((sh2 + a_minus) / (sh2 + a_plus)), terms)
                out["g"] = _row_sum(0.5 * terms)
            if "f1" in parts or "f2" in parts:
                # eps (i theta - L) = -|L| +- i theta exactly: L_k is never -0.0
                eps = np.copysign(1.0, offsets)
                v = np.exp(eps * (1j * theta - offsets))
                d = (1.0 - v * e0) * (1.0 - v * e0.conjugate())
                s = _row_sum(v / d)
                out["f1"] = c * s / zb
            if "f2" in parts:
                t = _row_sum(eps * v * (1.0 - v * v) / (d * d))
                out["f2"] = c * (-s + (1j * math.pi / h) * t) / (zb * zb)
            if "tail" in parts:
                # exp(-|L|) at L_{K+1} = L_K + step > 0 and L_{-K-1} = L_{-K} - step < 0
                edge = np.exp(-step - offsets[-1]) + np.exp(offsets[0] - step)
                out["tail"] = 2.2 * np.abs(neg_num) * edge / (1.0 - math.exp(_dual_log_nome(q)))
            results.append([out[p] for p in parts])
    if z.ndim == 0:
        return results[0]
    columns = results[0] if len(results) == 1 else [np.concatenate(col) for col in zip(*results)]
    return [col.reshape(z.shape) for col in columns]


# ---------------------------------------------------------------------------
# Raw field evaluation (no membership checks; callers mask)
# ---------------------------------------------------------------------------


def _field(pb: geo.PullBack, zeta: np.ndarray, z: np.ndarray, parts: tuple[str, ...]) -> list[np.ndarray]:
    """The parts (see _dual_field) of G at z, from the field of the core
    with pole pb.zeta_w at the pulled-back points zeta; f' and f'' are
    pushed through the inverse of the Moebius map of an image."""
    core, coeffs, w = pb
    inner = parts
    if coeffs is not None and "f2" in parts and "f1" not in parts:
        inner = parts + ("f1",)  # the push of f'' needs f'
    if isinstance(core, Annulus):
        out = dict(zip(inner, _dual_field(core.q, w, zeta, inner)))
    else:  # the unit disc's closed forms
        wc = np.conj(w)
        forms = {
            "g": lambda: np.log(np.abs(zeta - w) / np.abs(1.0 - wc * zeta)),
            "f1": lambda: 1.0 / (zeta - w) + wc / (1.0 - wc * zeta),
            "f2": lambda: -1.0 / (zeta - w) ** 2 + wc**2 / (1.0 - wc * zeta) ** 2,
            "tail": lambda: np.zeros(zeta.shape),
        }
        with np.errstate(divide="ignore"):  # log(0) = -inf at the pole is correct
            out = {p: forms[p]() for p in inner}
    if coeffs is not None and ("f1" in out or "f2" in out):
        a, b, c, d = coeffs
        det = a * d - b * c
        ip = det / (a - c * z) ** 2  # derivative of the inverse map
        if "f2" in out:
            ipp = 2.0 * c * det / (a - c * z) ** 3
            out["f2"] = out["f2"] * ip * ip + out["f1"] * ipp
        out["f1"] = out["f1"] * ip
    return [out[p] for p in parts]


def green_field(domain: Domain, w: Point, z, parts: tuple[str, ...]) -> list[np.ndarray]:
    """The parts of the field at z, in the order asked: "g" (G), "f1" (f'),
    "f2" (f'') and "tail" (the truncation bound of G), from one pass.

    z is pulled back once, and neither w nor z is checked for membership.
    Each part has the same bits whichever other parts are asked with it.
    """
    pb = geo.pull_back(domain, w, check=False)
    z = np.asarray(z, dtype=complex)
    return _field(pb, pb.pull(z), z, tuple(parts))


def green_values_raw(domain: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """G(z, w) evaluated by formula on an array of z.

    No membership clipping: the closed forms continue analytically a short
    distance past the boundary, which the grid machinery exploits so that
    level-line interpolation stays exact near the boundary.
    """
    return green_field(domain, w, z, ("g",))[0]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def green_eval(domain: Domain, w: Point, z: Point) -> GreenValue:
    """Value and gradient of the Green function G(., w) at z, with a bound
    on the series truncation error of G (0 for closed forms)."""
    pb = geo.pull_back(domain, w)
    if z == w:
        raise PointOutsideDomain("Green function pole: z == w")
    zs = np.asarray(z, dtype=complex)
    zeta = pb.pull(zs)
    if not geo.contains(pb.core, zeta):
        raise PointOutsideDomain(f"evaluation point {z} outside domain")
    value, fp, bound = _field(pb, zeta, zs, ("g", "f1", "tail"))
    fp = complex(fp)
    return GreenValue(value=float(value), grad_x=fp.real, grad_y=-fp.imag, truncation_bound=float(bound))


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
    core, coeffs, zeta_w = geo.pull_back(domain, w)
    if isinstance(core, Disc):  # the unit disc; (1 - r)(1 + r) keeps its digits next to the circle
        r = abs(zeta_w)
        cap = 1.0 / ((1.0 - r) * (1.0 + r))
        robin, tail = math.log(cap), 0.0
    else:
        # The k = 0 image gives log|z - w| + log(pi / (2 h |w| sin(theta0)))
        # as z -> w; every other image pair is taken at z = w, where its
        # 1/2 log1p(-rho) terms carry no singularity.  sin(theta0) is read
        # from the nearer circle, log(|w|/q) = log1p((|w| - q)/q) or
        # log(1/|w|), so it keeps its relative accuracy next to either
        # circle of a thin ring.
        q, r = core.q, abs(zeta_w)
        h = -math.log(q)
        s = math.sin(math.pi * min(math.log1p((r - q) / q), -math.log(r)) / h)
        k = np.arange(1, annulus_dual_terms(q) + 1)
        with np.errstate(over="ignore"):
            sh2 = np.sinh(k * (math.pi**2 / h)) ** 2
        robin = math.log(math.pi / (2.0 * h * r * s)) + float(np.sum(np.log1p(-s * s / (sh2 + s * s))))
        tail = float(_dual_field(q, zeta_w, np.asarray(zeta_w, dtype=complex), ("tail",))[0])
        cap = math.exp(robin)
    if coeffs is not None:  # the capacity of an image scales by 1/|F'|
        robin -= math.log(abs(geo.moebius_fprime(coeffs, zeta_w)))
        cap = math.exp(robin)
    return CapacityResult(capacity=cap, robin_constant=robin, truncation_bound=tail)


_DISC_MAX_SCAN = 64  # angles of the coarse scan of the circle on an annulus core
_ULP = 0.5 * np.finfo(float).eps  # unit roundoff u = 2^-53


def _point_shift(pb: geo.PullBack, w: Point, r: float) -> float:
    """Lambda such that G computed at a computed point of the circle |z -
    w| = r is G at a point within u Lambda of it (u the unit roundoff),
    times 1 + eps with |eps| <= 16 u.  The point w + r e^{i theta} is
    rounded by 2 u s, s = |w| + r.  The pull-back (dz - b) / (a - cz) is
    rounded by 3 u (|a| + |b| + (|c| + |d|) s) / |a - cz| on the core,
    where |zeta| <= 1, and a shift of zeta is one of z scaled by |a -
    cz|^2 / |ad - bc|.  The core's forms read their arguments as at a
    point within 8 u of zeta on the unit disc (|zeta - w| and 1 - conj(w)
    zeta), and within (8 + 4h) u on Annulus(q), h = log(1/q), where the
    strip coordinates come from log(|zeta|/q) and the angle of zeta
    conj(w); the image terms of G have one sign, each good to 16 u."""
    a, b, c, d = geo.IDENTITY_COEFFS if pb.coeffs is None else pb.coeffs
    s = abs(w) + r
    far = abs(a - c * w) + abs(c) * r  # the largest |a - cz| on the circle
    forms = 8.0 if isinstance(pb.core, Disc) else 8.0 - 4.0 * math.log(pb.core.q)  # the core's forms, in u
    return 2.0 * s + (3.0 * (abs(a) + abs(b) + (abs(c) + abs(d)) * s) + forms * far) * far / abs(a * d - b * c)


def _disc_core_max(domain: Domain, w: Point, r: float) -> tuple[float, float]:
    """Max of G on the circle and the largest |grad G| there, on a domain
    whose core is the unit disc.  Such a domain is the disc (centre, R) of
    its one boundary circle (moebius_circles for an image), and G is
    conformally invariant.  Scaled by R, the pole sits at t = |w - centre|
    / R, and the automorphism that sends it to 0 maps the circle of radius
    rho = r / R to one of centre c' and radius rho', on which G = log|zeta|
    peaks at |c'| + rho' = rho / (1 - t^2 - t rho).  With delta = R - |w -
    centre| and eps = delta - r, 1 - t^2 - t rho = (delta + t eps) / R and
    1 - |c'| - rho' = (1 + t) eps / (delta + t eps): sums of positive
    terms, with no cancellation next to the circle."""
    ((centre, radius),) = domain.circles
    dist = abs(w - centre)
    t, delta = dist / radius, radius - dist
    eps = delta - r
    den = delta + t * eps
    peak = r / den  # |c'| + rho'
    value = math.log(peak) if peak < 0.5 else math.log1p(-(1.0 + t) * eps / den)
    # |grad G| = |phi'| / |phi| <= max |phi'| / min |phi| on the circle
    grad = delta * (1.0 + t) * (delta * (1.0 + t) + t * r) / (r * den * den)
    return value, grad


def _circle_field(domain: Domain, w: Point, r: float, theta: np.ndarray):
    """G, G_theta, G_theta_theta and |f'| at w + r e^{i theta}, from one pass."""
    e = r * np.exp(1j * theta)
    g, f1, f2 = green_field(domain, w, w + e, ("g", "f1", "f2"))
    ef1 = e * f1
    return g, -ef1.imag, (-(e * e) * f2 - ef1).real, np.abs(f1)


def _annulus_core_max(domain: Domain, w: Point, r: float, shift: float) -> tuple[float, float, float]:
    """Max of G on the circle, the largest |f'| met there and what the last
    Newton step would still add, on a domain whose core is an annulus.

    A scan of _DISC_MAX_SCAN angles reads G, f' and f''.  Every discrete
    local maximum whose interval could reach the best sample, with
    G_theta_theta = Re(-r^2 e^{2 i theta} f'' - r e^{i theta} f') bounded
    by its largest sampled size, starts a bracketed Newton iteration on
    G_theta = -Im(r e^{i theta} f'), all of them in one pass of the field
    per step.  The iteration stops when no step would raise G by more than
    an eighth of the rounding of one evaluation (_point_shift)."""
    h = 2.0 * math.pi / _DISC_MAX_SCAN
    theta = h * np.arange(_DISC_MAX_SCAN)
    g, gt, gtt, grad = _circle_field(domain, w, r, theta)
    best, steep = float(np.max(g)), float(np.max(grad))
    curv = float(np.max(np.abs(gtt)))
    peak = (g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
    k = np.nonzero(peak & (g + np.abs(gt) * h + 0.5 * curv * h * h >= best))[0]
    # the root of G_theta lies on the side of the sample that G_theta points to
    t, gt, gtt = theta[k], gt[k], gtt[k]
    lo = t - h * (gt < 0)
    hi = lo + h
    for _ in range(64):  # bisection alone narrows a bracket to rounding within 64 steps
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(gtt < 0, t - gt / gtt, math.nan)
        # a step below the spacing of doubles lands on a bracket end, not in it
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        rise = float(np.max(np.abs(gt * (nxt - t))))
        if rise <= _ULP * (16.0 * abs(best) + shift * steep) / 8.0:
            break
        t = nxt
        g, gt, gtt, grad = _circle_field(domain, w, r, t)
        best, steep = max(best, float(np.max(g))), max(steep, float(np.max(grad)))
        lo = np.where(gt > 0, t, lo)
        hi = np.where(gt < 0, t, hi)
    return best, steep, rise


def _disc_max(domain: Domain, w: Point, r: float) -> tuple[float, float]:
    """The maximum m of G(., w) on the circle |z - w| = r < delta, as
    computed, and its rounding allowance 2 u (16 |m| + Lambda g) + rise:
    Lambda from _point_shift, g the largest |grad G| on the circle, rise
    what the last Newton step would still add (0 in closed form).  A
    value of G computed on the circle is off by at most u (16 |G| + Lambda
    g), and m is one such value (or the closed form, whose rounding is
    smaller).  The allowance covers m's rounding and shortfall and the
    rounding of one more value, so m plus the allowance is at least every
    computed value of G on the circle, and above the true maximum by less
    than twice the allowance."""
    pb = geo.pull_back(domain, w)
    shift = _point_shift(pb, w, r)
    if isinstance(pb.core, Disc):
        (value, grad), rise = _disc_core_max(domain, w, r), 0.0
    else:
        value, grad, rise = _annulus_core_max(domain, w, r, shift)
    return value, 2.0 * _ULP * (16.0 * abs(value) + shift * grad) + rise


def disc_max_green(domain: Domain, w: Point, r: float) -> float:
    """Maximum of G(., w) over the closed disc of radius r around w.

    G is subharmonic there, so the maximum sits on the circle |z - w| = r.
    On a disc core (the unit disc, Disc(c, R), a Moebius image of a disc)
    it is closed-form: the automorphism that sends the pole to 0 maps the
    circle to a circle of centre c' and radius rho', and the maximum is
    log(|c'| + rho').  On an annulus core a scan of the circle finds the
    local maxima that could be the largest, and bracketed Newton on
    G_theta takes each to rounding.  The returned value is the maximum plus
    a rounding allowance (_disc_max): it is at least every computed value
    of G on the circle, and above the true maximum by less than twice the
    allowance.  The result is capped at zero; at r equal to the boundary
    distance the closed disc touches the boundary, where G = 0, and 0.0 is
    returned.
    """
    geo.pull_back(domain, w)  # refuses a domain with no series and a pole outside
    delta = geo.boundary_distance(domain, w)
    if not (0 < r <= delta * (1 + 1e-12)):
        raise InvalidArgument(f"r={r} exceeds boundary distance {delta}")
    if r >= delta:
        return 0.0
    value, allowance = _disc_max(domain, w, r)
    return min(value + allowance, 0.0)


def boundary_flux(domain: Domain, w: Point, n: int) -> float:
    """Flux of the outward normal derivative of G(., w) over the boundary.

    Re(f' n) at the domain's boundary nodes, n the outward unit normal, is
    read from one pass of the field and summed with the nodes' trapezoid
    weights (spectrally accurate for these smooth periodic integrands, so
    the node count alone sets the error).  Converges to 2*pi on the
    families that pull_back serves.
    """
    pb = geo.pull_back(domain, w)
    if n < 64:
        raise InvalidArgument("need at least 64 quadrature nodes")
    pts, nrm, wts = domain._nodes(n)
    (f1,) = _field(pb, pb.pull(pts), pts, ("f1",))
    return float(np.sum((f1 * nrm).real * wts))


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


_SWEEPS = 200  # Newton sweeps before a root is declared lost


def _newton(fun, lo, hi, x, tol, noise=0.0):
    """Roots of increasing functions, one per bracket [lo, hi] with fun(lo) < 0 < fun(hi).

    fun(x, idx) returns the values and slopes at x of the problems idx; all
    open problems take one step per sweep.  A step that leaves the bracket
    becomes a bisection; an exact zero, or a step that rounds to nothing,
    is kept.  A root is done when its step or its bracket falls to tol, or
    its value to the rounding noise of fun (an array, or 0 for none).
    """
    noise = np.broadcast_to(noise, np.shape(x))
    lo, hi, x = (np.array(a, dtype=float) for a in (lo, hi, x))
    idx = np.arange(x.size)
    for _ in range(_SWEEPS):
        if idx.size == 0:
            return x
        cur = x[idx]
        g, dg = fun(cur, idx)
        a = lo[idx] = np.where(g < 0, cur, lo[idx])
        b = hi[idx] = np.where(g > 0, cur, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = cur - g / dg
        nxt = np.where((g == 0) | (nxt == cur), cur, np.where((nxt > a) & (nxt < b), nxt, 0.5 * (a + b)))
        x[idx] = nxt
        idx = idx[~((np.abs(g) <= noise[idx]) | (np.abs(nxt - cur) <= tol) | (b - a <= tol))]
    raise ConvergenceFailure(f"{idx.size} roots not found in {_SWEEPS} Newton sweeps")


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
    the root of g(r) = Re(f'(r u) u), with slope Re(f''(r u) u^2), found by
    _newton on the bracket (q, 1) from sqrt(q) down to a step of 4 u (u
    the unit roundoff).  The point is nondegenerate (|f''| > 0), of order
    2.  A Moebius image pulls the pole back and pushes the point forward.
    ConvergenceFailure is raised when g shows no sign change on (q, 1), as
    when the field underflows across a very thin ring.
    """
    core, coeffs, zeta_w = geo.pull_back(domain, w)
    if len(core.circles) == 1:  # simply connected
        return []
    q = core.q
    u = -zeta_w / abs(zeta_w)
    (ends,) = green_field(core, zeta_w, np.array([q, 1.0]) * u, ("f1",))
    if not ((ends[0] * u).real < 0 < (ends[1] * u).real):
        raise ConvergenceFailure(
            f"dG/dr shows no sign change on the far ray of Annulus({q}) from the pole {zeta_w}: "
            f"G there is about exp(-pi^2/log(1/q)) = exp({-math.pi**2 / -math.log(q):.4g}), "
            "below the double range"
        )

    def slope(r, _):
        f1, f2 = green_field(core, zeta_w, r * u, ("f1", "f2"))
        return (f1 * u).real, (f2 * u * u).real

    r = float(_newton(slope, [q], [1.0], [math.sqrt(q)], 4 * _ULP)[0])
    zc = r * u
    g, f1, f2 = green_field(core, zeta_w, np.asarray(zc), ("g", "f1", "f2"))
    if not abs(complex(f2)) > 0:
        raise ConvergenceFailure(f"degenerate critical point at {zc}: f'' vanishes")
    resid = abs(complex(f1))
    level = float(g)
    if coeffs is not None:
        z_img = complex(geo.moebius_forward(coeffs, zc))
        return [CriticalPoint(z_img, level, resid / abs(geo.moebius_fprime(coeffs, zc)), 2)]
    return [CriticalPoint(zc, level, resid, 2)]
