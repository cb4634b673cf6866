"""Diagonal Bergman kernels and their higher-derivative relatives.

K(w) is the classical reproducing-kernel diagonal: the largest |f(w)|^2
over unit-norm square-integrable holomorphic f.  The order-j variant
K_j(w) maximizes |f^(j)(w)|^2 subject to f(w) = ... = f^(j-1)(w) = 0.

Let M_ab = d^a/dz^a d^b/dwbar^b K(z, w) at z = w, a, b = 0..j, the Gram
matrix of the derivative functionals at w.  K_j(w) is the squared norm of
the part of the j-th functional orthogonal to the others: the square of
the last diagonal entry of the Cholesky factor of M, so one
factorization gives every order up to j.

M comes from the images of the Green function, with no basis.  Both core
families are seen from the upper half-plane, in the variable
sigma = log W: the unit disc through the Cayley map W = i(1 + z)/(1 - z),
and Annulus(q) through W = exp(i pi log(z/q) / h), h = log(1/q), which
wraps the ring onto the half-plane modulo W -> p W, p = exp(-2 pi^2 / h)
(the dual nome that green sums over).  The half-plane kernel
-1/(pi (W - conj V)^2) reads -f(D)/pi in sigma, with
f(D) = 1/(4 sinh^2(D/2)) and D = sigma(z) - conj sigma(w); the ring adds
the images D_k = D + k log p, k = -K..K, K = annulus_dual_terms(q):

    d^a/dsigma^a d^b/dtaubar^b K_sigma = -(-1)^b / pi  sum_k f^(a+b)(D_k).

Each f^(n) is a polynomial in f, times coth(D/2) for odd n, and the
coefficients of one polynomial share one sign, so far images neither
cancel nor overflow: f and coth are formed from exp(-|Re D| ...), whose
modulus is at most 1.  The arg of z conj(w) is taken in (-pi, pi], which
keeps the image window centred.  The chain of maps from the domain to
sigma (a Moebius map, then log, times i pi / h on a ring) carries the
derivatives: M = A M_sigma A*, where A is read off the power-series
composition of the chain at the point.  On the disc family no series is
needed: K_j = j!(j+1)!/pi c^(2j+2), c the capacity.

The stated bound covers the first dropped images (the rest fall off by p
each), the rounding of the sums, of A and of the factorization, and the
rounding of the pulled-back pole, whose distance to the nearer circle the
kernel is most sensitive to.  The test suite holds kernel_j to that
bound against Laurent sums carried to 40 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import InvalidArgument, PointOutsideDomain
from .geometry import Annulus, Disc, Domain, Point, PolarComplement
from .green import _dual_log_nome, annulus_dual_terms, robin_capacity

MAX_ORDER = 12  # factorial growth makes higher orders pointless in doubles
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
# W -> (W - i)/(W + i): the upper half-plane onto the unit disc, the
# inverse of the Cayley map W = i(1 + z)/(1 - z)
_CAYLEY_INVERSE = (1 + 0j, -1j, 1 + 0j, 1j)


@dataclass(frozen=True)
class KernelResult:
    """K_j(w), the number of images summed for it in truncation_order
    (2K + 1 on an annulus, 1 on a disc, whose kernel is one reflection
    term, 0 on a polar complement), and in tail_bound a bound on
    |value - K_j(w)| that covers the dropped images and rounding."""

    order: int
    value: float
    truncation_order: int
    tail_bound: float


def _check_order(j: int) -> None:
    if j < 0 or j > MAX_ORDER:
        raise InvalidArgument(f"derivative order must be 0..{MAX_ORDER}, got {j}")


# ---------------------------------------------------------------------------
# The image sums
# ---------------------------------------------------------------------------


def _derivative_polys(n_max: int) -> np.ndarray:
    """P[n, d] with f^(n) = sum_d P[n, d] f^d, times coth(D/2) for odd n.

    With c = coth(D/2), f' = -f c and c' = -2 f, c^2 = 1 + 4 f, so an even
    derivative P(f) has the odd derivative -f P'(f) c, and an odd
    derivative P(f) c has the even derivative -2 f P - f (1 + 4 f) P'.
    Every coefficient of P_n has the sign (-1)^n.
    """
    polys = [[0, 1]]
    for n in range(n_max):
        p = polys[-1]
        dp = [d * p[d] for d in range(1, len(p))]
        new = [0] * (len(p) + 2)
        if n % 2 == 0:
            for d, x in enumerate(dp):
                new[d + 1] -= x
        else:
            for d, x in enumerate(p):
                new[d + 1] -= 2 * x
            for d, x in enumerate(dp):
                new[d + 1] -= x
                new[d + 2] -= 4 * x
        polys.append(new)
    out = np.zeros((n_max + 1, n_max // 2 + 2))
    for n, p in enumerate(polys):
        out[n, : n // 2 + 2] = p[: n // 2 + 2]
    return out


_F_POLYS = _derivative_polys(2 * MAX_ORDER)


def _log_taylor(x: complex, n: int, scale: complex) -> np.ndarray:
    """Taylor coefficients at x of scale * log, p = 0..n+1 (p = 0 unused)."""
    m = np.arange(1, n + 2)
    out = np.zeros(n + 2, dtype=complex)
    out[1:] = scale * (-1.0) ** (m - 1) / (m * x**m)
    return out


def _inverse_map_taylor(coeffs, w: complex, j: int) -> np.ndarray:
    """Taylor coefficients G_p of the inverse Moebius map at w, p = 0..j+1.

    G(z) = (d z - b)/(a - c z) has G^(m) = m! c^(m-1) det / (a - c z)^(m+1).
    """
    a, b, c, d = coeffs
    det = a * d - b * c
    out = np.empty(j + 2, dtype=complex)
    out[0] = (d * w - b) / (a - c * w)
    denom = a - c * w
    for m in range(1, j + 2):
        out[m] = (c ** (m - 1)) * det / denom ** (m + 1)  # G^(m)/m!
    return out


def _composition_matrix(G: np.ndarray, j: int) -> np.ndarray:
    """A[i, m] with f^(i)(w) = sum_m A[i, m] g^(m)(G(w)) for f = (g o G) G',
    from the Taylor coefficients G_p of G at w, p = 0..j+1.

    Extracted from the truncated series of g(G(w + t)) G'(w + t): with
    S(t) = G(w + t) - G(w), the coefficient of t^i in (S^m / m!) G'(w + t)
    multiplied by i! is A[i, m].
    """
    S = np.zeros(j + 1, dtype=complex)
    S[1:] = G[1 : j + 1]
    gprime = np.array([(p + 1) * G[p + 1] for p in range(j + 1)], dtype=complex)
    A = np.zeros((j + 1, j + 1), dtype=complex)
    Sm = np.zeros(j + 1, dtype=complex)
    Sm[0] = 1.0
    fact = [math.factorial(i) for i in range(j + 1)]
    for m in range(j + 1):
        if m > 0:
            Sm = np.convolve(Sm, S)[: j + 1]
        series = np.convolve(Sm, gprime)[: j + 1]
        for i in range(j + 1):
            A[i, m] = fact[i] / fact[m] * series[i]
    return A


class _Point(NamedTuple):
    """A point of the domain seen from the half-plane: u (the core point
    on a ring, W on a disc), theta = Im sigma in (0, pi) and pi - theta,
    each read where it keeps its relative accuracy, and A, the chain
    matrix of orders 0..n from the domain to sigma."""

    core: Domain
    u: complex
    theta: float
    theta_c: float
    A: np.ndarray


def _point(pb: geo.PullBack, z: Point, n: int) -> _Point:
    """z, whose pull-back is pb.zeta_w, seen from the half-plane."""
    core, coeffs, zeta = pb
    if isinstance(core, Annulus):
        q, r = core.q, abs(zeta)
        h = -math.log(q)
        A = _composition_matrix(_log_taylor(zeta, n, 1j * math.pi / h), n)
        if coeffs is not None:
            A = _composition_matrix(_inverse_map_taylor(coeffs, z, n), n) @ A
        return _Point(core, zeta, math.pi * math.log1p((r - q) / q) / h, math.pi * -math.log(r) / h, A)
    to_half_plane = geo.moebius_compose(coeffs or geo.IDENTITY_COEFFS, _CAYLEY_INVERSE)
    W = complex(geo.moebius_inverse(to_half_plane, z))
    A = _composition_matrix(_inverse_map_taylor(to_half_plane, z, n), n)
    A = A @ _composition_matrix(_log_taylor(W, n, 1.0), n)
    return _Point(core, W, math.atan2(W.imag, W.real), math.atan2(W.imag, -W.real), A)


def _block(x: _Point, y: _Point, na: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """d^a/dz^a d^b/dwbar^b K(z, w) at z = x, w = y, a <= na, b <= nb, and
    a bound on the error of each entry (dropped images and rounding)."""
    n = na + nb
    im = x.theta + y.theta
    if im > math.pi:  # f and coth have the period 2 pi i in D
        im = -(x.theta_c + y.theta_c)
    if isinstance(x.core, Annulus):
        h = -math.log(x.core.q)
        log_p = _dual_log_nome(x.core.q)
        k = annulus_dual_terms(x.core.q) + 1  # the outer two images bound the tail
        # the relative angle keeps the window of images centred on D_0
        zw = x.u * y.u.conjugate()
        d0 = complex(-math.pi * math.atan2(zw.imag, zw.real) / h, im)
        d = d0 + np.arange(-k, k + 1) * log_p
    else:
        log_p = -math.inf
        d = np.array([complex(math.log(abs(x.u) / abs(y.u)), im)])
    e = -np.copysign(1.0, d.real) * d  # Re e <= 0: |exp(e)| <= 1
    v, em = np.exp(e), np.expm1(e)
    f = v / (em * em)
    coth = (1.0 + v) / em * np.copysign(-1.0, d.real)
    deg = n // 2 + 2
    powers = np.empty((deg, d.size), dtype=complex)
    powers[0] = 1.0
    for i in range(1, deg):
        powers[i] = powers[i - 1] * f
    polys = _F_POLYS[: n + 1, :deg]
    terms = polys @ powers
    sizes = np.abs(polys) @ np.abs(powers)
    terms[1::2] *= coth
    sizes[1::2] *= np.abs(coth)
    if d.size > 1:
        sums = terms[:, 1:-1].sum(axis=1)
        errs = (8 * n + 32) * _EPS * sizes[:, 1:-1].sum(axis=1) + (sizes[:, 0] + sizes[:, -1]) / -math.expm1(log_p)
    else:
        sums, errs = terms[:, 0], (8 * n + 32) * _EPS * sizes[:, 0]
    ab = np.add.outer(np.arange(na + 1), np.arange(nb + 1))
    sign = (-1.0) ** np.arange(nb + 1)
    m_sigma = -sign * sums[ab] / math.pi
    A_x, A_y = x.A[: na + 1, : na + 1], y.A[: nb + 1, : nb + 1]
    err = np.abs(A_x) @ (errs[ab] / math.pi) @ np.abs(A_y).T
    return A_x @ m_sigma @ A_y.conj().T, err


def _last_pivot(M: np.ndarray, err: np.ndarray) -> tuple[float, float]:
    """The squared last diagonal entry of the Cholesky factor of M, and a
    first-order bound on its error: x* E x over |x|, where x = (-M00^-1 m, 1)
    is the direction the Schur complement moves in, and E bounds the
    errors of M and the backward error of the factorization."""
    j = M.shape[0] - 1
    L = np.linalg.cholesky(M)  # reads the lower triangle only
    ax, aL = np.ones(j + 1), np.abs(L)
    if j:
        ax[:j] = np.abs(np.linalg.solve(L[:j, :j].conj().T, -L[j, :j].conj()))
    bound = ax @ (err + 2 * (j + 1) * _EPS * (aL @ aL.T)) @ ax
    return float(L[j, j].real ** 2), float(bound)


def kernel_j(domain: Domain, w: Point, j: int) -> KernelResult:
    """K_j(w): the order-j extremal kernel value, with a bound that
    includes rounding.  pinned_kernel moves the derivative functional away
    from the constraints at w."""
    _check_order(j)
    if isinstance(domain, PolarComplement):
        if not geo.contains(domain, w):
            raise PointOutsideDomain(f"{w} outside domain")
        return KernelResult(order=j, value=0.0, truncation_order=0, tail_bound=0.0)
    pb = geo.pull_back(domain, w)
    r = abs(pb.zeta_w)
    if isinstance(pb.core, Disc):
        cap = robin_capacity(domain, w)
        value = math.factorial(j) * math.factorial(j + 1) / math.pi * cap.capacity ** (2 * j + 2)
        # c is off by a few roundings of |zeta| and, on an image, by those of
        # the log and exp that scale it by 1/|F'|: log c_0 <= -log(1 - r)
        rel = 8 * _EPS / (1.0 - r) + 2 * _EPS * (abs(cap.robin_constant) - 2 * math.log1p(-r) + 1)
        bound = value * ((2 * j + 2) * rel + (2 * j + 4) * _EPS)
        return KernelResult(order=j, value=value, truncation_order=1, tail_bound=bound)
    p = _point(pb, w, j)
    value, bound = _last_pivot(*_block(p, p, j, j))
    # the pole pulled back is off by a few roundings of |zeta|
    bound += value * (2 * j + 2) * 4 * _EPS * r / min(r - pb.core.q, 1.0 - r)
    return KernelResult(order=j, value=value, truncation_order=2 * annulus_dual_terms(pb.core.q) + 1, tail_bound=bound)


def pinned_kernel(domain: Domain, w: Point, j: int, z: Point) -> float:
    """sup |f^(j)(z)|^2 over unit-norm f vanishing to order j at w.

    The constraints stay pinned at w while the derivative functional moves
    to z; at z = w this is K_j(w).  This is the function whose log the
    curvature identity differentiates (for j = 0 it reduces to the plain
    diagonal kernel, constraints being absent).  The Gram matrix of the
    functionals takes its blocks from the image sums at (w, w), (w, z) and
    (z, z).
    """
    _check_order(j)
    at_z = _point(geo.pull_back(domain, z), z, j)
    pulled_w = geo.pull_back(domain, w)  # refuses a pole outside the domain, at j = 0 too
    gram = _block(at_z, at_z, j, j)[0]
    if j > 0:
        at_w = _point(pulled_w, w, j)
        gram[:j, :j] = _block(at_w, at_w, j - 1, j - 1)[0]
        gram[:j, j] = _block(at_w, at_z, j - 1, j)[0][:, j]
        gram[j, :j] = gram[:j, j].conj()
    return _last_pivot(gram, np.zeros(gram.shape))[0]


def laplacian_identity_check(
    domain: Domain, w: Point, j: int, h: float
) -> tuple[float, float, float]:
    """Five-point check of d^2/dz dzbar log of the order-j kernel = K_{j+1}/K_j.

    The differentiated function keeps its vanishing constraints pinned at w
    (the kernel of the fixed subspace H_j(w), which is what the curvature
    identity is about); for j = 0 it is the usual diagonal kernel.  Returns
    (fd_laplacian, ratio, rel_error).  A domain with no series is refused
    (UnsupportedDomain) before the stencil is checked: on the polar
    complement every K_j is 0, and the ratio has no value.
    """
    if not 0.0 < h < math.inf:
        raise InvalidArgument(f"need a positive finite step h, got {h}")
    geo.pull_back(domain, w)
    stencil = [w, w + h, w - h, w + 1j * h, w - 1j * h]
    for p in stencil:
        if not geo.contains(domain, p):
            raise PointOutsideDomain(f"stencil point {p} leaves the domain")
    ratio = kernel_j(domain, w, j + 1).value / kernel_j(domain, w, j).value
    logs = [math.log(pinned_kernel(domain, w, j, p)) for p in stencil]
    fd = (logs[1] + logs[2] + logs[3] + logs[4] - 4 * logs[0]) / (4 * h * h)
    rel = abs(fd - ratio) / abs(ratio)
    return fd, ratio, rel


def suita_defect(domain: Domain, w: Point) -> tuple[float, float]:
    """(pi K(w) - c(w)^2) / c(w)^2 and a bound on its error (rounding included).

    0 on the disc family, where pi K = c^2.  The ratio pi K / c^2 is
    conformally invariant, so an annulus image is read on its core.  There,
    with s = sin(theta0) from the nearer circle (as in robin_capacity) and
    u_k = s^2 / (sinh^2(k pi^2 / h) + s^2), the image pairs k, -k of K and
    of c give

        (pi K - c^2) / c^2 = sum_k [3 u_k^2 + 4 s^2 u_k (1 - u_k)
                                    - Q_(k-1) (2 u_k - u_k^2)] / (1 - Q_K),

    where 1 - Q_k = prod_(l <= k) (1 - u_l)^2 = (c / c_0)^2, with c_0 the
    capacity from the k = 0 image alone.  Q accumulates from positive
    terms, and the subtracted terms are smaller than the leading
    4 s^2 u_k by the factor 1/sinh^2(pi^2 / h), so nothing cancels: at
    q = 0.8 the defect is about 1e-37, where pi K and c^2 agree to every
    digit a double holds.  Where u_1 or the value leaves the normal range
    (u_1 reads 0 once sinh^2 overflows, at the mid-width pole from q = 0.9727
    on) the bound is at least 8 smallest normal doubles: no annulus reads (0, 0).
    """
    pb = geo.pull_back(domain, w)
    if isinstance(pb.core, Disc):
        return 0.0, 0.0
    q, r = pb.core.q, abs(pb.zeta_w)
    h = -math.log(q)
    s2 = math.sin(math.pi * min(math.log1p((r - q) / q), -math.log(r)) / h) ** 2
    n, x = annulus_dual_terms(q), math.pi**2 / h
    with np.errstate(over="ignore"):
        u = (s2 / (np.sinh(np.arange(1, n + 2) * x) ** 2 + s2)).tolist()
    total = rounding = lost = 0.0  # lost = Q_(k-1)
    for k, uk in enumerate(u[:n], 1):
        e = 2.0 * uk - uk * uk  # 1 - (1 - u_k)^2
        plus, minus = 3.0 * uk * uk + 4.0 * s2 * uk * (1.0 - uk), lost * e
        total += plus - minus
        # u_k carries the rounding of k x, magnified by 2 k x in sinh^2
        rounding += (4 * n + 16 + 8 * k * x) * _EPS * (plus + minus)
        lost += (1.0 - lost) * e
    keep = 1.0 - lost
    value = total / keep
    # the dropped images k > K fall off by p each
    tail = u[n] * (3.0 * u[n] + 4.0 * s2 + 2.0 + 2.0 * abs(value)) / -math.expm1(_dual_log_nome(q))
    # the defect goes like s^4 next to a circle, and s moves with |zeta|
    pole = abs(value) * 16 * _EPS * r / min(r - q, 1.0 - r)
    bound = (rounding + tail) / keep + pole
    if min(u[0], value) < _TINY:  # rounding is absolute there, and 0 < u_1 < 1 / DBL_MAX once sinh^2 overflows
        bound = max(bound, 8.0 * _TINY)
    return value, bound
