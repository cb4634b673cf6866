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
kernel is most sensitive to.

The Laurent frame that computed K_j before is kept as a referee,
_frame_kernel, which the main path never reaches: with an orthonormal
monomial or Laurent basis e_n and the derivative vectors
v_i = (e_n^(i)(w))_n, K_j(w) is the squared norm of the part of v_j
orthogonal to span{v_0, ..., v_{j-1}} at fixed truncation, and the basis
cutoff doubles until two values agree.  Each column of the frame depends
on its own exponent n only, so a doubling builds only the new exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import InvalidArgument, PointOutsideDomain, StencilOutsideDomain, TruncationFailure, UnsupportedDomain
from .geometry import Annulus, Disc, Domain, Point, PolarComplement
from .green import _dual_log_nome, annulus_dual_terms

MAX_ORDER = 12  # factorial growth makes higher orders pointless in doubles
_EPS = float(np.finfo(float).eps)
# W -> (W - i)/(W + i): the upper half-plane onto the unit disc, the
# inverse of the Cayley map W = i(1 + z)/(1 - z)
_CAYLEY_INVERSE = (1 + 0j, -1j, 1 + 0j, 1j)


@dataclass(frozen=True)
class KernelResult:
    """K_j(w) with the images summed for it (2K + 1 on an annulus, 1 on a
    disc, whose kernel is one reflection term, 0 on a polar complement)
    and a bound on |value - K_j(w)| that includes rounding.  From the
    referee frame, truncation_order is the basis cutoff and tail_bound
    leaves rounding out."""

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
        cap = 1.0 / ((1.0 - r) * (1.0 + r))
        if pb.coeffs is not None:
            cap /= abs(geo.moebius_fprime(pb.coeffs, pb.zeta_w))
        value = math.factorial(j) * math.factorial(j + 1) / math.pi * cap ** (2 * j + 2)
        bound = value * ((2 * j + 2) * 8 * _EPS / (1.0 - r) + (2 * j + 4) * _EPS)
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
    at_z = _point(geo.pull_back(domain, z), z, j)
    gram = _block(at_z, at_z, j, j)[0]
    if j > 0:
        at_w = _point(geo.pull_back(domain, w), w, j)
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
    (fd_laplacian, ratio, rel_error).
    """
    stencil = [w, w + h, w - h, w + 1j * h, w - 1j * h]
    for p in stencil:
        if not geo.contains(domain, p):
            raise StencilOutsideDomain(f"stencil point {p} leaves the domain")
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
    digit a double holds.
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
    return value, (rounding + tail) / keep + pole


# ---------------------------------------------------------------------------
# The referee: the Laurent frame
# ---------------------------------------------------------------------------

_MAX_BASIS = 10_000
_FRAME_TOL = 1e-11  # two successive cutoffs agree to this, relative


def basis_norms(domain: Domain, n_lo: int, n_hi: int) -> np.ndarray:
    """Squared L2 norms of the monomial basis, n_lo..n_hi inclusive.

    Disc of centre c and radius R, in the unit variable u = (z - c)/R:
    ||u^n||^2 = pi R^2 / (n+1), finite for every n (the norm of (z - c)^n,
    pi R^(2n+2)/(n+1), leaves the double range once n ~ 354/|log R|).
    The frame reads the unit disc's, pi / (n+1).
    Annulus q < |z| < 1: ||z^n||^2 = 2 pi (1 - q^(2n+2)) / (2n+2) away from
    n = -1 (the expression is positive for n <= -2 as written), and
    ||z^-1||^2 = 2 pi log(1/q).
    """
    if n_hi < n_lo:
        raise InvalidArgument("empty basis range")
    n = np.arange(n_lo, n_hi + 1)
    if isinstance(domain, Disc):
        if n_lo < 0:
            raise InvalidArgument("disc basis starts at n = 0")
        return math.pi * domain.radius**2 / (n + 1)
    if isinstance(domain, Annulus):
        q = domain.q
        out = np.empty(len(n))
        reg = n != -1
        nn = n[reg]
        with np.errstate(over="ignore"):
            out[reg] = 2 * math.pi * (1.0 - q ** (2 * nn + 2)) / (2 * nn + 2)
        out[~reg] = 2 * math.pi * math.log(1.0 / q)
        return out
    raise UnsupportedDomain("closed-form basis norms exist for Disc and Annulus only")


def _derivative_rows(core: Domain, u: complex, j: int, n_lo: int, n_hi: int) -> np.ndarray:
    """Rows i = 0..j of e_n^(i)(u), n = n_lo..n_hi, for the normalized
    monomial basis e_n = z^n / ||z^n|| of the core.

    Each power u^m, m = n_lo - j..n_hi, is built once; row i reads the same
    vector shifted by i.
    """
    n = np.arange(n_lo, n_hi + 1)
    width = len(n)
    root = np.sqrt(basis_norms(core, n_lo, n_hi))
    m = np.arange(n_lo - j, n_hi + 1)
    rows = np.empty((j + 1, width), dtype=complex)
    # falling factorial n (n-1) ... (n-i+1), valid for negative n as well
    fall = np.ones(width)
    with np.errstate(over="ignore", invalid="ignore"):
        if u != 0:
            powers = u ** (m + 0j)
        else:  # 0^0 = 1 on the diagonal term, 0 elsewhere (disc center)
            powers = np.where(m == 0, 1.0 + 0j, 0j)
        for i in range(j + 1):
            if i > 0:
                fall = fall * (n - (i - 1))
            rows[i] = fall * powers[j - i : j - i + width] / root
        # Intermediate overflow can only hit far-tail entries whose true
        # value underflows to zero: the basis decays geometrically at u on
        # the disc and for n >= 0 on an annulus.  Not so for n <= -2 next to
        # the inner circle: once n < -355/log(1/q) the norm q^(2n+2)
        # overflows and the entry reads 0 or inf/inf, while its true size,
        # (q/|u|)^|n| |n|^(j+1/2), need not be negligible.  Those entries
        # are taken again in logarithms, with
        # log ||z^n||^2 = log 2 pi + (2n+2) log q + log1p(-q^-(2n+2)) - log(-2n-2).
        # While the largest norm, that of z^n_lo, stays finite, no entry is lost.
        if isinstance(core, Annulus) and not np.isfinite(root[0]):
            lost = (n <= -2) & ~(np.isfinite(rows) & (rows != 0))
            cols = lost.any(axis=0)
            nl, q = n[cols], core.q
            log_norm = (
                math.log(2 * math.pi)
                + (2 * nl + 2) * math.log(q)
                + np.log1p(-(q ** -(2.0 * nl + 2)))
                - np.log(-2.0 * nl - 2)
            )
            log_u, fall = np.log(complex(u)), np.ones(nl.size)
            for i in range(j + 1):
                if i > 0:
                    fall = fall * (nl - (i - 1))
                redo = np.sign(fall) * np.exp(np.log(np.abs(fall)) + (nl - i) * log_u - 0.5 * log_norm)
                rows[i, cols] = np.where(lost[i, cols], redo, rows[i, cols])
    rows[~np.isfinite(rows)] = 0.0
    return rows


def _qr_residual_sq(rows: np.ndarray) -> float:
    """Squared norm of the part of the last row orthogonal to the others."""
    r = np.linalg.qr(rows.T.conj(), mode="r")
    return float(abs(r[-1, -1]) ** 2)


def _n_range(core: Domain, half_n: int) -> tuple[int, int]:
    """Basis exponents: z^n, n >= 0, on a disc; Laurent, n in Z, on an annulus."""
    return (0, half_n) if isinstance(core, Disc) else (-half_n, half_n)


def _frame_rows(pb: geo.PullBack, w: Point, j: int, half_n: int) -> np.ndarray:
    """Constraint rows v_0..v_j at w over a basis cutoff of half-width
    half_n, from the core's rows at pb.zeta_w."""
    core, coeffs, zeta_w = pb
    rows = _derivative_rows(core, zeta_w, j, *_n_range(core, half_n))
    return rows if coeffs is None else _composition_matrix(_inverse_map_taylor(coeffs, w, j), j) @ rows


def _frame_kernel(domain: Domain, w: Point, j: int) -> KernelResult:
    """K_j(w) from the Laurent frame, the referee of kernel_j.

    The basis cutoff doubles until the value settles to _FRAME_TOL; the
    reported tail bound dominates the next doubling step, and leaves
    rounding out.  The value at a fixed cutoff is
    _qr_residual_sq(_frame_rows(...)), bit for bit.
    """
    _check_order(j)
    core, coeffs, zeta_w = geo.pull_back(domain, w)
    compose = None if coeffs is None else _composition_matrix(_inverse_map_taylor(coeffs, w, j), j)
    n = max(32, 8 * (j + 1))
    n_lo, n_hi = _n_range(core, n)
    rows = _derivative_rows(core, zeta_w, j, n_lo, n_hi)
    value = _qr_residual_sq(rows if compose is None else compose @ rows)
    while True:
        n2 = 2 * n
        if n2 > _MAX_BASIS:
            raise TruncationFailure(f"kernel tail target unreachable below basis size {_MAX_BASIS}")
        # each column depends on its own exponent only: a doubling builds
        # the new exponents and joins them to the rows already built
        lo2, hi2 = _n_range(core, n2)
        parts = [rows, _derivative_rows(core, zeta_w, j, n_hi + 1, hi2)]
        if lo2 < n_lo:
            parts.insert(0, _derivative_rows(core, zeta_w, j, lo2, n_lo - 1))
        rows, n_lo, n_hi = np.hstack(parts), lo2, hi2
        v2 = _qr_residual_sq(rows if compose is None else compose @ rows)
        delta = abs(v2 - value)
        if delta <= _FRAME_TOL * max(v2, 1e-300):
            tail = max(4.0 * delta, 8.0 * _EPS * v2)
            return KernelResult(order=j, value=v2, truncation_order=n2, tail_bound=tail)
        value, n = v2, n2
