"""Diagonal Bergman kernels and their higher-derivative relatives.

K(w) is the classical reproducing-kernel diagonal: the largest |f(w)|^2
over unit-norm square-integrable holomorphic f.  The order-j variant
K_j(w) maximizes |f^(j)(w)|^2 subject to f(w) = ... = f^(j-1)(w) = 0.

With an orthonormal basis e_n and the derivative vectors
v_i = (e_n^(i)(w))_n, the extremal problem is linear-quadratic and its
value is exact at fixed truncation: K_j(w) is the squared norm of the
component of v_j orthogonal to span{v_0, ..., v_{j-1}} (Gram-Schmidt on
the constraint vectors; for j = 0 this collapses to the familiar
sum_n |e_n(w)|^2).  Monomials are orthogonal on a disc (n >= 0) and on
an annulus (n in Z, Laurent), with closed-form norms, so the frame is
explicit and the only approximation is the basis cutoff, which is grown
adaptively until the reported tail bound is negligible.  The frame is
built on the core only, the unit disc or Annulus(q): a disc of centre c
and radius R is the unit disc under z -> c + R z, and goes through the
same change of variables as a Moebius image (below).

Each column of the frame depends on its own exponent n only.  So a row
set builds each power u^m once, row i reading it shifted by i, and a
doubling of the cutoff builds only the new exponents and joins them to
the rows it already has: the matrix factored at each cutoff is the one a
frame built at that cutoff in one go would give, bit for bit.

Moebius images are handled by rebuilding the frame in base coordinates:
the unitary change of variables f -> (f o F) F' turns the j-th derivative
constraint at w into a triangular combination of base derivatives at the
preimage, with coefficients read off a truncated power-series composition
of the inverse map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import PointOutsideDomain, StencilOutsideDomain, TruncationFailure, UnsupportedDomain
from .geometry import Annulus, Disc, Domain, Point, PolarComplement

MAX_ORDER = 12  # factorial growth makes higher orders pointless in doubles
_MAX_BASIS = 10_000


@dataclass(frozen=True)
class KernelResult:
    order: int
    value: float
    truncation_order: int
    tail_bound: float


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
        raise ValueError("empty basis range")
    n = np.arange(n_lo, n_hi + 1)
    if isinstance(domain, Disc):
        if n_lo < 0:
            raise ValueError("disc basis starts at n = 0")
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


def _composition_matrix(coeffs, w: complex, j: int) -> np.ndarray:
    """A[i, m] with f^(i)(w) = sum_m A[i, m] g^(m)(preimage) for f = (g o G) G'.

    Extracted from the truncated series of g(G(w + t)) G'(w + t): with
    S(t) = G(w + t) - G(w), the coefficient of t^i in (S^m / m!) G'(w + t)
    multiplied by i! is A[i, m].
    """
    G = _inverse_map_taylor(coeffs, w, j)
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


def _n_range(core: Domain, half_n: int) -> tuple[int, int]:
    """Basis exponents: z^n, n >= 0, on a disc; Laurent, n in Z, on an annulus."""
    return (0, half_n) if isinstance(core, Disc) else (-half_n, half_n)


def _frame_rows(pb: geo.PullBack, w: Point, j: int, half_n: int) -> np.ndarray:
    """Constraint rows v_0..v_j at w over a basis cutoff of half-width
    half_n, from the core's rows at pb.zeta_w."""
    core, coeffs, zeta_w = pb
    rows = _derivative_rows(core, zeta_w, j, *_n_range(core, half_n))
    return rows if coeffs is None else _composition_matrix(coeffs, w, j) @ rows


def kernel_j(domain: Domain, w: Point, j: int, rel_tol: float = 1e-11) -> KernelResult:
    """K_j(w): the order-j extremal kernel value.

    The basis cutoff doubles until the value settles to rel_tol; the
    reported tail bound dominates the next doubling step.  pinned_kernel
    evaluates the same extremal problem at a fixed cutoff.
    """
    if j < 0 or j > MAX_ORDER:
        raise ValueError(f"derivative order must be 0..{MAX_ORDER}, got {j}")
    if isinstance(domain, PolarComplement):
        if not geo.contains(domain, w):
            raise PointOutsideDomain(f"{w} outside domain")
        return KernelResult(order=j, value=0.0, truncation_order=0, tail_bound=0.0)
    core, coeffs, zeta_w = geo.pull_back(domain, w)
    compose = None if coeffs is None else _composition_matrix(coeffs, w, j)
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
        if delta <= rel_tol * max(v2, 1e-300):
            tail = max(4.0 * delta, 8.0 * np.finfo(float).eps * v2)
            return KernelResult(order=j, value=v2, truncation_order=n2, tail_bound=tail)
        value, n = v2, n2


def pinned_kernel(domain: Domain, w: Point, j: int, z: Point, half_n: int) -> float:
    """sup |f^(j)(z)|^2 over unit-norm f vanishing to order j at w.

    The constraints stay pinned at w while the derivative functional moves
    to z; at z = w this is K_j(w).  This is the function whose log the
    curvature identity differentiates (for j = 0 it reduces to the plain
    diagonal kernel, constraints being absent).
    """
    objective = _frame_rows(geo.pull_back(domain, z), z, j, half_n)[j : j + 1]
    if j == 0:
        rows = objective
    else:
        rows = np.vstack([_frame_rows(geo.pull_back(domain, w), w, j - 1, half_n), objective])
    return _qr_residual_sq(rows)


def laplacian_identity_check(
    domain: Domain, w: Point, j: int, h: float
) -> tuple[float, float, float]:
    """Five-point check of d^2/dz dzbar log of the order-j kernel = K_{j+1}/K_j.

    The differentiated function keeps its vanishing constraints pinned at w
    (the kernel of the fixed subspace H_j(w), which is what the curvature
    identity is about); for j = 0 it is the usual diagonal kernel.  Returns
    (fd_laplacian, ratio, rel_error).  All five stencil evaluations share
    one basis cutoff so the finite difference sees a smooth truncation
    error field rather than adaptive jitter.
    """
    stencil = [w, w + h, w - h, w + 1j * h, w - 1j * h]
    for p in stencil:
        if not geo.contains(domain, p):
            raise StencilOutsideDomain(f"stencil point {p} leaves the domain")
    center = kernel_j(domain, w, j, rel_tol=1e-13)
    above = kernel_j(domain, w, j + 1, rel_tol=1e-13)
    ratio = above.value / center.value
    n_fixed = max(center.truncation_order, above.truncation_order)
    logs = [math.log(pinned_kernel(domain, w, j, p, n_fixed)) for p in stencil]
    fd = (logs[1] + logs[2] + logs[3] + logs[4] - 4 * logs[0]) / (4 * h * h)
    rel = abs(fd - ratio) / abs(ratio)
    return fd, ratio, rel
