"""Brute-force estimators that cross-check every analytic code path.

Nothing here shares series machinery with the quantities it validates:

* ``wos_green``  -- walk-on-spheres simulation of the Green function, with
  harmonic control variates fitted before the walks and a stated bound
  on its standard error,
* ``mc_area``    -- rejection-sampled sublevel areas, every level of a call
  from one draw.  The series is read only inside a comparison disc: the
  core lies in the unit disc, so G is at least the disc's Green function
  there, and a sample outside the disc's sublevel set at the largest
  level cannot be a hit.  The disc is padded far past rounding, so the
  filter moves no count, and each estimate is that of the plain sampler,
* ``robin_extrapolate`` -- the capacity limit evaluated as a genuine limit
  with Richardson extrapolation, on a ladder of circles of its own
  (``_ROBIN_LADDER``): every caller used the same one,
* ``grid_min_gradient`` -- lattice localization of the zeros of grad G.
  It reads the series gradient but not the search of
  ``green.critical_points``, which goes straight to the reflection axis
  of the annulus, so it referees that search.
* ``grid_area`` -- marching-squares sublevel areas on a lattice, which
  read the series field but none of the slice roots and quadrature of
  ``sublevel``, so they referee those.

Randomness is counter-based: every variate is a pure function of
(seed, stream, counter), where the counter encodes the walk index and step.
Results are therefore bit-reproducible for a fixed seed regardless of how
walks are scheduled, and parallel execution would be order-independent.
The generator is a splitmix64-style finalizer over uint64, evaluated with
numpy on whole counter blocks at once.  Its top 53 bits k give the uniform
u = k / 2^53.

A walk-on-spheres step turns u into the direction e^{2 pi i u} without
libm trig: the top bits of k pick one of 2^11 roots of unity from a table
built at import, and the remaining angle, below 2 pi / 2^11, is applied by
its Taylor series in real arithmetic.  Against 120-bit cos and sin, on
2e4 counters and the table edges, the error is at most 1.5e-16; that of
exp(2j pi u), whose angle 2 pi u is rounded, is 6.8e-16.
The live walks sit in arrays that shrink as walks are captured; captured
walks keep their position, and all walks are projected onto the boundary
once, after the last step.  The wall distance, the projection and the
nodes of the fit below are the domain's own (``_wall``, ``_project``,
``_nodes``); only the controls are chosen here.

The walks score log|X - w| at their exits X.  Before any walk, that score
is fitted on boundary nodes by functions harmonic in the closed domain
(the constant, logarithms of reflections of the pole, low powers of X),
whose means over the exits are known exactly: their values at z.  Only
the residual of the fit is averaged over the walks, and its range on the
boundary bounds the standard error (Popoviciu: a variable with range osc
has variance at most osc^2 / 4).  No control reads the green module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import green as gr
from .errors import BelowResolution, ConvergenceFailure, InvalidArgument, PointOutsideDomain, UnsupportedDomain
from .geometry import Annulus, Disc, Domain, Point, Polygon
from .sublevel import AreaEstimate

CAPTURE_EPS = 1e-6
MAX_STEPS = 10_000
_STEP_BITS = 14  # 2^14 > MAX_STEPS; walk index shifted past it
_BLOCK = 8192  # walks moved or projected, or area samples drawn, per block: the walker's 64 KB temporaries stay
# in cache and come from the heap, where whole-array ones were returned to the system after each
# step and faulted in again; mc_area's memory stays flat in the sample count

_STREAM_WOS = 0x1
_STREAM_AREA_X = 0x2
_STREAM_AREA_Y = 0x3


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Counter-based uniforms
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer.  Works in place on an array: pass a fresh one."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _stream_base(seed: int, stream: int) -> np.uint64:
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        return _finalize(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + np.uint64(stream))


def _counter_keys(base: np.uint64, counters) -> np.ndarray:
    """base + (c + 1) * golden: the finalizer's input at counter c.

    The key of counter c + s is this key plus s * golden, which lets a
    walker step its keys with one addition."""
    with np.errstate(over="ignore"):
        return base + (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _GOLDEN


def _key_bits(keys: np.ndarray) -> np.ndarray:
    """The 53-bit integers k behind the uniforms k / 2^53 at the keys, in place."""
    with np.errstate(over="ignore"):
        bits = _finalize(keys)
    bits >>= np.uint64(11)
    return bits


def counter_uniform(seed: int, stream: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), a pure function of (seed, stream, counter)."""
    return _key_bits(_counter_keys(_stream_base(seed, stream), counters)).astype(np.float64) * (1.0 / (1 << 53))


def _root_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi j / 2^bits, j = 0 .. 2^bits - 1.

    Only the first octant is evaluated, where the angle pi/4 * i / m is
    within rounding of its true value; the rest follows by the exact
    symmetries (swap inside the quadrant, quarter turns)."""
    m = 1 << (bits - 3)
    angle = (math.pi / 4) * (np.arange(m + 1) / m)
    c0, s0 = np.cos(angle), np.sin(angle)
    c = np.concatenate([c0[:m], s0[m:0:-1]])  # first quadrant, j = 0 .. 2m - 1
    s = np.concatenate([s0[:m], c0[m:0:-1]])
    return np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])


_TABLE_BITS = 11
_ROOT_COS, _ROOT_SIN = _root_table(_TABLE_BITS)
_TABLE_SHIFT = np.uint64(53 - _TABLE_BITS)
_TABLE_MASK = np.uint64((1 << (53 - _TABLE_BITS)) - 1)


def _unit_directions(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi u for the uniforms u = k / 2^53, without libm trig.

    The top _TABLE_BITS bits of k pick a root of unity from the table; the
    remaining angle x < 2 pi / 2^_TABLE_BITS = 3.1e-3 is applied by its
    series to x^4 (cos) and x^5 (sin), whose truncation is below 1e-18, and
    the two are combined in real arithmetic about the table value.  The
    work is done in place, on as few arrays as possible.
    """
    j = (k >> _TABLE_SHIFT).view(np.int64)
    c, s = _ROOT_COS.take(j), _ROOT_SIN.take(j)
    x = (k & _TABLE_MASK).astype(np.float64)
    x *= 2.0 * math.pi / (1 << 53)
    x2 = x * x
    sin_x = x2 * (1.0 / 120.0)
    sin_x -= 1.0 / 6.0
    sin_x *= x2
    sin_x *= x
    sin_x += x
    one_minus_cos = x2 * (-1.0 / 24.0)
    one_minus_cos += 0.5
    one_minus_cos *= x2
    cos_drop = c * one_minus_cos
    cos_drop += s * sin_x
    sin_x *= c  # now the rise of sin: c sin x - s (1 - cos x)
    one_minus_cos *= s
    sin_x -= one_minus_cos
    c -= cos_drop
    s += sin_x
    return c, s


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------


def _walk(domain: Domain, z: Point, walks: int, seed: int) -> np.ndarray:
    """The boundary points where the walks from z end.

    Each walk jumps to a uniform point of the largest inscribed circle
    (exact exit sampling) until it lands within the capture shell, then
    projects to the nearest boundary point.  Step s of walk i draws u at
    counter (i << _STEP_BITS) | s and moves in the direction e^{2 pi i u},
    read from a root-of-unity table and a short series (_unit_directions).
    Captured walks leave the live arrays and keep their capture position;
    the projection is computed once, after the loop, for every walk (a walk
    still live after MAX_STEPS is projected from where it stands).
    """
    pos = np.full(walks, complex(z))  # the live walks: position, walk index, step-0 key, wall distance
    walk = np.arange(walks)
    keys = _counter_keys(_stream_base(seed, _STREAM_WOS), walk.astype(np.uint64) << np.uint64(_STEP_BITS))
    d = domain._wall(pos)
    ends = np.empty(walks, dtype=complex)
    for step in range(MAX_STEPS):
        hit = np.flatnonzero(d < CAPTURE_EPS)
        if hit.size:
            ends[walk[hit]] = pos[hit]
            # the live walks past the new end fill the holes before it
            n = walk.size - hit.size
            tail = np.ones(hit.size, dtype=bool)
            tail[hit[hit >= n] - n] = False
            holes, movers = hit[hit < n], n + np.flatnonzero(tail)
            for a in (pos, walk, keys, d):
                a[holes] = a[movers]
            pos, walk, keys, d = pos[:n], walk[:n], keys[:n], d[:n]
        if not walk.size:
            break
        with np.errstate(over="ignore"):
            step_key = np.uint64(step) * _GOLDEN
        for b in range(0, walk.size, _BLOCK):  # blocks that stay in cache
            blk = slice(b, b + _BLOCK)
            cos, sin = _unit_directions(_key_bits(keys[blk] + step_key))
            cos *= d[blk]
            sin *= d[blk]
            p = pos[blk]
            p.real += cos
            p.imag += sin
            d[blk] = domain._wall(p)
    if walk.size > 0.001 * walks:
        raise ConvergenceFailure(f"{walk.size} of {walks} walks uncaptured after {MAX_STEPS} steps")
    ends[walk] = pos
    for b in range(0, walks, _BLOCK):
        ends[b : b + _BLOCK] = domain._project(ends[b : b + _BLOCK])
    return ends


# ---------------------------------------------------------------------------
# Harmonic controls
# ---------------------------------------------------------------------------

_FIT_NODES = 256  # boundary nodes of the control fit, or 4 per control if more; the residual's range is read on 4x as many
_FIT_ULPS = 4.0  # rounding of one fitted term, in units of the largest term


def _control_spec(domain: Domain, w: Point) -> tuple[complex, list[complex], tuple[int, ...]]:
    """(c, poles, powers): the controls are the constant, log|X - p| for
    each p in poles and Re, Im (X - c)^k for each k in powers, all harmonic
    in the closed domain.

    A disc reflects the pole in its circle (none when the pole is the
    centre, whose reflection is at infinity); an annulus takes log|X|, the
    reflections 1/w-bar and q^2/w-bar in its circles and their reflections
    q^2 w and w/q^2 in the other circle, and k = -2, -1, 1, 2; a polygon
    takes the reflections of the pole in its edge lines that lie outside
    the closed polygon, and k = 1..4 about the mean of its vertices.
    """
    if isinstance(domain, Polygon):
        v = domain.vertices
        stars = np.array([a + (b - a) * ((w - a) / (b - a)).conjugate() for a, b in zip(v, v[1:] + v[:1])])
        outside = ~geo.contains_mask(domain, stars) & (domain._wall(stars) > 0)
        return sum(v) / len(v), stars[outside].tolist(), (1, 2, 3, 4)
    if isinstance(domain, Annulus):
        q2, wc = domain.q**2, w.conjugate()
        return 0j, [0j, 1 / wc, q2 / wc, q2 * w, w / q2], (-2, -1, 1, 2)
    c, r = domain.center, domain.radius
    return c, ([c + r * r / (w - c).conjugate()] if w != c else []), (1, 2)


def _control_columns(spec, x: np.ndarray):
    """The controls of spec at the points x, one array at a time."""
    c, poles, powers = spec
    yield np.ones(x.shape)
    for p in poles:
        yield np.log(np.abs(x - p))
    u = x - c
    for k in powers:
        uk = u**k
        yield uk.real
        yield uk.imag


def _fitted(spec, beta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum beta_k u_k at x, and sum |beta_k u_k| (the scale of its rounding)."""
    fit, size = np.zeros(x.shape), np.zeros(x.shape)
    for b, col in zip(beta, _control_columns(spec, x)):
        term = b * col
        fit += term
        size += np.abs(term)
    return fit, size


def _fit(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of basis.

    The QR factor R of [basis | y] holds Q^T y in its last column, so beta
    follows by back substitution; a column whose pivot is below 1e-8 of
    its norm (one the others nearly span) gets beta = 0.  Any beta leaves
    the estimate unbiased, and its residual range is what the bound reads.
    numpy's lstsq would take an SVD, whose workspace raised the peak memory
    of the default plan by 0.7 MB.
    """
    m = basis.shape[1]
    r = np.linalg.qr(np.column_stack([basis, y]), mode="r")
    norms = np.linalg.norm(basis, axis=0)
    beta = np.zeros(m)
    for i in range(m - 1, -1, -1):
        if abs(r[i, i]) > 1e-8 * norms[i]:
            beta[i] = (r[i, m] - r[i, i + 1 : m] @ beta[i + 1 :]) / r[i, i]
    return beta


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def wos_green(domain: Domain, w: Point, z: Point, walks: int, seed: int) -> McEstimate:
    """Walk-on-spheres estimate of G(z, w), with harmonic control variates.

    The walks of _walk end at boundary points X, distributed by the
    harmonic measure seen from z (up to the capture shell), and

        G(z, w) = log|z - w| - E[ log|X - w| ].

    The score log|X - w| is fitted, before any walk, by least squares on
    _FIT_NODES boundary nodes (4 per control when that is more, as on a
    polygon with many edges) with the controls u_k of _control_spec:
    functions harmonic in the closed domain, for which E[u_k(X)] = u_k(z),
    and none of them read from the green module.  With the residual
    r = score - sum beta_k u_k the estimate is

        log|z - w| - sum beta_k u_k(z) - mean_i r(X_i).

    std_error is a bound, not a sample estimate: by Popoviciu's inequality
    the variance of r(X) is at most osc(r)^2 / 4, so it is
    osc(r) / (2 sqrt(walks)), with osc the range of r on 4 times as many
    boundary nodes and on the exits, plus a rounding floor of _FIT_ULPS
    ulps of the largest fitted term per control.  The capture shell shifts
    the default plan's four estimates by at most 9.2e-10 (halving
    CAPTURE_EPS, or cutting it to 1e-8), three orders below their bounds.
    """
    if walks < 2:
        raise InvalidArgument(f"need at least 2 walks for a standard error, got {walks}")
    if not isinstance(domain, (Disc, Annulus, Polygon)):
        raise UnsupportedDomain("walk-on-spheres supports Disc, Annulus and Polygon")
    if z == w:
        raise PointOutsideDomain("z must differ from the pole w")
    if not (geo.contains(domain, w) and geo.contains(domain, z)):
        raise PointOutsideDomain("both z and w must be interior")
    _, poles, powers = spec = _control_spec(domain, w)
    fit_nodes = max(_FIT_NODES, 4 * (1 + len(poles) + 2 * len(powers)))
    nodes = domain._nodes(fit_nodes)[0]
    beta = _fit(np.stack(list(_control_columns(spec, nodes)), axis=1), np.log(np.abs(nodes - w)))

    def residual(x):
        """r at x, and the largest |score| + sum |beta_k u_k| there."""
        score = np.log(np.abs(x - w))
        fit, size = _fitted(spec, beta, x)
        size += np.abs(score)
        score -= fit
        return score, float(np.max(size))

    r_nodes, top_nodes = residual(domain._nodes(4 * fit_nodes)[0])
    r, top = residual(_walk(domain, z, walks, seed))
    lo, hi = min(r_nodes.min(), r.min()), max(r_nodes.max(), r.max())
    fit_z, size_z = (float(a) for a in _fitted(spec, beta, np.asarray(complex(z))))
    log_zw = math.log(abs(z - w))
    floor = _FIT_ULPS * len(beta) * float(np.finfo(float).eps) * (abs(log_zw) + size_z + max(top_nodes, top))
    return McEstimate(
        mean=log_zw - fit_z - float(np.mean(r)),
        std_error=float(hi - lo) / (2.0 * math.sqrt(walks)) + floor,
        samples=walks,
        seed=seed,
    )


def mc_area(domain: Domain, w: Point, levels, samples: int, seed: int) -> list[McEstimate]:
    """Rejection-sampled areas of {G(., w) < t} over the domain bounding
    box, one estimate per level t of levels, in their order.

    One draw and one pass of the field serve every level: the hits of each
    level are counted on the same samples and the same values of G, so each
    estimate is that of a call with its level alone, bit for bit.

    Only samples that can be hits reach the series.  The core lies in the
    unit disc D, so by domain monotonicity G(z, w) >= G_D(zeta, zeta_w) at
    zeta = F^-1(z), and {G < t} lies in the image of the pseudo-hyperbolic
    disc {|zeta - zeta_w| < rho |1 - conj(zeta_w) zeta|}, rho = e^t: the
    Euclidean disc of _comparison_disc (on a disc core, the sublevel set
    itself).  A sample whose zeta lies outside it at the largest level is
    dropped before contains_mask and the series; it cannot be a hit, so
    every count, and every estimate, is that of the unfiltered sampler.
    The disc is padded (_PAD_LEVEL, _PAD_CORE) far beyond the rounding of
    G and of the disc, which moves the cost alone, never a count.
    """
    levels = list(levels)
    if samples < 1:
        raise InvalidArgument(f"need at least 1 sample, got {samples}")
    for t in levels:
        if not (t < 0):
            raise InvalidArgument(f"need t < 0, got {t}")
    pb = geo.pull_back(domain, w)  # the indicator reads the series field
    if not levels:
        return []
    centre, radius = _comparison_disc(pb.zeta_w, max(levels))
    x0, x1, y0, y1 = geo.bounding_box(domain)
    hits = [0] * len(levels)
    for b in range(0, samples, _BLOCK):  # each sample is a function of its index alone
        idx = np.arange(b, min(b + _BLOCK, samples), dtype=np.uint64)
        xs = x0 + (x1 - x0) * counter_uniform(seed, _STREAM_AREA_X, idx)
        ys = y0 + (y1 - y0) * counter_uniform(seed, _STREAM_AREA_Y, idx)
        pts = xs + 1j * ys
        pts = pts[np.abs(pb.pull(pts) - centre) < radius]
        pts = pts[geo.contains_mask(domain, pts)]
        if pts.size:
            g = gr.green_values_raw(domain, w, pts)
            for k, t in enumerate(levels):
                hits[k] += int(np.count_nonzero(g < t))
    box = (x1 - x0) * (y1 - y0)
    out = []
    for h in hits:
        p = float(h) / samples
        std_error = box * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
        out.append(McEstimate(mean=box * p, std_error=std_error, samples=samples, seed=seed))
    return out


# The comparison disc's pads.  On 11 domains (annuli q = 0.02 to 0.99, discs,
# both Moebius images of the plan), 30 poles each (some 1e-6 from a circle),
# 40,000 points a pole, half of them 1e-11 to 1 from it, the series G
# fell below G_D by at most 2 eps away from the pole and by 5 eps over the
# core distance to it next to the pole.  The level pad is 4.5e9 eps; the
# core pad, 4.5e6 eps, covers the pole, where G is rounded as a distance.
_PAD_LEVEL = 1e-6  # added to the largest level
_PAD_CORE = 1e-9  # added to the radius, in core units


def _comparison_disc(zeta_w: complex, t: float) -> tuple[complex, float]:
    """Centre and radius of the Euclidean disc {|zeta - zeta_w| < rho |1 -
    conj(zeta_w) zeta|}, rho = e^(t + _PAD_LEVEL), widened by _PAD_CORE:

        centre = zeta_w (1 - rho^2) / (1 - rho^2 |zeta_w|^2),
        radius = rho (1 - |zeta_w|^2) / (1 - rho^2 |zeta_w|^2),

    with 1 - rho^2 |zeta_w|^2 written as (1 - rho^2) + rho^2 (1 - |zeta_w|^2),
    a sum of two positive terms.  Past rho = 1 it is all of D, and the
    radius is infinite.
    """
    level = t + _PAD_LEVEL
    if level >= 0:
        return 0j, math.inf
    rho2, r = math.exp(2.0 * level), abs(zeta_w)
    gap_rho, gap_w = -math.expm1(2.0 * level), (1.0 - r) * (1.0 + r)  # 1 - rho^2, 1 - |zeta_w|^2
    den = gap_rho + rho2 * gap_w
    return zeta_w * (gap_rho / den), math.sqrt(rho2) * gap_w / den + _PAD_CORE


_MEAN_ULPS = 4.0  # rounding of one angular mean of robin_extrapolate, in units of eps (s / r + |log r| + |mean|)
_STEP_ULPS = 8.0  # rounding of one Richardson step, in units of eps (|extrapolant| + |correction|)
# robin_extrapolate: points on each circle, and the radii of the circles over the boundary distance
_ROBIN_ANGLES, _ROBIN_LADDER = 64, tuple(0.25 / 2**k for k in range(5))


def robin_extrapolate(domain: Domain, w: Point) -> tuple[float, float]:
    """Capacity via the defining limit: angular means of G - log r, pushed to r = 0.

    Returns (capacity, residual).  The residual bounds the error of the
    capacity in units of c: the gap between the last two extrapolants of
    log c plus the rounding of the means carried through the tableau,
    taken through exp.  It is what the oracle_robin line of verify reads
    as its referee's bound.  The circles are the function's own, delta times
    _ROBIN_LADDER (delta / 4 halved four times, inside half the boundary
    distance delta), because no caller ever chose other ones.

    The angular mean kills the harmonic variation exactly (mean value
    property), so the Richardson table in r^2 is flat up to series and
    quadrature error; it still guards against an inconsistent Green
    function, which is the point of the oracle.  What it cannot flatten is
    rounding, which grows as r shrinks: the points of the r-circle are
    rounded by about eps s, s the larger of |w| and the pole's modulus in
    the core times |F'| there, where |grad G| is about 1/r, and the series
    forms G next to its pole from differences of the same size.  Each mean
    is charged _MEAN_ULPS eps (s / r + |log r| + |mean|).  Against 50-digit
    Robin constants, on 300 random poles of discs, annuli (q = 0.1 to 0.9)
    and Moebius images of both, and on 32 poles next to a circle, at the
    centre of a disc or on a disc far from 0, the rounding of a mean was
    at most 0.97 of eps times that sum (at the centre of the unit disc,
    where s = 0).  A step x_i -> x_{i+k} of the tableau takes the
    errors of its two entries with weights 1 + a and a, a = x_{i+k} /
    (x_i - x_{i+k}), and adds its own rounding.
    """
    delta = geo.boundary_distance(domain, w)
    radii = [delta * f for f in _ROBIN_LADDER]
    _, coeffs, zeta_w = geo.pull_back(domain, w)
    s = abs(w) if coeffs is None else max(abs(w), abs(zeta_w) * abs(geo.moebius_fprime(coeffs, zeta_w)))
    eps = float(np.finfo(float).eps)
    theta = np.exp(1j * np.linspace(0, 2 * math.pi, _ROBIN_ANGLES, endpoint=False))
    means, err = [], []  # err: bounds on the rounding of the current column
    for r in radii:
        ring = w + r * theta
        mean = float(np.mean(gr.green_values_raw(domain, w, ring))) - math.log(r)
        means.append(mean)
        err.append(_MEAN_ULPS * eps * (s / r + abs(math.log(r)) + abs(mean)))
    x = np.array([r * r for r in radii])
    tableau = [np.array(means)]
    for k in range(1, len(radii)):
        prev = tableau[-1]
        cur = np.empty(len(prev) - 1)
        cur_err = []
        for i in range(len(cur)):
            cur[i] = prev[i + 1] + (prev[i + 1] - prev[i]) * x[i + k] / (x[i] - x[i + k])
            a = float(x[i + k] / (x[i] - x[i + k]))
            step = _STEP_ULPS * eps * (abs(cur[i]) + abs(prev[i + 1] - prev[i]) * a)
            cur_err.append((1.0 + a) * err[i + 1] + a * err[i] + step)
        tableau.append(cur)
        err = cur_err
    last, prev = tableau[-1][0], tableau[-2][-1]
    if abs(last - prev) > 1e-4:
        raise ConvergenceFailure(f"extrapolants differ by {abs(last - prev)}")
    capacity = math.exp(last)
    return capacity, capacity * (math.expm1(abs(last - prev) + err[0]) + eps)


def grid_min_gradient(domain: Domain, w: Point, grid_size: int = 512) -> list[complex]:
    """Coarse localization of the zeros of grad G: local minima of |f'| on a lattice.

    Excludes a pole neighborhood of radius 10 cells and filters out minima
    that are incompatible with an actual zero (|f'| should be of order
    |f''| * cell size near one).  The returned points, best first, seed a
    Newton polish.  A grid_size below 2 is refused (InvalidArgument).
    """
    if grid_size < 2:
        raise InvalidArgument(f"need a grid of at least 2 points a side, got {grid_size}")
    core, coeffs, zeta_w = geo.pull_back(domain, w)
    if coeffs is not None:  # scan the core, push the seeds forward
        return [complex(geo.moebius_forward(coeffs, s)) for s in grid_min_gradient(core, zeta_w, grid_size)]
    x0, x1, y0, y1 = geo.bounding_box(domain)
    xs = np.linspace(x0, x1, grid_size)
    ys = np.linspace(y0, y1, grid_size)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = X + 1j * Y
    h = max((x1 - x0), (y1 - y0)) / (grid_size - 1)
    inside = geo.contains_mask(domain, Z) & (np.abs(Z - w) > 10 * h)
    mag = np.full(Z.shape, np.inf)
    if np.any(inside):
        mag[inside] = np.abs(gr.green_field(domain, w, Z[inside], ("f1",))[0])
    local = np.ones(Z.shape, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == dy == 0:
                continue
            shifted = np.full(Z.shape, np.inf)
            sx = slice(max(dx, 0), Z.shape[0] + min(dx, 0))
            tx = slice(max(-dx, 0), Z.shape[0] + min(-dx, 0))
            sy = slice(max(dy, 0), Z.shape[1] + min(dy, 0))
            ty = slice(max(-dy, 0), Z.shape[1] + min(-dy, 0))
            shifted[tx, ty] = mag[sx, sy]
            local &= mag <= shifted
    cand = np.nonzero(local & inside & np.isfinite(mag))
    points: list[complex] = []
    for i, j in zip(*cand):
        z0 = complex(Z[i, j])
        f2 = abs(complex(gr.green_field(domain, w, z0, ("f2",))[0]))
        if mag[i, j] > 3.0 * h * f2:
            continue  # spurious minimum: |f'| too large for a nearby zero
        if all(abs(z0 - p) > 3 * h for p in points):
            points.append(z0)
    points.sort(key=lambda p: abs(complex(gr.green_field(domain, w, p, ("f1",))[0])))
    return points


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

_REFINE = 4  # subcells per side in the cells the level line cuts
_GRID_ROWS = 64  # corner rows per block, which bounds the memory of a fine grid


def _masked_field(core: Domain, w: Point, z: np.ndarray) -> np.ndarray:
    """G by formula out to 45% of the way to the first reflected singularity
    past the boundary (the reflection of the pole, or a q^2-translate of
    it), +1 beyond: true values just past the boundary keep the crossings in
    boundary cells exact, and +1 is above every negative level."""
    out = np.full(z.shape, 1.0)
    if isinstance(core, Disc):  # the unit disc
        d = abs(w)
        pad = 0.45 * (1.0 / d - 1.0 if d >= 1e-9 else 1.0)
        ok = np.abs(z) < 1.0 + pad
    else:
        q, r = core.q, abs(w)
        rz = np.abs(z)
        ok = (rz > q - 0.45 * (q - q * q / r)) & (rz < 1.0 + 0.45 * (1.0 / r - 1.0))
    if np.any(ok):
        out[ok] = gr.green_values_raw(core, w, z[ok])
    return out


# Level-line chords of each marching-squares case, from edge crossing to
# edge crossing with the inside on the left (b, r, t, l: bottom, right, top,
# left edge).  The saddle cases depend on the cell centre: inside, outside.
_CHORDS = {1: ["bl"], 2: ["rb"], 4: ["tr"], 8: ["lt"], 3: ["rl"], 6: ["tb"], 12: ["lr"], 9: ["bt"], 7: ["tl"]}
_CHORDS.update({11: ["rt"], 13: ["br"], 14: ["lb"]})
_SADDLE_CHORDS = {5: (["tl", "br"], ["bl", "tr"]), 10: (["lb", "rt"], ["rb", "lt"])}


def _cell_inside_fraction(v00, v10, v11, v01, t):
    """Fraction of each unit cell lying in {field < t}, with the crossings
    linearly interpolated along the edges (v00 bottom-left, v10
    bottom-right, v11 top-right, v01 top-left).

    Green's theorem: the area is the integral of x dy around the inside
    region.  Of the cell's own edges only the right one (x = 1) adds to it,
    by the length of its inside part; each chord P -> Q adds
    (x_P + x_Q) (y_Q - y_P) / 2.
    """

    def crossing(va, vb):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (t - va) / (vb - va)
        return np.clip(np.nan_to_num(s, nan=0.5), 0.0, 1.0)

    yr = crossing(v10, v11)
    at = {"b": (crossing(v00, v10), 0.0), "r": (1.0, yr), "t": (crossing(v01, v11), 1.0), "l": (0.0, crossing(v00, v01))}
    below = [v < t for v in (v00, v10, v11, v01)]
    case = below[0] + 2 * below[1] + 4 * below[2] + 8 * below[3]
    frac = np.where(below[1], np.where(below[2], 1.0, yr), np.where(below[2], 1.0 - yr, 0.0))
    centre_in = (v00 + v10 + v11 + v01) < 4 * t
    chords = [(case == c, pq) for c, pqs in _CHORDS.items() for pq in pqs]
    for c, (inside, outside) in _SADDLE_CHORDS.items():
        chords += [((case == c) & centre_in, pq) for pq in inside] + [((case == c) & ~centre_in, pq) for pq in outside]
    for mask, (p, q) in chords:
        (xp, yp), (xq, yq) = at[p], at[q]
        frac = frac + np.where(mask, 0.5 * (xp + xq) * (yq - yp), 0.0)
    return frac


def grid_area(domain: Domain, w: Point, t: float, resolution: int = 2048) -> AreaEstimate:
    """Marching-squares area of {G(., w) < t}, the referee of sublevel's slice quadrature.

    A (resolution + 1)^2 corner grid covers the core domain, where cells are
    weighted by |F'|^2 at their centres (1 unless the domain is an image).
    Cells wholly below t count in full; each cell the level line cuts is
    split 4 x 4 and each subcell adds the exact area of the polygon carved
    out by linearly interpolated crossings.  err_est is 5% of the area of
    the subcells the line cuts.  The grid is built in blocks of rows.  For
    t < 0 the set always holds a disc about the pole, so a grid on which no
    corner or subcell falls below t cannot see it and is refused
    (BelowResolution), never answered with a zero area.
    """
    if not (t < 0):
        raise InvalidArgument(f"need t < 0, got {t}")
    if not resolution >= 1:
        raise InvalidArgument(f"need a resolution of at least 1, got {resolution}")
    core, coeffs, w_eff = geo.pull_back(domain, w)
    coeffs = coeffs or geo.IDENTITY_COEFFS
    xs = ys = np.linspace(-1.02, 1.02, resolution + 1)  # the outer circle, |z| = 1
    h = (xs[1] - xs[0]) * (1 + 1j)  # cell diagonal (the cells are square)
    sub = np.add.outer(h.real * np.linspace(0, 1, _REFINE + 1), 1j * h.imag * np.linspace(0, 1, _REFINE + 1))
    area = err = 0.0
    for i0 in range(0, resolution, _GRID_ROWS):
        z = xs[i0 : i0 + _GRID_ROWS + 1, None] + 1j * ys[None, :]
        vals = _masked_field(core, w_eff, z)
        below = [v < t for v in (vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:])]
        full = below[0] & below[1] & below[2] & below[3]
        area += float(np.sum(np.abs(geo.moebius_fprime(coeffs, z[:-1, :-1][full] + 0.5 * h)) ** 2)) * h.real * h.imag
        cut = z[:-1, :-1][(below[0] | below[1] | below[2] | below[3]) & ~full]
        sz = cut[:, None, None] + sub
        sv = _masked_field(core, w_eff, sz)
        frac = _cell_inside_fraction(sv[:, :-1, :-1], sv[:, 1:, :-1], sv[:, 1:, 1:], sv[:, :-1, 1:], t)
        wgt = np.abs(geo.moebius_fprime(coeffs, sz[:, :-1, :-1] + 0.5 * h / _REFINE)) ** 2 * (h.real * h.imag / _REFINE**2)
        area += float(np.sum(frac * wgt))
        err += 0.05 * float(np.sum(wgt[(frac > 0) & (frac < 1)]))
    if area == 0.0:
        raise BelowResolution(f"no point of a {resolution} x {resolution} grid falls below the level {t}")
    return AreaEstimate(value=float(area), err_est=float(err))
