"""Brute-force estimators that cross-check every analytic code path.

Nothing here shares series machinery with the quantities it validates:

* ``wos_green``  -- walk-on-spheres simulation of the Green function,
* ``mc_area``    -- rejection-sampled sublevel areas,
* ``robin_extrapolate`` -- the capacity limit evaluated as a genuine limit
  with Richardson extrapolation,
* ``grid_min_gradient`` -- lattice localization of the zeros of grad G.
  It reads the series gradient but not the search of
  ``green.critical_points``, which goes straight to the reflection axis
  of the annulus, so it referees that search.

Randomness is counter-based: every variate is a pure function of
(seed, stream, counter), where the counter encodes the walk index and step.
Results are therefore bit-reproducible for a fixed seed regardless of how
walks are scheduled, and parallel execution would be order-independent.
The generator is a splitmix64-style finalizer over uint64, evaluated with
numpy on whole counter blocks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import green as gr
from .errors import (
    ExtrapolationUnstable,
    LevelAbovePeak,
    NonConvergence,
    PointOutsideDomain,
    UnsupportedDomain,
)
from .geometry import Annulus, Disc, Domain, MoebiusImage, Point, PolarComplement, Polygon

CAPTURE_EPS = 1e-6
MAX_STEPS = 10_000
_STEP_BITS = 14  # 2^14 > MAX_STEPS; walk index shifted past it

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

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed: int, stream: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), a pure function of (seed, stream, counter)."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        base = _finalize(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + np.uint64(stream))
        c = np.asarray(counters, dtype=np.uint64)
        bits = _finalize(base + (c + np.uint64(1)) * _GOLDEN)
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


# ---------------------------------------------------------------------------
# Domain support for the walkers
# ---------------------------------------------------------------------------


def _wall_distance(domain: Domain, p: np.ndarray) -> np.ndarray:
    if isinstance(domain, Disc):
        return domain.radius - np.abs(p - domain.center)
    if isinstance(domain, Annulus):
        r = np.abs(p)
        return np.minimum(r - domain.q, 1.0 - r)
    if isinstance(domain, Polygon):
        d = np.full(p.shape, np.inf)
        v = domain.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            e = b - a
            t = np.clip(((p - a) * np.conj(e)).real / abs(e) ** 2, 0.0, 1.0)
            d = np.minimum(d, np.abs(p - (a + t * e)))
        return d
    raise UnsupportedDomain("walk-on-spheres supports Disc, Annulus and Polygon")


def _project_boundary(domain: Domain, p: np.ndarray) -> np.ndarray:
    if isinstance(domain, Disc):
        u = p - domain.center
        return domain.center + domain.radius * u / np.abs(u)
    if isinstance(domain, Annulus):
        r = np.abs(p)
        target = np.where(r - domain.q < 1.0 - r, domain.q, 1.0)
        return p * target / r
    v = domain.vertices
    best = np.full(p.shape, np.inf)
    proj = np.array(p, dtype=complex)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        e = b - a
        t = np.clip(((p - a) * np.conj(e)).real / abs(e) ** 2, 0.0, 1.0)
        q = a + t * e
        d = np.abs(p - q)
        closer = d < best
        best = np.where(closer, d, best)
        proj = np.where(closer, q, proj)
    return proj


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def wos_green(domain: Domain, w: Point, z: Point, walks: int, seed: int) -> McEstimate:
    """Walk-on-spheres estimate of G(z, w).

    Each walk jumps to a uniform point of the largest inscribed circle
    (exact exit sampling) until it lands within the capture shell, then
    projects to the nearest boundary point.  The estimator identity is

        G(z, w) = log|z - w| - E[ log|X_exit - w| ],

    the expectation taken over the harmonic measure seen from z.  The
    capture shell introduces a bias of the order of the shell width, far
    below the statistical error at practical sample counts.
    """
    if not isinstance(domain, (Disc, Annulus, Polygon)):
        raise UnsupportedDomain("walk-on-spheres supports Disc, Annulus and Polygon")
    if z == w:
        raise PointOutsideDomain("z must differ from the pole w")
    if not (geo.contains(domain, w) and geo.contains(domain, z)):
        raise PointOutsideDomain("both z and w must be interior")
    pos = np.full(walks, complex(z), dtype=complex)
    alive = np.arange(walks)
    scores = np.empty(walks)
    step = 0
    while len(alive) and step < MAX_STEPS:
        d = _wall_distance(domain, pos[alive])
        hit = d < CAPTURE_EPS
        if np.any(hit):
            idx = alive[hit]
            exits = _project_boundary(domain, pos[idx])
            scores[idx] = np.log(np.abs(exits - w))
            pos[idx] = exits
        moving = ~hit
        if np.any(moving):
            idx = alive[moving]
            counters = (idx.astype(np.uint64) << np.uint64(_STEP_BITS)) | np.uint64(step)
            theta = 2 * math.pi * counter_uniform(seed, _STREAM_WOS, counters)
            pos[idx] = pos[idx] + d[moving] * np.exp(1j * theta)
        alive = alive[moving]
        step += 1
    if len(alive) > 0.001 * walks:
        raise NonConvergence(f"{len(alive)} of {walks} walks uncaptured after {MAX_STEPS} steps")
    if len(alive):
        exits = _project_boundary(domain, pos[alive])
        scores[alive] = np.log(np.abs(exits - w))
    mean_score = float(np.mean(scores))
    std_err = float(np.std(scores, ddof=1) / math.sqrt(walks))
    return McEstimate(
        mean=math.log(abs(z - w)) - mean_score,
        std_error=std_err,
        samples=walks,
        seed=seed,
    )


def mc_area(domain: Domain, w: Point, t: float, samples: int, seed: int) -> McEstimate:
    """Rejection-sampled area of {G(., w) < t} over the domain bounding box."""
    if not (t < 0):
        raise LevelAbovePeak(f"need t < 0, got {t}")
    core, _ = geo.flatten_moebius(domain)
    if not isinstance(core, (Disc, Annulus)):
        raise UnsupportedDomain("mc_area needs a series Green function for the indicator")
    if not geo.contains(domain, w):
        raise PointOutsideDomain(f"{w} outside domain")
    x0, x1, y0, y1 = geo.bounding_box(domain)
    idx = np.arange(samples, dtype=np.uint64)
    xs = x0 + (x1 - x0) * counter_uniform(seed, _STREAM_AREA_X, idx)
    ys = y0 + (y1 - y0) * counter_uniform(seed, _STREAM_AREA_Y, idx)
    pts = xs + 1j * ys
    inside = geo.contains_mask(domain, pts)
    hits = np.zeros(samples, dtype=bool)
    if np.any(inside):
        hits[inside] = gr.green_values_raw(domain, w, pts[inside]) < t
    box = (x1 - x0) * (y1 - y0)
    p = float(np.count_nonzero(hits)) / samples
    return McEstimate(
        mean=box * p,
        std_error=box * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples),
        samples=samples,
        seed=seed,
    )


def robin_extrapolate(domain: Domain, w: Point, radii, return_residual: bool = False):
    """Capacity via the defining limit: angular means of G - log r, pushed to r = 0.

    The angular mean kills the harmonic variation exactly (mean value
    property), so the Richardson table in r^2 is flat up to series and
    quadrature error; it still guards against an inconsistent Green
    function, which is the point of the oracle.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4 or any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("need at least 4 strictly decreasing radii")
    delta = geo.boundary_distance(domain, w)
    if radii[0] > 0.5 * delta:
        raise ValueError(f"largest radius {radii[0]} exceeds half the boundary distance {delta / 2}")
    theta = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    means = []
    for r in radii:
        ring = w + r * theta
        means.append(float(np.mean(gr.green_values_raw(domain, w, ring))) - math.log(r))
    x = np.array([r * r for r in radii])
    tableau = [np.array(means)]
    for k in range(1, len(radii)):
        prev = tableau[-1]
        cur = np.empty(len(prev) - 1)
        for i in range(len(cur)):
            cur[i] = prev[i + 1] + (prev[i + 1] - prev[i]) * x[i + k] / (x[i] - x[i + k])
        tableau.append(cur)
    last, prev = tableau[-1][0], tableau[-2][-1]
    if abs(last - prev) > 1e-4:
        raise ExtrapolationUnstable(f"extrapolants differ by {abs(last - prev)}")
    if return_residual:
        return math.exp(last), abs(last - prev)
    return math.exp(last)


def grid_min_gradient(domain: Domain, w: Point, grid_size: int = 512) -> list[complex]:
    """Coarse localization of the zeros of grad G: local minima of |f'| on a lattice.

    Excludes a pole neighborhood of radius 10 cells and filters out minima
    that are incompatible with an actual zero (|f'| should be of order
    |f''| * cell size near one).  The returned points, best first, seed a
    Newton polish.
    """
    core, coeffs = geo.flatten_moebius(domain)
    if isinstance(core, (Polygon, PolarComplement)):
        raise UnsupportedDomain("gradient scan needs a series Green function")
    if isinstance(domain, MoebiusImage):
        zeta_w = geo.moebius_inverse(coeffs, w)
        seeds = grid_min_gradient(core, zeta_w, grid_size)
        return [complex(geo.moebius_forward(coeffs, s)) for s in seeds]
    x0, x1, y0, y1 = geo.bounding_box(domain)
    xs = np.linspace(x0, x1, grid_size)
    ys = np.linspace(y0, y1, grid_size)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = X + 1j * Y
    h = max((x1 - x0), (y1 - y0)) / (grid_size - 1)
    inside = geo.contains_mask(domain, Z) & (np.abs(Z - w) > 10 * h)
    mag = np.full(Z.shape, np.inf)
    if np.any(inside):
        mag[inside] = np.abs(gr.green_fprime_raw(domain, w, Z[inside]))
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
        f2 = abs(complex(gr.green_fsecond_raw(domain, w, np.asarray(z0))))
        if mag[i, j] > 3.0 * h * f2:
            continue  # spurious minimum: |f'| too large for a nearby zero
        if all(abs(z0 - p) > 3 * h for p in points):
            points.append(z0)
    points.sort(key=lambda p: abs(complex(gr.green_fprime_raw(domain, w, np.asarray(p)))))
    return points
