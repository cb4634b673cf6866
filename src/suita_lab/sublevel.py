"""Sublevel-set geometry of the Green function.

The central objects are the area function lambda(t) = area({G(., w) < t}),
its derivative gamma'(t) = integral of 1/|grad G| along the level curve
{G = t} (co-area formula), and the shape of t -> log lambda(t), whose
convexity defect near the critical level of G is one of the phenomena this
package exists to measure.

Areas come from a tensor grid over a tight bounding box of the sublevel set
with one level of adaptive refinement: cells cut by the level line are
subdivided 4x4 and each straddling subcell contributes the exact area of
the polygon carved out by the linearly interpolated crossing points (the
standard marching-squares case table, including the two saddle cases
disambiguated by the cell-center value).  Level curves for the co-area
integral use the same case table; the integrand 1/|grad G| is evaluated
with the analytic gradient at segment midpoints, never with grid
differences.

For a Moebius image the computation runs in base coordinates: the
indicator is pulled back and the Jacobian |F'|^2 integrates the area, while
the co-area integrand picks up the same |F'|^2 factor.

A profile reads many levels of one (domain, pole) pair, so the work that
does not depend on t is done once per LevelField: input validation, one
256 x 256 coarse scan from which every level reads its bounding box, and
the critical points.  The field keeps only the corner grid of the box it
used last.  The single-level functions (sublevel_area, coarea_derivative,
extract_contours) and profile_scan each build a field for their one call;
no state outlives a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import green as gr
from .errors import (
    CriticalLevel,
    LevelAbovePeak,
    PointOutsideDomain,
    UnsupportedDomain,
    WindowTooNarrow,
)
from .geometry import Annulus, Disc, Domain, MoebiusImage, Point

_REFINE = 4  # subcells per side in straddling cells
_COARSE = 256  # points per side of the scan that bounds each sublevel set


@dataclass(frozen=True)
class AreaEstimate:
    value: float
    err_est: float


@dataclass(frozen=True, eq=False)
class SublevelProfile:
    """Sampled t -> area profile with the derived convexity diagnostics."""

    t_samples: np.ndarray
    lam: np.ndarray
    err_est: np.ndarray
    gamma_prime: np.ndarray  # nan where the level is too close to critical
    log_lambda: np.ndarray
    second_diff: np.ndarray  # centered second differences of log_lambda; nan at ends
    e2t_lambda: np.ndarray  # exp(-2t) * lambda
    domain: Domain
    pole: Point
    resolution: int


@dataclass(frozen=True)
class ConvexityReport:
    min_second_diff: float
    argmin_t: float
    critical_level: float
    window: tuple[float, float]
    noise_floor: float
    verdict: str  # "ConvexWithinTolerance" | "NonConvexDetected"


# ---------------------------------------------------------------------------
# Field evaluation with a safety shell
# ---------------------------------------------------------------------------


def _analytic_pads(core: Domain, w_eff: Point) -> tuple[float, float]:
    """How far past each boundary the Green formula may be continued.

    The closed forms stay real-analytic until the first reflected
    singularity (the reflection of the pole, or a q^2-translate of it), so
    we continue 45% of the way there and mask the rest.
    """
    if isinstance(core, Disc):
        d = abs(w_eff - core.center) / core.radius
        if d < 1e-9:
            return 0.45 * core.radius, 0.0
        return 0.45 * core.radius * (1.0 / d - 1.0), 0.0
    q = core.q
    r = abs(w_eff)
    pad_out = 0.45 * (1.0 / r - 1.0)
    pad_in = 0.45 * (q - q * q / r)
    return pad_out, pad_in


def _masked_field(core: Domain, w_eff: Point, z: np.ndarray) -> np.ndarray:
    """G by formula inside the analytic shell, +1 far outside.

    Keeping genuine (small positive) values just past the boundary makes
    the level-line interpolation exact in boundary cells; +1 is above every
    negative level, so masked points never join a sublevel set.
    """
    out = np.full(z.shape, 1.0)
    if isinstance(core, Disc):
        pad, _ = _analytic_pads(core, w_eff)
        ok = np.abs(z - core.center) < core.radius + pad
    else:
        pad_out, pad_in = _analytic_pads(core, w_eff)
        r = np.abs(z)
        ok = (r > core.q - pad_in) & (r < 1.0 + pad_out)
    if np.any(ok):
        out[ok] = gr.green_values_raw(core, w_eff, z[ok])
    return out


def _core_bbox(core: Domain) -> tuple[float, float, float, float]:
    if isinstance(core, Disc):
        c, r = core.center, core.radius * 1.02
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)
    return (-1.02, 1.02, -1.02, 1.02)


def _grid_field(core: Domain, w_eff: Point, bbox, points: int):
    """Axes and masked field values of a points x points grid over bbox."""
    x0, x1, y0, y1 = bbox
    xs = np.linspace(x0, x1, points)
    ys = np.linspace(y0, y1, points)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return xs, ys, _masked_field(core, w_eff, X + 1j * Y)


# ---------------------------------------------------------------------------
# Marching-squares case table
# ---------------------------------------------------------------------------


def _case_index(v00, v10, v11, v01, t):
    """Marching-squares case of each cell: bit k is set when corner k lies below t."""
    return (
        (v00 < t).astype(np.int8)
        | ((v10 < t).astype(np.int8) << 1)
        | ((v11 < t).astype(np.int8) << 2)
        | ((v01 < t).astype(np.int8) << 3)
    )


def _straddling_cells(vals: np.ndarray, t: float):
    """Cells of a corner grid wholly below t, and the (i, j) indices of the
    cells the level line cuts."""
    case = _case_index(vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:], t)
    return case == 15, np.nonzero((case > 0) & (case < 15))


def _crossing(va, vb, t):
    """Linear crossing offset along an edge, clipped to the cell."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (t - va) / (vb - va)
    return np.clip(np.nan_to_num(s, nan=0.5), 0.0, 1.0)


def cell_inside_fraction(v00, v10, v11, v01, t):
    """Fraction of each unit cell lying in {field < t}.

    Corner layout: v00 bottom-left, v10 bottom-right, v11 top-right,
    v01 top-left; crossings are linearly interpolated and the resulting
    polygon area is exact per case.
    """
    case = _case_index(v00, v10, v11, v01, t)
    xb = _crossing(v00, v10, t)
    xt = _crossing(v01, v11, t)
    yl = _crossing(v00, v01, t)
    yr = _crossing(v10, v11, t)
    center_in = (v00 + v10 + v11 + v01) < 4 * t
    frac = np.zeros(np.shape(v00))
    tri00 = 0.5 * xb * yl
    tri10 = 0.5 * (1 - xb) * yr
    tri11 = 0.5 * (1 - xt) * (1 - yr)
    tri01 = 0.5 * xt * (1 - yl)
    table = {
        1: tri00,
        2: tri10,
        4: tri11,
        8: tri01,
        3: 0.5 * (yl + yr),
        6: 0.5 * ((1 - xb) + (1 - xt)),
        12: 0.5 * ((1 - yl) + (1 - yr)),
        9: 0.5 * (xb + xt),
        7: 1 - tri01,
        11: 1 - tri11,
        13: 1 - tri10,
        14: 1 - tri00,
    }
    for c, expr in table.items():
        m = case == c
        if np.any(m):
            frac[m] = expr[m]
    for c, own, opp in ((5, tri00 + tri11, tri10 + tri01), (10, tri10 + tri01, tri00 + tri11)):
        m = case == c
        if np.any(m):
            frac[m] = np.where(center_in[m], 1 - opp[m], own[m])
    frac[case == 15] = 1.0
    return frac


_SEG_TABLE = {
    # case -> list of ((edge, uses_x), (edge, uses_x)) endpoint descriptors,
    # oriented with the inside on the left.
    1: [("b", "l")],
    2: [("r", "b")],
    4: [("t", "r")],
    8: [("l", "t")],
    3: [("r", "l")],
    6: [("t", "b")],
    12: [("l", "r")],
    9: [("b", "t")],
    7: [("t", "l")],
    11: [("r", "t")],
    13: [("b", "r")],
    14: [("l", "b")],
}


def cell_segments(v00, v10, v11, v01, t, x, y, hx, hy):
    """Level-line segments inside each cell, as (start, end) complex pairs.

    x, y are the lower-left corners; arrays are flat and aligned.  Returns
    (starts, ends) complex arrays covering every straddling cell, with both
    branches of the saddle cases included.
    """
    case = _case_index(v00, v10, v11, v01, t)
    xb = x + hx * _crossing(v00, v10, t)
    xt = x + hx * _crossing(v01, v11, t)
    yl = y + hy * _crossing(v00, v01, t)
    yr = y + hy * _crossing(v10, v11, t)
    pt = {
        "b": xb + 1j * y,
        "t": xt + 1j * (y + hy),
        "l": x + 1j * yl,
        "r": (x + hx) + 1j * yr,
    }
    starts, ends = [], []
    for c, segs in _SEG_TABLE.items():
        m = case == c
        if np.any(m):
            for e0, e1 in segs:
                starts.append(pt[e0][m])
                ends.append(pt[e1][m])
    center_in = (v00 + v10 + v11 + v01) < 4 * t
    for c, ins, outs in (
        (5, [("t", "l"), ("b", "r")], [("b", "l"), ("t", "r")]),
        (10, [("l", "b"), ("r", "t")], [("r", "b"), ("l", "t")]),
    ):
        m = case == c
        if np.any(m):
            mi, mo = m & center_in, m & ~center_in
            for sel, pairs in ((mi, ins), (mo, outs)):
                if np.any(sel):
                    for e0, e1 in pairs:
                        starts.append(pt[e0][sel])
                        ends.append(pt[e1][sel])
    if starts:
        return np.concatenate(starts), np.concatenate(ends)
    return np.array([], dtype=complex), np.array([], dtype=complex)


def _grid_segments(xs, ys, vals, t):
    """Level-line segments of the straddling cells of a corner grid."""
    _, (si, sj) = _straddling_cells(vals, t)
    return cell_segments(
        vals[si, sj],
        vals[si + 1, sj],
        vals[si + 1, sj + 1],
        vals[si, sj + 1],
        t,
        xs[si],
        ys[sj],
        xs[1] - xs[0],
        ys[1] - ys[0],
    )


def _chain_segments(starts: np.ndarray, ends: np.ndarray, tol: float) -> list[np.ndarray]:
    def key(z: complex):
        return (round(z.real / tol), round(z.imag / tol))

    by_start: dict = {}
    for i, s in enumerate(starts):
        by_start.setdefault(key(complex(s)), []).append(i)
    used = np.zeros(len(starts), dtype=bool)
    chains = []
    for i in range(len(starts)):
        if used[i]:
            continue
        chain = [complex(starts[i]), complex(ends[i])]
        used[i] = True
        while True:
            cands = [j for j in by_start.get(key(chain[-1]), []) if not used[j]]
            if not cands:
                break
            j = cands[0]
            used[j] = True
            chain.append(complex(ends[j]))
        chains.append(np.array(chain))
    return chains


# ---------------------------------------------------------------------------
# The level field of one (domain, pole) profile
# ---------------------------------------------------------------------------


class LevelField:
    """G(., w) on one domain at one grid resolution, read at many levels.

    Holds the evaluation frame (core domain, effective pole and, for a
    Moebius image, the composed coefficients: the grid then lives in base
    coordinates), the 256 x 256 coarse scan from which every level's
    bounding box is read, the critical points once the co-area integral
    needs them, and the corner grid of the box last used.  Each level gets
    its own box on a geometric size ladder, so nearby levels share a grid
    while deep levels get boxes scaled to their shrunken sublevel sets; a
    new box replaces the stored grid.
    """

    def __init__(self, domain: Domain, w: Point, resolution: int):
        core, coeffs = geo.flatten_moebius(domain)
        if not isinstance(core, (Disc, Annulus)):
            raise UnsupportedDomain("sublevel machinery supports Disc, Annulus and their Moebius images")
        if not geo.contains(domain, w):
            raise PointOutsideDomain(f"{w} outside domain")
        self.domain = domain
        self.w = w
        self.resolution = resolution
        self.core = core
        if isinstance(domain, MoebiusImage):
            self.w_eff, self.coeffs = geo.moebius_inverse(coeffs, w), coeffs
        else:
            self.w_eff, self.coeffs = w, None
        self._coarse = _grid_field(core, self.w_eff, _core_bbox(core), _COARSE)
        self._saddles: list[tuple[float, float]] | None = None
        self._grid = None  # (bbox, xs, ys, vals)

    def _bbox(self, t: float):
        """Bounding box of {G < t} from the coarse scan, snapped to the size ladder."""
        x0, x1, y0, y1 = _core_bbox(self.core)
        xs, ys, vals = self._coarse
        mask = vals < t
        if np.any(mask):
            hx, hy = xs[1] - xs[0], ys[1] - ys[0]
            ii, jj = np.nonzero(mask)
            tx0 = max(x0, xs[ii.min()] - 2 * hx)
            tx1 = min(x1, xs[ii.max()] + 2 * hx)
            ty0 = max(y0, ys[jj.min()] - 2 * hy)
            ty1 = min(y1, ys[jj.max()] + 2 * hy)
        else:
            # Deep level: fall back on the near-pole asymptotics {G<t} ~ disc
            # of radius e^t / c around the pole.
            cap = gr.robin_capacity(self.core, self.w_eff).capacity
            rad = 4.0 * math.exp(t) / cap
            tx0, tx1 = self.w_eff.real - rad, self.w_eff.real + rad
            ty0, ty1 = self.w_eff.imag - rad, self.w_eff.imag + rad
        full = max(x1 - x0, y1 - y0)
        tight = max(tx1 - tx0, ty1 - ty0)
        k = 0
        while k < 60 and full / 2 ** (k + 1) >= tight / 0.75:
            k += 1
        size = full / 2**k
        snap = size / 4
        cx = round(0.5 * (tx0 + tx1) / snap) * snap
        cy = round(0.5 * (ty0 + ty1) / snap) * snap
        cx = min(max(cx, x0 + size / 2), x1 - size / 2)
        cy = min(max(cy, y0 + size / 2), y1 - size / 2)
        return (cx - size / 2, cx + size / 2, cy - size / 2, cy + size / 2)

    def _corner_grid(self, t: float):
        """(xs, ys, vals) of the corner grid over the box of level t."""
        if not (t < 0):
            raise LevelAbovePeak(f"need t < 0, got {t}")
        bbox = self._bbox(t)
        if self._grid is None or self._grid[0] != bbox:
            self._grid = (bbox, *_grid_field(self.core, self.w_eff, bbox, self.resolution + 1))
        return self._grid[1:]

    def area(self, t: float) -> AreaEstimate:
        """Area of the sublevel set {G(., w) < t} with an attached error estimate."""
        xs, ys, vals = self._corner_grid(t)
        hx, hy = xs[1] - xs[0], ys[1] - ys[0]
        full, (si, sj) = _straddling_cells(vals, t)
        cell_area = hx * hy
        coeffs = self.coeffs
        if coeffs is None:
            area = float(np.count_nonzero(full)) * cell_area
        else:
            ci, cj = np.nonzero(full)
            centers = (xs[ci] + 0.5 * hx) + 1j * (ys[cj] + 0.5 * hy)
            area = float(np.sum(np.abs(geo.moebius_fprime(coeffs, centers)) ** 2)) * cell_area
        err = 0.0
        if len(si):
            # One refinement level: 4x4 subcells with exact polygon fractions.
            n = _REFINE
            fx = np.linspace(0, 1, n + 1)
            ones = np.ones((1, n + 1, n + 1))
            sub_x = xs[si][:, None, None] + (fx[None, :, None] * hx) * ones
            sub_y = ys[sj][:, None, None] + (fx[None, None, :] * hy) * ones
            sub_vals = _masked_field(self.core, self.w_eff, sub_x + 1j * sub_y)
            f00 = sub_vals[:, :-1, :-1].ravel()
            f10 = sub_vals[:, 1:, :-1].ravel()
            f11 = sub_vals[:, 1:, 1:].ravel()
            f01 = sub_vals[:, :-1, 1:].ravel()
            frac = cell_inside_fraction(f00, f10, f11, f01, t)
            sub_area = cell_area / (n * n)
            if coeffs is None:
                area += float(np.sum(frac)) * sub_area
                err = 0.05 * float(np.count_nonzero((frac > 0) & (frac < 1))) * sub_area
            else:
                cx = (sub_x[:, :-1, :-1] + 0.5 * hx / n).ravel()
                cy = (sub_y[:, :-1, :-1] + 0.5 * hy / n).ravel()
                wgt = np.abs(geo.moebius_fprime(coeffs, cx + 1j * cy)) ** 2
                area += float(np.sum(frac * wgt)) * sub_area
                err = 0.05 * float(np.sum(wgt[(frac > 0) & (frac < 1)])) * sub_area
        return AreaEstimate(value=area, err_est=err)

    def _critical(self) -> list[tuple[float, float]]:
        """(level, |f''|) of each critical point, the point pulled back to the core."""
        if self._saddles is None:
            cps = [] if isinstance(self.core, Disc) else gr.critical_points(self.domain, self.w)
            self._saddles = []
            for cp in cps:
                zc = cp.location if self.coeffs is None else geo.moebius_inverse(self.coeffs, cp.location)
                f2 = abs(complex(gr.green_fsecond_raw(self.core, self.w_eff, np.asarray(zc))))
                self._saddles.append((cp.level, f2))
        return self._saddles

    def coarea(self, t: float) -> float:
        """gamma'(t): the level-curve integral of 1 / |grad G| at level t.

        Raises CriticalLevel when t is so close to a critical value that the
        saddle pinch of {G = t} cannot be resolved by the grid (half-width
        sqrt(|t - t0| / |f''|) under two cells); the integrand degenerates
        there and the true integral diverges logarithmically.
        """
        xs, ys, vals = self._corner_grid(t)
        hx, hy = xs[1] - xs[0], ys[1] - ys[0]
        for level, f2 in self._critical():
            band = 25.0 * (hx * hx + hy * hy) * f2
            if abs(t - level) < band:
                raise CriticalLevel(f"level {t} within {band} of critical level {level}")
        starts, ends = _grid_segments(xs, ys, vals, t)
        if len(starts) == 0:
            return 0.0
        seg_len = np.abs(ends - starts)
        keep = seg_len > 1e-300
        starts, ends, seg_len = starts[keep], ends[keep], seg_len[keep]
        mids = 0.5 * (starts + ends)
        grad = np.abs(gr.green_fprime_raw(self.core, self.w_eff, mids))
        if self.coeffs is None:
            return float(np.sum(seg_len / grad))
        wgt = np.abs(geo.moebius_fprime(self.coeffs, mids)) ** 2
        return float(np.sum(seg_len * wgt / grad))

    def contours(self, t: float) -> list[np.ndarray]:
        """Level curves of G at level t as closed polylines in image coordinates."""
        xs, ys, vals = self._corner_grid(t)
        starts, ends = _grid_segments(xs, ys, vals, t)
        polylines = _chain_segments(starts, ends, tol=1e-9 * max(xs[1] - xs[0], ys[1] - ys[0]))
        if self.coeffs is not None:
            polylines = [geo.moebius_forward(self.coeffs, p) for p in polylines]
        return polylines

    def profile(self, t_min: float, t_max: float, steps: int, with_gamma: bool = True) -> SublevelProfile:
        """Uniform t grid with areas, co-area derivatives and convexity data."""
        if not (t_min < t_max < 0):
            raise LevelAbovePeak(f"need t_min < t_max < 0, got [{t_min}, {t_max}]")
        if steps < 8:
            raise ValueError("need at least 8 profile steps")
        ts = np.linspace(t_min, t_max, steps)
        lam = np.empty(steps)
        err = np.empty(steps)
        gp = np.full(steps, np.nan)
        for i, t in enumerate(ts):
            est = self.area(float(t))
            lam[i] = est.value
            err[i] = est.err_est
            if with_gamma:
                try:
                    gp[i] = self.coarea(float(t))
                except CriticalLevel:
                    pass  # marked by nan, skipped
        ll = np.log(lam)
        d2 = np.full(steps, np.nan)
        dt = ts[1] - ts[0]
        d2[1:-1] = (ll[:-2] - 2 * ll[1:-1] + ll[2:]) / (dt * dt)
        return SublevelProfile(
            t_samples=ts,
            lam=lam,
            err_est=err,
            gamma_prime=gp,
            log_lambda=ll,
            second_diff=d2,
            e2t_lambda=np.exp(-2 * ts) * lam,
            domain=self.domain,
            pole=self.w,
            resolution=self.resolution,
        )


def sublevel_area(domain: Domain, w: Point, t: float, resolution: int = 1024) -> AreaEstimate:
    """Area of the sublevel set {G(., w) < t} with an attached error estimate."""
    return LevelField(domain, w, resolution).area(t)


def coarea_derivative(domain: Domain, w: Point, t: float, resolution: int = 1024) -> float:
    """gamma'(t) at one level; see LevelField.coarea."""
    return LevelField(domain, w, resolution).coarea(t)


def extract_contours(domain: Domain, w: Point, t: float, resolution: int = 512) -> list[np.ndarray]:
    """Level curves of G at level t as closed polylines in image coordinates."""
    return LevelField(domain, w, resolution).contours(t)


# ---------------------------------------------------------------------------
# Profiles and their diagnostics
# ---------------------------------------------------------------------------


def profile_scan(
    domain: Domain,
    w: Point,
    t_min: float,
    t_max: float,
    steps: int,
    resolution: int = 1024,
    with_gamma: bool = True,
) -> SublevelProfile:
    """Uniform t grid with areas, co-area derivatives and convexity data."""
    return LevelField(domain, w, resolution).profile(t_min, t_max, steps, with_gamma)


def convexity_report(profile: SublevelProfile, t0: float) -> ConvexityReport:
    """Scan second differences of log lambda around t0 and issue a verdict.

    The noise floor is estimated by recomputing the profile at half the
    grid resolution: the difference of the two second-difference fields
    isolates the grid error, since the t samples are identical.
    """
    ts = profile.t_samples
    lo = max(ts[0], t0 - 0.2)
    hi = min(ts[-1], t0 + 0.2)
    inner = (ts >= lo) & (ts <= hi) & ~np.isnan(profile.second_diff)
    if np.count_nonzero(inner) < 8:
        raise WindowTooNarrow(f"only {np.count_nonzero(inner)} usable samples in [{lo}, {hi}]")
    half = profile_scan(
        profile.domain,
        profile.pole,
        float(ts[0]),
        float(ts[-1]),
        len(ts),
        max(64, profile.resolution // 2),
        with_gamma=False,
    )
    diff = np.abs(profile.second_diff[inner] - half.second_diff[inner])
    floor = 3.0 * float(np.max(diff))
    d2 = profile.second_diff[inner]
    i = int(np.argmin(d2))
    verdict = "NonConvexDetected" if d2[i] < -floor else "ConvexWithinTolerance"
    return ConvexityReport(
        min_second_diff=float(d2[i]),
        argmin_t=float(ts[inner][i]),
        critical_level=t0,
        window=(float(lo), float(hi)),
        noise_floor=floor,
        verdict=verdict,
    )


def monotonicity_check(profile: SublevelProfile) -> tuple[float, bool]:
    """Largest forward decrease of exp(-2t) lambda(t), and whether it is noise.

    The kernel lower bound 1/(e^{-2t} lambda) is non-increasing in t, i.e.
    e^{-2t} lambda(t) never drops as t rises toward 0.  The tolerance is
    inherited from the per-sample area error estimates, so a genuine drop
    fails while grid jitter passes.
    """
    e2t = profile.e2t_lambda
    ts = profile.t_samples
    drop = e2t[:-1] - e2t[1:]
    tol = np.exp(-2 * ts[1:]) * profile.err_est[1:] + np.exp(-2 * ts[:-1]) * profile.err_est[:-1]
    max_drop = float(np.max(drop)) if len(drop) else 0.0
    passed = bool(np.all(drop <= tol + 1e-12 * np.abs(e2t[:-1])))
    return max_drop, passed
