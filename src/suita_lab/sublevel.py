"""Sublevel-set geometry of the Green function.

The central objects are the area function lambda(t) = area({G(., w) < t}),
its derivative gamma'(t) = integral of 1/|grad G| along the level curve
{G = t} (co-area formula), and the shape of t -> log lambda(t), whose
convexity defect near the critical level of G is one of the phenomena this
package exists to measure.

An annulus core is cut into slices.  With the pole rotated onto the
positive axis and z = exp(x + i phi), each slice phi = const meets
{G < t} in one interval (x_lo, x_hi) around the slice minimum x_m(phi),
the root of G_x = Re(z f'), which does not depend on t.  G is even in phi
and the area element is e^{2x} dx dphi, so

    lambda(t) = int_0^phi_end (e^{2 x_hi} - e^{2 x_lo}) dphi,
    gamma'(t) = 2 int_0^phi_end (e^{2 x_hi} / G_x(x_hi) - e^{2 x_lo} / G_x(x_lo)) dphi,

with phi_end = pi at and above the saddle level t0 and, below it, the
angle phi* where the slice minimum m(phi) reaches t.  Both use one
tanh-sinh rule (Takahasi & Mori 1974), whose nodes cluster at the pole
line and at the neck next to the saddle; it doubles its nodes until the
n- and 2n-node sums agree, and err_est is their gap plus rounding.  All
roots of a profile, at every level and node, are solved together by
green's vectorized safeguarded Newton (green._newton), the one that finds
the saddle.  A Moebius image adds the weight |F'|^2 across each interval
(Gauss-Legendre in x).  On a disc core {G < t} = M(D(0, e^t)), M the
Moebius map of D(0, 1) onto the domain with M(0) = w, in closed form (the
core is the unit disc).  Level curves come from the same slice roots.

LevelField(domain, w) is the one way into the sublevel sets of G(., w):
its area, coarea and contours read single levels, and profile_scan reads
a uniform grid of levels from one field (_profile, from a kept field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import green as gr
from .errors import BelowResolution, CriticalLevel, InvalidArgument
from .geometry import Disc, Domain, Point

_EPS = float(np.finfo(float).eps)
_ROUND = 64 * _EPS  # rounding floor of an area, relative
_TAU = 3.5  # tanh-sinh half-width: the outer nodes sit exp(-pi sinh 3.5) = 2e-23 of phi_end from the ends
_FIRST = 12  # the first rule has 2 * _FIRST + 1 nodes, and each doubling halves the step
_LAST = 768  # no rule beyond 2 * _LAST + 1 nodes
_AREA_TOL = 1e-14  # n- against 2n-node agreement of an area, relative
_GAMMA_TOL = 1e-6  # the same for gamma', whose tip singularity makes it the less accurate of the two
_FAN = 32  # slices of the t-independent fan of slice minima


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


@dataclass(frozen=True)
class ConvexityReport:
    min_second_diff: float
    argmin_t: float
    critical_level: float
    window: tuple[float, float]
    noise_floor: float
    verdict: str  # "ConvexWithinTolerance" | "NonConvexDetected"


# ---------------------------------------------------------------------------
# The level field of one (domain, pole) profile
# ---------------------------------------------------------------------------


class LevelField:
    """G(., w) on one domain, read at many levels.

    Holds what does not depend on t: for a disc core the map M, for an
    annulus core the rotated pole, the saddle level and the fan of slice
    minima.  Build one per (domain, pole) and read every level from it.
    Every set of slice points is read in one pass of the field (_read),
    for all of G, z f' and z f' + z^2 f'' that the step needs there.
    """

    def __init__(self, domain: Domain, w: Point):
        core, coeffs, w_eff = geo.pull_back(domain, w)
        self.domain, self.core = domain, core
        self.moebius = coeffs is not None
        coeffs = coeffs or geo.IDENTITY_COEFFS
        self.disc_map = None
        if isinstance(core, Disc):
            # zeta -> (zeta + w) / (conj(w) zeta + 1) sends 0 to the pole of the unit disc
            self.disc_map = geo.moebius_compose(coeffs, (1.0, w_eff, w_eff.conjugate(), 1.0))
            return
        self.r0 = abs(w_eff)
        self.log_q = math.log(core.q)
        # slice coordinates -> image: the rotation, then the image map (if any)
        self.frame = geo.moebius_compose(coeffs, (w_eff / self.r0, 0.0, 0.0, 1.0))
        saddle = gr.critical_points(core, self.r0)[0]
        self.t0 = saddle.level
        # The fan: slice minima x_m and levels m on _FAN slices from the pole
        # (phi = 0, x_m = log r0, m = -inf) to the saddle (phi = pi, m = t0).
        # They do not depend on t; they start and bracket every later solve.
        self.fan_phi = np.linspace(0.0, math.pi, _FAN + 1)
        self.fan_s2 = np.sin(0.5 * self.fan_phi) ** 2
        x_pole, x_saddle = math.log(self.r0), math.log(abs(saddle.location))
        self.fan_x = x_pole + (x_saddle - x_pole) * self.fan_s2
        self.fan_x[1:-1] = self._slice_minimum(self.fan_phi[1:-1], self.fan_x[1:-1])
        self.fan_m = np.concatenate([[-np.inf], self._read(self.fan_x[1:-1], self.fan_phi[1:-1], ("g",))[0], [self.t0]])

    # -- the field on slices (rotated frame) ---------------------------------

    def _read(self, x, phi, parts):
        """The parts of the field at z = exp(x + i phi), from one pass (see
        green.green_field): "g" is G, "f1" is z f' (G_x = Re, G_phi = -Im)
        and "f2", read with "f1", is z f' + z^2 f'' (G_xx = Re)."""
        z = np.exp(x + 1j * phi)
        out = dict(zip(parts, gr.green_field(self.core, self.r0, z, parts)))
        if "f1" in out:
            out["f1"] = z * out["f1"]
        if "f2" in out:
            out["f2"] = out["f1"] + z * z * out["f2"]
        return [out[p] for p in parts]

    def _weight(self, x, phi):
        """Area weight of a slice point, summed over phi and -phi (G is even in phi)."""
        if not self.moebius:
            return 2.0 * np.exp(2.0 * x)
        jac = [np.abs(geo.moebius_fprime(self.frame, np.exp(x + 1j * s * phi))) ** 2 for s in (1, -1)]
        return np.exp(2.0 * x) * (jac[0] + jac[1])

    def _slice_minimum(self, phi, x0=None):
        """x_m(phi), the root of G_x on (log q, 0), from the start x0 (by
        default read off the fan).  Below phi = 1e-8 the start is the root
        to rounding, and G_x there is rounding noise of the pole term, so
        no step is taken."""
        if x0 is None:
            x0 = np.interp(np.sin(0.5 * phi) ** 2, self.fan_s2, self.fan_x)
        far = np.nonzero(phi >= 1e-8)[0]
        out = np.array(x0, dtype=float)
        fun = lambda x, idx: [v.real for v in self._read(x, phi[far[idx]], ("f1", "f2"))]
        out[far] = gr._newton(fun, np.full(far.shape, self.log_q), np.zeros(far.shape), out[far], 4 * _EPS)
        return out

    def _tips(self, ts: np.ndarray) -> np.ndarray:
        """phi*, where the slice minimum m(phi) reaches t, for levels t < t0.

        Newton on h = sqrt(t0 - m) - sqrt(t0 - t), with dm/dphi = G_phi at
        the slice minimum.  h is nearly linear in log phi next to the pole
        and in phi next to the saddle (where t0 - m grows like (pi - phi)^2),
        so the unknown is y = log phi below phi = 1 and phi - 1 above.  The
        fan brackets each tip, and a secant through the bracket starts it
        (next to the pole, m = m_1 + log(phi / phi_1)).  The root is closed
        by its bracket or by a step below rounding, never by |m - t|: m is
        flat next to the saddle, so |m - t| says little about phi there.
        """
        t0 = self.t0
        target = np.sqrt(t0 - ts)
        k = np.searchsorted(self.fan_m, ts)
        lo, hi = np.maximum(self.fan_phi[k - 1], 1e-300), self.fan_phi[k]
        h_lo, h_hi = (np.sqrt(t0 - self.fan_m[j]) - target for j in (k - 1, k))
        with np.errstate(invalid="ignore"):
            start = np.where(k > 1, lo + (hi - lo) * h_lo / (h_lo - h_hi), hi * np.exp(ts - self.fan_m[1]))
        phi_of = lambda y: np.where(y < 0, np.exp(np.minimum(y, 0)), 1.0 + y)
        y_of = lambda phi: np.where(phi < 1, np.log(phi), phi - 1.0)
        xm = np.interp(np.sin(0.5 * start) ** 2, self.fan_s2, self.fan_x)

        def fun(y, idx):
            phi = phi_of(y)
            xm[idx] = self._slice_minimum(phi, xm[idx])
            m, zf = self._read(xm[idx], phi, ("g", "f1"))
            gap = np.sqrt(np.maximum(t0 - m, 0.0))
            dm = -zf.imag
            with np.errstate(divide="ignore", invalid="ignore"):
                return target[idx] - gap, dm / (2.0 * gap) * np.minimum(phi, 1.0)

        return phi_of(gr._newton(fun, y_of(lo), y_of(hi), y_of(np.clip(start, lo, hi)), 4 * _EPS))

    def _roots(self, ts, phi):
        """(x_lo, x_hi) of {G < t} on the slices phi, t and phi aligned.

        A slice whose minimum is not below t by more than its rounding
        (4 eps |t|) gives the empty interval x_lo = x_hi = x_m: at the tip
        phi* the minimum meets t, and a slice left open by one rounding step
        would put a root where G_x vanishes into gamma'.  The circle itself
        is the root where G there is at most t plus one rounding step in x
        (4 eps |G_x|): next to the pole an O(1) field rounds to about 1e-17
        on the circles, more than |t| on a thin ring.  The other ends come
        from Newton on expm1(G - t), close to linear in x both next to the
        pole (where e^G is a distance) and across a thin ring (where G is
        tiny).  They start at x_m +- sqrt(expm1(2 (t - m)) / G_xx(x_m)): the
        quadratic model about x_m for t close to m, and the pole's
        log|z - w| next to the pole.
        """
        xm = self._slice_minimum(phi)
        m, _, fxx = self._read(xm, phi, ("g", "f1", "f2"))
        # the inner, then the outer circle is the root: both circles from one read
        circles = np.repeat([self.log_q, 0.0], phi.size)
        g, zf = self._read(circles, np.tile(phi, 2), ("g", "f1"))
        inner, outer = np.split(g - np.tile(ts, 2) <= 4 * _EPS * np.abs(zf.real), 2)
        open_ = m < ts - 4 * _EPS * np.abs(ts)
        k = np.nonzero(open_)[0]
        lo_side, hi_side = k[~inner[k]], k[~outer[k]]
        sides = np.concatenate([lo_side, hi_side])
        sign = np.repeat([-1.0, 1.0], [lo_side.size, hi_side.size])
        a = np.where(sign < 0, self.log_q, xm[sides])
        b = np.where(sign < 0, xm[sides], 0.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            reach = np.sqrt(np.expm1(2.0 * (ts[sides] - m[sides])) / fxx.real[sides])
        start = np.clip(xm[sides] + sign * np.nan_to_num(reach, nan=1.0, posinf=1.0), a, b)
        t_side = ts[sides]

        def fun(x, idx):
            g, zf = self._read(x, phi[sides[idx]], ("g", "f1"))
            g = g - t_side[idx]
            return sign[idx] * np.expm1(g), sign[idx] * np.exp(g) * zf.real

        # G carries a rounding error of up to about 20 eps |G| (the thin ring)
        roots = gr._newton(fun, a, b, start, 4 * _EPS, 32 * _EPS * np.abs(t_side))
        x_lo = np.where(open_ & inner, self.log_q, xm)
        x_hi = np.where(open_ & outer, 0.0, xm)
        x_lo[lo_side] = roots[: lo_side.size]
        x_hi[hi_side] = roots[lo_side.size :]
        return x_lo, x_hi

    def _integrands(self, ts, ends, taus, with_gamma):
        """Area, gamma' and rounding integrands times dphi/dtau at the nodes
        taus.  The last is the area moved by 8 eps in x at each end, all the
        precision a log-radius keeps: it rules sets only ulps across."""
        u = math.pi * np.sinh(taus)
        phi = ends[:, None] / (1.0 + np.exp(-u))
        dphi = ends[:, None] * (math.pi * np.cosh(taus) / ((1.0 + np.exp(-u)) * (1.0 + np.exp(u))))
        p = phi.ravel()
        x_lo, x_hi = self._roots(np.broadcast_to(ts[:, None], phi.shape).ravel(), p)
        if not self.moebius:
            area = np.exp(2.0 * x_lo) * np.expm1(2.0 * (x_hi - x_lo))
        else:
            nodes, weights = np.polynomial.legendre.leggauss(24)  # loaded here: only images need it
            mid, half = 0.5 * (x_hi + x_lo), 0.5 * (x_hi - x_lo)
            area = half * np.sum(self._weight(mid[:, None] + half[:, None] * nodes, p[:, None]) * weights, axis=1)
        gamma, noise = np.zeros(p.shape), np.zeros(p.shape)
        ok = x_hi > x_lo
        for x, s in ((x_hi, 1.0), (x_lo, -1.0)):
            wgt = self._weight(x[ok], p[ok])
            noise[ok] += 8 * _EPS * wgt
            if with_gamma:
                gamma[ok] += s * wgt / self._read(x[ok], p[ok], ("f1",))[0].real
        return (f.reshape(phi.shape) * dphi for f in (area, gamma, noise))

    def _annulus_levels(self, ts: np.ndarray, with_gamma: bool):
        """lambda, err_est, gamma' and gamma_err (both nan where unresolved)
        at the levels ts.

        The rule starts at 2 * _FIRST + 1 nodes and halves its step, which
        keeps every old node; a level leaves once its area (and gamma', if
        asked) agrees with the previous rule.  gamma_err is the gap of
        gamma' between those two rules plus rounding, as err_est is for the
        area.  Each level's numbers depend on that level alone, so a profile
        returns what single calls return.
        """
        ends = np.full(ts.shape, math.pi)
        ends[ts < self.t0] = self._tips(ts[ts < self.t0])
        lam, err, gam, gam_err = (np.full(ts.shape, np.nan) for _ in range(4))
        want_gamma = with_gamma & (np.abs(ts - self.t0) > 16 * _EPS * abs(self.t0))  # gamma' diverges at t0
        idx = np.arange(ts.size)
        n = _FIRST
        fa, fg, fn = self._integrands(ts, ends, np.arange(-n, n + 1) * (_TAU / n), with_gamma)
        sa, sg, noise = ((_TAU / n) * np.sum(f, axis=1) for f in (fa, fg, fn))
        while idx.size:
            n *= 2
            step = _TAU / n
            na, ng, _ = self._integrands(ts[idx], ends[idx], np.arange(1 - n, n, 2) * step, with_gamma)
            fa, fg = (np.insert(f, np.arange(1, f.shape[1]), new, axis=1) for f, new in ((fa, na), (fg, ng)))
            prev_a, prev_g = sa, sg
            sa, sg = step * np.sum(fa, axis=1), step * np.sum(fg, axis=1)
            gap = np.abs(sa - prev_a)
            new_a = np.isnan(lam[idx]) & ((gap <= _AREA_TOL * sa + noise[idx]) | (n == _LAST))
            lam[idx[new_a]] = sa[new_a]
            err[idx[new_a]] = (gap + _ROUND * sa + noise[idx])[new_a]
            gap_g = np.abs(sg - prev_g)
            new_g = want_gamma[idx] & (gap_g <= _GAMMA_TOL * sg)
            gam[idx[new_g]] = sg[new_g]
            gam_err[idx[new_g]] = (gap_g + _ROUND * sg)[new_g]
            want_gamma[idx[new_g]] = False
            keep = (np.isnan(lam[idx]) | want_gamma[idx]) & (n < _LAST)
            idx, fa, fg, sa, sg = idx[keep], fa[keep], fg[keep], sa[keep], sg[keep]
        return lam, err, gam, gam_err

    # -- public reads --------------------------------------------------------

    def _levels(self, ts, with_gamma: bool):
        """lambda, err_est, gamma' and gamma_err at the levels ts; a level
        whose err_est is not below its lambda is refused (BelowResolution)."""
        ts = np.asarray(ts, dtype=float)
        if not np.all(ts < 0):
            raise InvalidArgument(f"need t < 0, got {float(np.max(ts))}")
        if self.disc_map is not None:  # M(D(0, rho)), rho = e^t, for M = (a z + b)/(c z + d)
            a, b, c, d = self.disc_map
            rho2 = np.exp(2.0 * ts)
            d2, c2 = abs(d) ** 2, abs(c) ** 2 * rho2
            lam = math.pi * rho2 * abs(a * d - b * c) ** 2 / (d2 - c2) ** 2
            err = _ROUND * lam
            gam = 2.0 * lam * (d2 + c2) / (d2 - c2) if with_gamma else np.full(ts.shape, np.nan)
            gam_err = _ROUND * gam
        else:
            lam, err, gam, gam_err = self._annulus_levels(ts, with_gamma)
        lost = ~(err < lam)
        if np.any(lost):
            i = int(np.argmax(lost))
            raise BelowResolution(f"area {lam[i]:.3g} at level {ts[i]} does not exceed its error estimate {err[i]:.3g}")
        return lam, err, gam, gam_err

    def area(self, t: float) -> AreaEstimate:
        """Area of the sublevel set {G(., w) < t} with an attached error estimate."""
        lam, err, _, _ = self._levels([t], with_gamma=False)
        return AreaEstimate(value=float(lam[0]), err_est=float(err[0]))

    def coarea(self, t: float) -> float:
        """gamma'(t): the level-curve integral of 1 / |grad G| at level t.

        Raises CriticalLevel when t equals the critical level t0 to rounding
        (the level curve pinches at the saddle and the integral diverges
        logarithmically), or when the rule's n- and 2n-node values of gamma'
        do not agree to _GAMMA_TOL, as happens just below t0.
        """
        gam = self._levels([t], with_gamma=True)[2]
        if np.isnan(gam[0]):
            raise CriticalLevel(f"gamma' at level {t} not resolved (critical level {self.t0})")
        return float(gam[0])

    def contours(self, t: float, resolution: int) -> list[np.ndarray]:
        """Level curves of G at level t as closed polylines in image
        coordinates; resolution (at least 8) sets the samples along each."""
        if not t < 0:
            raise InvalidArgument(f"need t < 0, got {t}")
        n = max(resolution, 8)
        if self.disc_map is not None:
            circle = math.exp(t) * np.exp(2j * math.pi * np.arange(n + 1) / n)
            return [geo.moebius_forward(self.disc_map, circle)]
        end = math.pi if t >= self.t0 else float(self._tips(np.array([t]))[0])
        phi = 0.5 * end * (1.0 - np.cos(math.pi * np.arange(n + 1) / n))
        x_lo, x_hi = self._roots(np.full(phi.shape, t), phi)
        ring, lo, hi = (np.concatenate([s * v[:0:-1], v]) for s, v in ((-1, phi), (1, x_lo), (1, x_hi)))  # -end..end
        if t >= self.t0:
            curves = [np.exp(hi + 1j * ring), np.exp(lo + 1j * ring)]
        else:
            curves = [np.exp(np.concatenate([hi, lo[-2::-1]]) + 1j * np.concatenate([ring, ring[-2::-1]]))]
        return [geo.moebius_forward(self.frame, c) for c in curves]


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
    """Uniform t grid with areas, co-area derivatives and convexity data,
    read from one LevelField.  resolution is accepted, for callers that
    pass it positionally, and read by nothing."""
    return _profile(LevelField(domain, w), t_min, t_max, steps, with_gamma)


def _profile(field: LevelField, t_min: float, t_max: float, steps: int, with_gamma: bool) -> SublevelProfile:
    """profile_scan on a field already built, which its caller reads again."""
    if not (t_min < t_max < 0):
        raise InvalidArgument(f"need t_min < t_max < 0, got [{t_min}, {t_max}]")
    if steps < 8:
        raise InvalidArgument("need at least 8 profile steps")
    ts = np.linspace(t_min, t_max, steps)
    lam, err, gp, _ = field._levels(ts, with_gamma)
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
    )


def convexity_report(profile: SublevelProfile, t0: float) -> ConvexityReport:
    """Scan second differences of log lambda around t0 and issue a verdict.

    The noise floor is what the areas' own error estimates allow a second
    difference: (e[i-1] + 2 e[i] + e[i+1]) / dt^2 with e = err_est / lambda,
    the largest over the window.  err_est is the gap between the n- and
    2n-node rules plus rounding, so the floor has no absolute part.
    """
    ts = profile.t_samples
    lo = max(ts[0], t0 - 0.2)
    hi = min(ts[-1], t0 + 0.2)
    inner = (ts >= lo) & (ts <= hi) & ~np.isnan(profile.second_diff)
    if np.count_nonzero(inner) < 8:
        raise InvalidArgument(f"only {np.count_nonzero(inner)} usable samples in [{lo}, {hi}]")
    rel = profile.err_est / profile.lam
    bound = np.full(len(ts), np.nan)
    bound[1:-1] = (rel[:-2] + 2 * rel[1:-1] + rel[2:]) / (ts[1] - ts[0]) ** 2
    floor = float(np.max(bound[inner]))
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
    fails while quadrature noise passes.
    """
    e2t = profile.e2t_lambda
    ts = profile.t_samples
    drop = e2t[:-1] - e2t[1:]
    tol = np.exp(-2 * ts[1:]) * profile.err_est[1:] + np.exp(-2 * ts[:-1]) * profile.err_est[:-1]
    max_drop = float(np.max(drop)) if len(drop) else 0.0
    passed = bool(np.all(drop <= tol))
    return max_drop, passed
