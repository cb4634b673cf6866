"""Named theorem checks and the verification suite that strings them together.

Kernels, capacities and Green maxima come from the dual-nome images of
the Green function or from closed forms, areas from slice quadrature, and
the Monte Carlo module supplies statistical referees.  So the kernel
checks (suita, thm1, thm2, blb) read K and c from one series, as poisson
reads G and c; the test suite holds K_j to kernel_j's own bound
against Laurent sums carried to 40 digits.  The
annulus capacity is the closed-form k = 0 limit plus the other images at
the pole; oracle_robin checks that limit against the numeric limit of the
same series (angular means of G - log r, extrapolated to r = 0).  Its
independent referee is the canonical product in the test suite.  A check
records both sides, the oriented margin (positive = pass) and its full
context, so a failed line can be replayed directly.

The tolerance table is part of the report and holds only flux, whose
error is compared against tol * 2 pi.  Every other line is judged on its
own numbers: thm1, thm2 and poisson pass iff their inequality holds as
computed; suita and blb_lower iff rhs - lhs >= -bound, the bound built
from the stated errors of both sides (kernel_j's tail_bound, the
capacity's truncation_bound, the profile's err_est); an oracle line iff
|diff| is at most the bound its referee states (3 standard errors of a
Monte Carlo estimate, and for oracle_robin the residual of the limit plus
the capacity's own error); blb_monotone, thm4 and the characterization
lines follow their own rules (a drop within the profile's error
estimates, the drop of gamma'/lambda above the bound its error estimates
put on it, K_j > 0 or K_j == 0).

The plan is one list of rows (family, literal, pole, params) in report
order (plan_rows), and run_suite runs each row through its function in
FAMILIES.  Every row, flux and oracles included, runs only on a domain that
the config's entries name; a check that does not apply to its sample gives
one passing line whose params open with status=.

The checks read the numbers at the pole from a Pole: delta, the capacity,
K_j by order, max G on discs by radius and the LevelField of G(., w), each
computed the first time a row asks.  run_suite keeps one Pole per
(canonical literal, pole) for the length of one call, so the rows of a
pole share them: poisson reads thm1's disc maximum at delta/2, thm1, thm2,
blb and characterization read the kernels that suita computed, and the
blb, thm4 and oracle_mc_area rows read one field, thm4 taking its saddle
level t0 from it rather than searching again.  Every value is the one a fresh
computation gives; suita still asks kernel_j once per order, because K_0..K_3
read off the one Cholesky factor of order 3 differ from kernel_j in the
last bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bergman as bg
from . import geometry as geo
from . import green as gr
from . import oracles as oc
from . import sublevel as sl
from .errors import ConvergenceFailure, InvalidArgument, NoCriticalPoint, SkippedDegenerate
from .geometry import Domain, Point, PolarComplement

THM2_CONSTANT = (11.0 + 5.0 * math.sqrt(5.0)) / (4.0 * math.pi)
GOLDEN_RADIUS_FACTOR = (math.sqrt(5.0) - 1.0) / 2.0
THM4_EPS = 1e-4  # the thm4 witness reads the levels t0 + eps |t0| and t0 + 2 eps |t0|
_EPS = float(np.finfo(float).eps)

DEFAULT_TOLERANCES = {"flux": 1e-5}


@dataclass(frozen=True)
class Check:
    name: str
    domain: str
    pole: str
    params: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(eq=False)
class VerificationReport:
    checks: list[Check]
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _fmt_pole(w: complex) -> str:
    return f"{w.real:.12g},{w.imag:.12g}"


def _line(name, domain, w, params, lhs, rhs, passed, margin=None) -> Check:
    """One report line; the margin is rhs - lhs (positive = pass) unless given."""
    if margin is None:
        margin = rhs - lhs
    return Check(name, geo.domain_literal(domain), _fmt_pole(w), params, lhs, rhs, margin, bool(passed))


def _log_capacity_error(cap: gr.CapacityResult) -> float:
    """A bound on the error of log c: the series' truncation_bound plus the roundings
    of the few logarithms summed to form it, 8 eps (1 + |log c|); 0 where c = 0."""
    if cap.capacity == 0:
        return 0.0
    return cap.truncation_bound + 8 * _EPS * (1 + abs(cap.robin_constant))


class Pole:
    """One (domain, pole) that checks read: delta, the capacity, K_j by
    order, max G on discs by radius and the level field, each computed the
    first time a check asks for it and then kept.

    run_suite makes one Pole per (canonical literal, pole) and drops them
    all when it returns; a check called on its own takes Pole(domain, w).
    """

    def __init__(self, domain: Domain, w: Point):
        self.domain, self.w = domain, w
        self._kernels: dict[int, bg.KernelResult] = {}
        self._disc_max: dict[float, float] = {}

    @cached_property
    def delta(self) -> float:
        return geo.boundary_distance(self.domain, self.w)

    @cached_property
    def capacity(self) -> gr.CapacityResult:
        return gr.robin_capacity(self.domain, self.w)

    @cached_property
    def levels(self) -> sl.LevelField:
        return sl.LevelField(self.domain, self.w)

    def kernel(self, j: int) -> bg.KernelResult:
        if j not in self._kernels:
            self._kernels[j] = bg.kernel_j(self.domain, self.w, j)
        return self._kernels[j]

    def disc_max(self, r: float) -> float:
        if r not in self._disc_max:
            self._disc_max[r] = gr.disc_max_green(self.domain, self.w, r)
        return self._disc_max[r]


# ---------------------------------------------------------------------------
# Individual theorem checks
# ---------------------------------------------------------------------------


def suita_check(pole: Pole, j_max: int = 3) -> list[Check]:
    """K_j(w) >= j!(j+1)!/pi * c(w)^(2j+2) for j = 0..j_max (j=0 is the Suita bound), within
    c's error raised to the power 2j + 2, the roundings of the power, of /pi and of the
    product, and K_j's tail_bound: 0 on the polar complement, where K_j = c = 0."""
    if not 0 <= j_max <= 6:
        raise InvalidArgument("j_max must be within 0..6")
    domain, w, cap = pole.domain, pole.w, pole.capacity.capacity
    log_err = _log_capacity_error(pole.capacity)
    out = []
    for j in range(j_max + 1):
        kernel = pole.kernel(j)
        lhs = math.factorial(j) * math.factorial(j + 1) / math.pi * cap ** (2 * j + 2)
        bound = lhs * math.expm1((2 * j + 2) * log_err + (2 * j + 6) * _EPS) + kernel.tail_bound
        out.append(_line(f"suita[j={j}]", domain, w, f"j={j};c={cap:.12g}", lhs, kernel.value, kernel.value - lhs >= -bound))
    return out


def thm1_check(pole: Pole, r_list=None) -> list[Check]:
    """K(w) <= 1 / (-2 pi r^2 max_{|z-w|<=r} G) for each r, plus the golden radius.

    A disc that touches the boundary has max G = 0 and an infinite bound."""
    domain, w, delta = pole.domain, pole.w, pole.delta
    kernel = pole.kernel(0).value
    radii = [float(r) for r in (r_list if r_list is not None else [0.25 * delta, 0.5 * delta, 0.8 * delta])]
    radii.append(GOLDEN_RADIUS_FACTOR * delta)
    out = []
    for r in radii:
        max_g = pole.disc_max(r)
        bound = math.inf if max_g == 0 else 1.0 / (-2.0 * math.pi * r * r * max_g)
        out.append(_line(f"thm1[r={r:.6g}]", domain, w, f"r={r:.12g};maxG={max_g:.12g}", kernel, bound, kernel <= bound))
    return out


def thm2_check(pole: Pole) -> Check:
    """K(w) <= C / (delta^2 log(1/(delta c))) with C = (11 + 5 sqrt 5)/(4 pi).

    The polar complement is refused (UnsupportedDomain), as by thm1_check
    and poisson_step_check: there delta c = inf * 0 has no value."""
    geo.pull_back(pole.domain, pole.w)
    delta, cap = pole.delta, pole.capacity.capacity
    dc = delta * cap
    if dc >= 1.0 - 1e-12:
        raise SkippedDegenerate(f"delta*c = {dc}; the bound is vacuous for a centered disc")
    kernel = pole.kernel(0).value
    bound = THM2_CONSTANT / (delta * delta * math.log(1.0 / dc))
    return _line("thm2", pole.domain, pole.w, f"delta={delta:.12g};c={cap:.12g}", kernel, bound, kernel <= bound)


def poisson_step_check(pole: Pole, r: float) -> Check:
    """max G on the r-circle <= ((R-r)/(R+r)) log(R c), R the boundary distance."""
    R = pole.delta
    if not (0 < r < R):
        raise InvalidArgument(f"need 0 < r < delta = {R}")
    cap = pole.capacity.capacity
    max_g = pole.disc_max(r)
    bound = (R - r) / (R + r) * math.log(R * cap)
    params = f"r={r:.12g};R={R:.12g};c={cap:.12g}"
    return _line(f"poisson[r={r:.6g}]", pole.domain, pole.w, params, max_g, bound, max_g <= bound)


def blb_check(pole: Pole, profile: sl.SublevelProfile) -> list[Check]:
    """K(w) >= 1/(e^{-2t} lambda(t)) at every profile sample within lhs (rho/(1 - rho) + 4 eps)
    plus K's tail_bound, rho = err_est/lambda < 1 (LevelField refuses the levels where it is
    not), plus monotonicity."""
    domain, w = pole.domain, pole.w
    kernel = pole.kernel(0)
    out = []
    for t, e2t, lam, err in zip(profile.t_samples, profile.e2t_lambda, profile.lam, profile.err_est):
        lhs, rho = 1.0 / e2t, err / lam
        bound = lhs * (rho / (1.0 - rho) + 4 * _EPS) + kernel.tail_bound
        out.append(_line(f"blb_lower[t={t:.6g}]", domain, w, f"t={t:.12g}", lhs, kernel.value, kernel.value - lhs >= -bound))
    max_drop, passed = sl.monotonicity_check(profile)
    out.append(_line("blb_monotone", domain, w, f"steps={len(profile.t_samples)}", max_drop, 0.0, passed))
    return out


def thm4_scan(
    domain: Domain,
    w: Point,
    resolution: int = 1024,
    steps: int = 64,
) -> tuple[sl.ConvexityReport, Check]:
    """Scan log lambda around the top critical level and demand non-convexity.

    The window is sized to the critical level itself: |t0| collapses
    exponentially in the modulus of the annulus, and the concave stretch
    guaranteed near t0 lives between t0 and 0, so a fixed macroscopic
    window would sample nothing relevant.  Width min(0.4, 6 |t0|), upper
    edge at t0/4, steps samples (64 by default).  t0 is the saddle level of
    the LevelField that gives the areas.  This is the second-difference
    diagnostic; run_suite's thm4 row is the first-derivative thm4_witness.
    resolution is accepted, for callers that pass it positionally, and read
    by nothing.  A disc core raises NoCriticalPoint; a saddle level that is
    not negative contradicts G < 0 and raises ConvergenceFailure.
    """
    pole = Pole(domain, w)
    t0 = _saddle_level(pole)
    width = min(0.4, 6.0 * abs(t0))
    lo = t0 - 0.5 * width
    hi = min(t0 + 0.5 * width, 0.25 * t0)
    report = sl.convexity_report(sl._profile(pole.levels, lo, hi, steps, with_gamma=False), t0)
    params = f"t0={t0:.12g};window=[{lo:.6g},{hi:.6g}];floor={report.noise_floor:.6g}"
    passed = report.verdict == "NonConvexDetected"
    return report, _line("thm4", domain, w, params, report.min_second_diff, -report.noise_floor, passed)


def _saddle_level(pole: Pole) -> float:
    """t0 of the pole's level field; NoCriticalPoint on a disc core, and
    ConvergenceFailure for a level that is not negative (G < 0 inside)."""
    field = pole.levels
    if field.disc_map is not None:
        raise NoCriticalPoint(f"no critical points for {geo.domain_literal(pole.domain)} at {pole.w}")
    if not field.t0 < 0:
        raise ConvergenceFailure(f"critical level {field.t0} is not negative: G < 0 inside the domain")
    return field.t0


def thm4_witness(pole: Pole) -> Check:
    """log lambda is not convex just above the saddle level t0 (Theorem 4).

    If log lambda were convex, its slope R = gamma'/lambda would not fall.
    Just above t0, gamma' falls like (2/|f''|) log(1/(t - t0)), and so does
    R: the line reads lambda, err_est, gamma' and gamma_err at t1 = t0 +
    eps |t0| and t2 = t0 + 2 eps |t0| (eps = THM4_EPS) from the pole's
    level field, and passes iff the drop 1 - R(t2)/R(t1) exceeds the bound
    those error estimates put on it (_rate_drop).  lhs is the drop, rhs its
    bound and the margin drop - bound; a nan (gamma' not resolved) fails.
    A disc core raises NoCriticalPoint, a saddle level that is not negative
    ConvergenceFailure.
    """
    t0 = _saddle_level(pole)
    ts = t0 + np.array([1.0, 2.0]) * THM4_EPS * abs(t0)
    lam, err, gam, gam_err = pole.levels._levels(ts, with_gamma=True)
    drop, bound = _rate_drop(lam, err, gam, gam_err)
    rate = gam / lam
    params = f"t0={t0:.12g};eps={THM4_EPS:g};rate=[{rate[0]:.12g},{rate[1]:.12g}]"
    return _line("thm4", pole.domain, pole.w, params, drop, bound, drop > bound, margin=drop - bound)


def _rate_drop(lam, err, gam, gam_err) -> tuple[float, float]:
    """The drop 1 - R2/R1 of R = gamma'/lambda between two levels, and the
    largest change of it that the relative errors err/lambda and
    gamma_err/gamma' at both levels allow, plus the rounding of the ratio."""
    (l1, l2), (g1, g2) = err / lam, gam_err / gam
    ratio = float(gam[1] * lam[0] / (gam[0] * lam[1]))
    spread = math.expm1(math.log1p(g2) + math.log1p(l1) - math.log1p(-g1) - math.log1p(-l2))
    return 1.0 - ratio, ratio * (spread + 4 * _EPS) + _EPS * abs(1.0 - ratio)


def characterization_probe(pole: Pole) -> list[Check]:
    """Positivity (or vanishing, for a polar complement) of K_j, j = 0..6,
    plus strict subharmonicity of log K at five seeded interior points."""
    domain, w = pole.domain, pole.w
    polar = isinstance(domain, PolarComplement)
    out = []
    for j in range(7):
        value = pole.kernel(j).value
        if polar:
            out.append(_line(f"char_zero[j={j}]", domain, w, f"j={j}", abs(value), 0.0, value == 0.0))
        else:
            out.append(_line(f"char_pos[j={j}]", domain, w, f"j={j}", 0.0, value, value > 0.0))
    if polar:
        return out
    for k, p in enumerate(_seeded_interior_points(domain, w, count=5, seed=2024)):
        fd, _, _ = bg.laplacian_identity_check(domain, p, 0, 1e-3)
        name, params = f"char_subharmonic[pt={k}]", f"h=1e-3;pt={_fmt_pole(p)}"
        out.append(_line(name, domain, p, params, 0.0, fd, fd > 0.0))
    return out


def _seeded_interior_points(domain: Domain, w: Point, count: int, seed: int) -> list[complex]:
    """Deterministic interior points clear of the boundary (stencil room)."""
    x0, x1, y0, y1 = geo.bounding_box(domain)
    pts = []
    counter = 0
    while len(pts) < count and counter < 10_000:
        u = oc.counter_uniform(seed, 0x5EED, np.arange(counter * 2, counter * 2 + 2))
        counter += 1
        p = complex(x0 + (x1 - x0) * u[0], y0 + (y1 - y0) * u[1])
        if geo.contains(domain, p) and geo.boundary_distance(domain, p) > 0.05:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# Suite assembly: the plan is a list of rows, and one loop runs them
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    """Sample plan and knobs for run_suite; defaults mirror default_plan().

    entries also names the domains of the whole plan (plan_rows).  seed
    drives the Monte Carlo oracles (the polygon symmetry check also uses
    seed + 1).
    """

    entries: list[tuple[str, complex]] = field(default_factory=lambda: default_plan())
    blb_entries: list[tuple[str, complex, float, float]] = field(
        default_factory=lambda: [
            ("disc:0,0,1", 0j, -3.0, -0.1),
            ("annulus:0.5", 0.7 + 0j, -2.0, -0.2),
            ("annulus:0.8", 0.9 + 0j, -1.0, -0.15),
        ]
    )
    thm4_entries: list[tuple[str, complex]] = field(
        default_factory=lambda: [("annulus:0.5", 0.7 + 0j), ("annulus:0.3", 0.55 + 0j)]
    )
    char_entries: list[tuple[str, complex]] = field(
        default_factory=lambda: [("annulus:0.5", 0.7 + 0j), ("disc:0,0,1", 0j), ("polar-complement", 1 + 0j)]
    )
    tolerances: dict = field(default_factory=dict)
    seed: int = 42
    profile_steps: int = 16
    j_max: int = 3


def default_plan() -> list[tuple[str, complex]]:
    """Discs at three poles, three annuli at three poles each, two Moebius
    images, one polygon (oracle paths only) and the polar complement."""
    plan: list[tuple[str, complex]] = [
        ("disc:0,0,1", 0j),
        ("disc:0,0,1", 0.5 + 0j),
        ("disc:0,0,1", 0.3 + 0.4j),
    ]
    for q, poles in ((0.3, (0.45 + 0j, 0.65 + 0j, 0.55 + 0.55j)), (0.5, (0.6 + 0j, 0.7 + 0j, 0.5 + 0.5j)), (0.8, (0.85 + 0j, 0.9 + 0j, 0.63 + 0.63j))):
        for w in poles:
            plan.append((f"annulus:{q}", w))
    plan.append(("moebius:1,-0.3,-0.3,1;base=disc:0,0,1", 0.2 + 0.1j))
    plan.append(("moebius:1,0.15,0.15,1;base=annulus:0.5", 0.75 + 0j))
    plan.append(("polygon:0,0;1,0;1,1;0,1", 0.5 + 0.5j))
    plan.append(("polar-complement", 1 + 0j))
    return plan


# A row is (family, literal, pole, params): a family of FAMILIES run at
# (literal, pole).  The referee rows carry their own walk and sample counts.
REFEREE_ROWS = [
    ("flux", "disc:0,0,1", 0j, {"n": 512}),
    ("flux", "disc:0,0,1", 0.5 + 0j, {"n": 512}),
    ("flux", "annulus:0.5", 0.7 + 0j, {"n": 1024}),
    ("oracle_wos_green", "annulus:0.5", 0.7 + 0j, {"at": 0.55 + 0.3j, "walks": 10_000}),
    ("oracle_wos_green", "annulus:0.5", 0.7 + 0j, {"at": -0.62 + 0.1j, "walks": 10_000}),
    ("oracle_mc_area", "annulus:0.5", 0.7 + 0j, {"levels": (-0.5, -1.0), "samples": 200_000}),
    ("oracle_robin", "disc:0,0,1", 0.5 + 0j, {}),
    ("oracle_robin", "annulus:0.5", 0.7 + 0j, {}),
    ("oracle_robin", "moebius:1,-0.3,-0.3,1;base=disc:0,0,1", 0.2 + 0.1j, {}),
    ("oracle_polygon_symmetry", "polygon:0,0;1,0;1,1;0,1", 0.5 + 0.5j, {"at": 0.25 + 0.25j, "walks": 5_000}),
]


def _flux(pole, params, config) -> list[Check]:
    domain, w = pole.domain, pole.w
    flux = gr.boundary_flux(domain, w, params["n"])
    error = abs(flux - 2 * math.pi)
    passed = error <= config.tolerances.get("flux", config.tolerances.get("all", DEFAULT_TOLERANCES["flux"])) * 2 * math.pi
    return [_line("flux", domain, w, f"n={params['n']}", flux, 2 * math.pi, passed, margin=-error)]


def _within(name, domain, w, params, diff, bound) -> list[Check]:
    """An oracle line: |diff| at most the bound its referee states."""
    return [_line(name, domain, w, params, abs(diff), bound, abs(diff) <= bound)]


def _wos_green(pole, params, config) -> list[Check]:
    domain, w = pole.domain, pole.w
    z, seed = params["at"], config.seed
    est = oc.wos_green(domain, w, z, params["walks"], seed)
    diff = est.mean - gr.green_eval(domain, w, z).value
    return _within("oracle_wos_green", domain, w, f"z={_fmt_pole(z)};walks={est.samples};seed={seed}", diff, 3.0 * est.std_error)


def _mc_area(pole, params, config) -> list[Check]:
    """One draw gives every level of the row its estimate, and one level pass
    of the pole's LevelField every reference."""
    domain, w = pole.domain, pole.w
    levels, seed, out = params["levels"], config.seed, []
    refs = pole.levels._levels(levels, with_gamma=False)[0]
    for t, est, ref in zip(levels, oc.mc_area(domain, w, levels, params["samples"], seed), refs):
        diff = est.mean - float(ref)
        out += _within("oracle_mc_area", domain, w, f"t={t};samples={est.samples};seed={seed}", diff, 3.0 * est.std_error)
    return out


def _robin(pole, params, config) -> list[Check]:
    """The series capacity c against robin_extrapolate's limit, within the
    limit's residual plus c's own error: exp carries the error of log c
    (_log_capacity_error) to c."""
    domain, w, cap = pole.domain, pole.w, pole.capacity
    ends = f"radii={pole.delta * oc._ROBIN_LADDER[0]:.6g}..{pole.delta * oc._ROBIN_LADDER[-1]:.6g}"  # of robin_extrapolate's circles
    limit, residual = oc.robin_extrapolate(domain, w)
    own = cap.capacity * math.expm1(_log_capacity_error(cap))
    return _within("oracle_robin", domain, w, ends, cap.capacity - limit, residual + own)


def _polygon_symmetry(pole, params, config) -> list[Check]:
    """G(w, z) = G(z, w) from two walk estimates, seeded seed and seed + 1."""
    domain, w = pole.domain, pole.w
    z, walks, seed = params["at"], params["walks"], config.seed
    a = oc.wos_green(domain, w, z, walks, seed)
    b = oc.wos_green(domain, z, w, walks, seed + 1)
    bound = 3.0 * math.hypot(a.std_error, b.std_error)
    return _within("oracle_polygon_symmetry", domain, w, f"walks={a.samples};seed={seed}", a.mean - b.mean, bound)


# family -> (pole, row params, config) -> report lines
FAMILIES = {
    "suita": lambda pole, p, cfg: suita_check(pole, cfg.j_max),
    "thm1": lambda pole, p, cfg: thm1_check(pole),
    "thm2": lambda pole, p, cfg: [thm2_check(pole)],
    "poisson": lambda pole, p, cfg: [poisson_step_check(pole, 0.5 * pole.delta)],
    "blb": lambda pole, p, cfg: blb_check(pole, sl._profile(pole.levels, *p["t"], cfg.profile_steps, with_gamma=False)),
    "thm4": lambda pole, p, cfg: [thm4_witness(pole)],
    "characterization": lambda pole, p, cfg: characterization_probe(pole),
    "flux": _flux,
    "oracle_wos_green": _wos_green,
    "oracle_mc_area": _mc_area,
    "oracle_robin": _robin,
    "oracle_polygon_symmetry": _polygon_symmetry,
}

# The series gate: the kernel families run only on a domain whose core has
# a series, and suita also on the polar complement, where K = c = 0.
_CORES = {"suita": (*geo.SERIES_CORES, PolarComplement), "thm1": geo.SERIES_CORES, "thm2": geo.SERIES_CORES, "poisson": geo.SERIES_CORES}


def plan_rows(config: SuiteConfig) -> list[tuple]:
    """The rows of run_suite in report order: suita, thm1, thm2 and poisson
    per entry, the blb, thm4 and characterization entries, then the referee
    rows; each kept only on a domain that config.entries names."""
    canonical = lambda literal: geo.domain_literal(geo.parse_domain(literal))
    named = {canonical(literal) for literal, _ in config.entries}
    rows = [(fam, lit, w, {}) for lit, w in config.entries for fam in ("suita", "thm1", "thm2", "poisson")]
    rows += [("blb", lit, w, {"t": (t_min, t_max)}) for lit, w, t_min, t_max in config.blb_entries]
    rows += [("thm4", lit, w, {}) for lit, w in config.thm4_entries]
    rows += [("characterization", lit, w, {}) for lit, w in config.char_entries]
    return [row for row in rows + REFEREE_ROWS if canonical(row[1]) in named]


def run_suite(config: SuiteConfig | None = None, suite: str = "all") -> VerificationReport:
    """Run the plan's rows, or one family's; failures are recorded, never
    raised.  A suite that is neither "all" nor a FAMILIES key raises
    InvalidArgument.  A row that fails the series gate (_CORES) gives no
    line.  The rows of one (domain, pole) share one Pole, which lives for
    this call."""
    if suite != "all" and suite not in FAMILIES:
        raise InvalidArgument(f"no suite {suite!r}; known: all, {', '.join(FAMILIES)}")
    config = config or SuiteConfig()
    t_start = time.perf_counter()
    checks: list[Check] = []
    poles: dict[tuple[str, complex], Pole] = {}
    for family, literal, w, params in plan_rows(config):
        if suite not in ("all", family):
            continue
        domain = geo.parse_domain(literal)
        cores = _CORES.get(family)
        if cores and not isinstance(geo.flatten_moebius(domain)[0], cores):
            continue
        pole = poles.setdefault((geo.domain_literal(domain), complex(w)), Pole(domain, w))
        try:
            checks += FAMILIES[family](pole, params, config)
        except (SkippedDegenerate, NoCriticalPoint) as exc:
            status = "skipped_degenerate" if isinstance(exc, SkippedDegenerate) else "skipped"
            checks.append(_line(family, domain, w, f"status={status};{exc}", 0.0, 0.0, True))

    # the empirical constant K * delta^2 * log(1/(delta c)) of each thm2 line, as data
    thm2_ratios = [c.lhs / c.rhs * THM2_CONSTANT for c in checks if c.name == "thm2" and c.rhs != 0]
    metadata = {
        "suite": suite,
        "domains": [lit for lit, _ in config.entries],
        "poles": [_fmt_pole(w) for _, w in config.entries],
        "seed": config.seed,
        "profile_steps": config.profile_steps,
        "j_max": config.j_max,
        "tolerances": {**DEFAULT_TOLERANCES, **config.tolerances},
        "thm2_empirical_max": max(thm2_ratios) if thm2_ratios else None,
        "checks_total": len(checks),
        "checks_failed": sum(1 for c in checks if not c.passed),
        "wall_time_s": round(time.perf_counter() - t_start, 3),
    }
    return VerificationReport(checks=checks, metadata=metadata)
