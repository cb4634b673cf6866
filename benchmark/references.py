"""Independent references and the correctness checks built on them.

Nothing here imports the program: every reference is a closed form, a
series summed here, a symmetry, or a brute-force sample, so no check
compares the program with a copy of its own output.  Each check returns
None when it passes and a one-line reason when it does not; the harness
turns reasons into ``correct: false``.  ``selftest.py`` feeds every check
a value just outside its tolerance.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Level of the Annulus(0.8) saddle for a pole at |w| = 0.9 (q and |w| the
# doubles 0.8 and 0.9).  A constant, recomputed by the mpmath command in
# README.md; the benchmark does not import mpmath.
THIN_RING_Q = 0.8
THIN_RING_R = 0.9
THIN_RING_LEVEL = -2.46388416433516e-19

THM2_CONSTANT = (11.0 + 5.0 * math.sqrt(5.0)) / (4.0 * math.pi)

# Tolerances; README.md says where each comes from.
TOL_SYMMETRY = 1e-12  # |G(z,w) - G(w,z)| relative to max(|G(z,w)|, |G(w,z)|)
TOL_DISC_G = 1e-12  # closed-form G on the unit disc, relative, plus 1e-15 absolute
TOL_DISC_CAP = 1e-12  # c(w) = 1/(1 - |w|^2), relative
TOL_KERNEL = 1e-11  # K_j against closed forms and the Laurent sum, relative
TOL_SUITA = 1e-12  # c^2 <= pi K0 (1 + TOL_SUITA)
TOL_SADDLE = 1e-9  # saddle off its ray, and off sqrt(q) on the thin ring, absolute
TOL_LEVEL = 1e-10  # thin-ring level, relative
TOL_DIST = 1e-6  # Moebius boundary distance below the brute force by at most this, relative
TOL_EXACT_DIST = 1e-14  # boundary distance on a disc or annulus, relative
TOL_AREA_REL = 1.3e-6  # unit-disc areas against the closed form, relative
TOL_GAMMA_REL = 1e-4  # unit-disc gamma' against the derivative of the closed form, relative


# ---------------------------------------------------------------------------
# Moebius maps F(zeta) = (a zeta + b) / (c zeta + d)
# ---------------------------------------------------------------------------


def moebius(coeffs, zeta):
    a, b, c, d = coeffs
    return (a * zeta + b) / (c * zeta + d)


def moebius_inv(coeffs, z):
    a, b, c, d = coeffs
    return (d * z - b) / (a - c * z)


def moebius_inv_deriv(coeffs, z):
    """d zeta / d z of the inverse map."""
    a, b, c, d = coeffs
    return (a * d - b * c) / (a - c * z) ** 2


def unit(angle: float) -> complex:
    return cmath.exp(1j * angle)


# ---------------------------------------------------------------------------
# Unit disc closed forms
# ---------------------------------------------------------------------------


def disc_green(z: complex, w: complex) -> float:
    return math.log(abs(z - w) / abs(1.0 - w.conjugate() * z))


def disc_capacity(w: complex) -> float:
    return 1.0 / (1.0 - abs(w) ** 2)


def disc_kernel(w: complex, j: int) -> float:
    """K_j on the unit disc: j!(j+1)!/pi c^(2j+2) (equality in the order-j
    Suita bound on simply connected domains; j = 0 is 1/(pi (1-|w|^2)^2))."""
    return math.factorial(j) * math.factorial(j + 1) / math.pi * disc_capacity(w) ** (2 * j + 2)


def disc_area(t, a: float):
    """area{G(., w) < t} on the unit disc, |w| = a: the sublevel set is the
    pseudo-hyperbolic disc of radius rho = e^t, a Euclidean disc of radius
    rho (1 - a^2) / (1 - rho^2 a^2)."""
    rho = np.exp(t)
    return math.pi * (rho * (1.0 - a * a) / (1.0 - rho * rho * a * a)) ** 2


def disc_area_deriv(t, a: float):
    """d/dt of disc_area: gamma'(t) by the co-area formula."""
    rho2a2 = np.exp(2.0 * t) * a * a
    u = np.exp(t) * (1.0 - a * a) / (1.0 - rho2a2)
    return 2.0 * math.pi * u * u * (1.0 + rho2a2) / (1.0 - rho2a2)


# ---------------------------------------------------------------------------
# Annulus q < |z| < 1
# ---------------------------------------------------------------------------


def annulus_kernel0(q: float, w: complex) -> float:
    """Bergman kernel K0(w) = sum_n |w|^2n / ||z^n||^2 over all integers n.

    ||z^n||^2 = pi (1 - q^(2n+2)) / (n+1) for n != -1 and 2 pi log(1/q) for
    n = -1.  Both sides are carried until the bound on their remaining
    tail is below 1e-17 of the partial sum (1e-16 for the two together).
    """
    r2 = abs(w) ** 2
    lq = math.log(q)
    terms = [1.0 / (r2 * 2.0 * math.pi * -lq)]
    total = terms[0]
    n = 0
    while True:  # n >= 0
        terms.append(r2**n * (n + 1) / (math.pi * -math.expm1((2 * n + 2) * lq)))
        total += terms[-1]
        n += 1
        tail = r2**n * ((n + 1) / (1.0 - r2) + r2 / (1.0 - r2) ** 2) / (math.pi * -math.expm1((2 * n + 2) * lq))
        if tail < 1e-17 * total:
            break
    s = q * q / r2
    m = 2
    while True:  # n = -m, m >= 2
        terms.append((m - 1) * s**m / (math.pi * q * q * -math.expm1((2 * m - 2) * lq)))
        total += terms[-1]
        m += 1
        tail = s**m * ((m - 1) / (1.0 - s) + s / (1.0 - s) ** 2) / (math.pi * q * q * -math.expm1((2 * m - 2) * lq))
        if tail < 1e-17 * total:
            break
    return math.fsum(terms)


def annulus_saddle_ray(w: complex) -> complex:
    """Direction of the one critical point of G(., w) on an annulus.

    Reflection through the line of w maps the annulus and the pole to
    themselves, so the unique saddle lies on that line, on the side away
    from the pole: at r (-w/|w|) with q < r < 1.  The inversion z -> q/conj(z)
    also maps the annulus to itself but moves the pole to q/conj(w), so r is
    sqrt(q) only when |w| = sqrt(q).  Off that circle r differs from
    sqrt(q) by about 2e-5 at q = 0.3 and 1e-8 at q = 0.5 (40-digit mpmath);
    at q = 0.8 the offset is below double precision (dual nome 4e-39), and
    there -sqrt(q) w/|w| is the reference location.
    """
    return -w / abs(w)


# ---------------------------------------------------------------------------
# Brute-force boundary distance of a Moebius image
# ---------------------------------------------------------------------------


def brute_boundary_distance(coeffs, circles, w: complex, n: int = 1 << 16, m: int = 4097) -> float:
    """min |F(zeta) - w| over a dense sample of each base circle (center,
    radius), resampled with m points over the four spacings around the
    best sample.  Every sample is a boundary point, so the result is an
    upper bound on the distance."""
    best = math.inf
    for center, radius in circles:
        theta = 2.0 * math.pi * np.arange(n) / n
        d = np.abs(moebius(coeffs, center + radius * np.exp(1j * theta)) - w)
        k = int(np.argmin(d))
        fine = theta[k] + (2.0 * math.pi / n) * np.linspace(-2.0, 2.0, m)
        d_fine = np.abs(moebius(coeffs, center + radius * np.exp(1j * fine)) - w)
        best = min(best, float(np.min(d)), float(np.min(d_fine)))
    return best


# ---------------------------------------------------------------------------
# Checks: None on success, a reason on failure
# ---------------------------------------------------------------------------


def rel_close(got: float, ref: float, tol: float, what: str, atol: float = 0.0):
    if not abs(got - ref) <= tol * abs(ref) + atol:
        return f"{what}: {got!r} vs reference {ref!r} (tolerance {tol:g} relative)"
    return None


def check_green_pair(g_zw: float, g_wz: float, what: str):
    if not (g_zw < 0 and g_wz < 0):
        return f"{what}: G not negative ({g_zw!r}, {g_wz!r})"
    if not abs(g_zw - g_wz) <= TOL_SYMMETRY * max(abs(g_zw), abs(g_wz)):
        return f"{what}: G(z,w) = {g_zw!r} but G(w,z) = {g_wz!r}"
    return None


def check_suita(cap: float, k0: float, what: str):
    if not cap * cap <= math.pi * k0 * (1.0 + TOL_SUITA):
        return f"{what}: c^2 = {cap * cap!r} > pi K0 = {math.pi * k0!r}"
    return None


def check_saddles(points, ray, q: float, what: str, radius=None, level=None):
    """points: [(location, level)] in base coordinates; ray: the direction
    of the saddle (annulus_saddle_ray), or None for a simply connected
    domain, which has no critical point."""
    if ray is None:
        return None if not points else f"{what}: {len(points)} critical points on a simply connected domain"
    if len(points) != 1:
        return f"{what}: {len(points)} critical points, expected exactly one"
    loc, lev = points[0]
    along = loc * ray.conjugate()
    if not (abs(along.imag) <= TOL_SADDLE and q < along.real < 1.0):
        return f"{what}: saddle at {loc!r}, off the ray {ray!r} of the annulus"
    if radius is not None and not abs(along.real - radius) <= TOL_SADDLE:
        return f"{what}: saddle at radius {along.real!r}, expected {radius!r}"
    if not lev < 0:
        return f"{what}: saddle level {lev!r} is not negative"
    if level is not None:
        return rel_close(lev, level, TOL_LEVEL, f"{what} saddle level")
    return None


def check_moebius_distance(got: float, brute: float, what: str):
    if not got <= brute:
        return f"{what}: boundary distance {got!r} above the brute-force {brute!r}"
    if not brute - got <= TOL_DIST * brute:
        return f"{what}: boundary distance {got!r} more than {TOL_DIST:g} below the brute-force {brute!r}"
    return None


def check_disc_max(got: float, samples, what: str):
    """The maximum over the closed disc is at least every sampled G on its
    circle, and below 0 when the disc stays inside the domain."""
    top = max(samples)
    if not got >= top:
        return f"{what}: max {got!r} below a sampled G {top!r}"
    if not got < 0:
        return f"{what}: max {got!r} not negative"
    return None


def trapezoid_bound(ts, err, gamma):
    """Allowed |increment of lambda - trapezoid of gamma'| per interval: the
    trapezoid error dt^3/12 max|gamma''|, with |gamma''| taken as twice the
    largest second difference of gamma' over dt^2, plus the error estimates
    of the two areas."""
    dt = float(ts[1] - ts[0])
    d2 = np.abs(gamma[:-2] - 2.0 * gamma[1:-1] + gamma[2:]) / dt**2
    return dt**3 / 12.0 * 2.0 * float(np.max(d2)) + err[:-1] + err[1:]


def check_areas(lam, area_bound: float, what: str):
    """lambda strictly increases in t and stays below the domain area."""
    if not np.all(np.diff(lam) > 0):
        return f"{what}: lambda not strictly increasing"
    if not np.all(lam < area_bound):
        return f"{what}: lambda {float(np.max(lam))!r} not below the domain area {area_bound!r}"
    return None


def check_coarea(ts, lam, err, gamma, what: str):
    """gamma' > 0, and the trapezoid rule on gamma' gives each increment of
    lambda within trapezoid_bound (the co-area formula: lambda' = gamma')."""
    if not np.all(gamma > 0):
        return f"{what}: gamma' not positive (min {float(np.nanmin(gamma))!r})"
    trap = 0.5 * (gamma[:-1] + gamma[1:]) * float(ts[1] - ts[0])
    bound = trapezoid_bound(ts, err, gamma)
    miss = np.abs(np.diff(lam) - trap)
    if not np.all(miss <= bound):
        i = int(np.argmax(miss - bound))
        return f"{what}: trapezoid of gamma' misses the increment of lambda at t={ts[i]:.6g} by {miss[i]:.3g} > {bound[i]:.3g}"
    return None


def check_lower_bound(ts, lam, err, kernel: float, what: str):
    """K(w) >= e^{2t}/lambda(t) for every area within the error estimate,
    and e^{-2t} lambda does not decrease beyond the error estimates."""
    blb = np.exp(2.0 * ts) / (lam + err)
    if not np.all(kernel >= blb):
        return f"{what}: K(w) = {kernel!r} below e^(2t)/lambda = {float(np.max(blb))!r}"
    e2t = np.exp(-2.0 * ts) * lam
    slack = np.exp(-2.0 * ts[1:]) * err[1:] + np.exp(-2.0 * ts[:-1]) * err[:-1]
    if not np.all(e2t[1:] - e2t[:-1] >= -slack):
        return f"{what}: e^(-2t) lambda decreases"
    return None


def check_profile(profile, area_bound: float, kernel: float, what: str) -> list:
    """The properties every sublevel profile with gamma' has."""
    ts, lam, err, gamma = (np.asarray(a, dtype=float) for a in (profile.t_samples, profile.lam, profile.err_est, profile.gamma_prime))
    return [
        check_areas(lam, area_bound, what),
        check_coarea(ts, lam, err, gamma, what),
        check_lower_bound(ts, lam, err, kernel, what),
    ]


def check_disc_profile(ts, lam, err, gamma, a: float, what: str):
    """Areas within each level's err_est and TOL_AREA_REL of the closed
    form, gamma' within TOL_GAMMA_REL of its derivative."""
    ref = disc_area(np.asarray(ts, dtype=float), a)
    dev = np.abs(np.asarray(lam) - ref)
    if not np.all(dev <= np.asarray(err)):
        return f"{what}: area off the closed form by more than err_est"
    if not np.all(dev <= TOL_AREA_REL * ref):
        return f"{what}: area off the closed form by {float(np.max(dev / ref)):.3g} relative"
    gref = disc_area_deriv(np.asarray(ts, dtype=float), a)
    if not np.all(np.abs(np.asarray(gamma) - gref) <= TOL_GAMMA_REL * gref):
        return f"{what}: gamma' off the closed-form derivative by more than {TOL_GAMMA_REL:g}"
    return None


def check_report(text: str, again: str, checks, expected: dict, summary: str) -> list:
    """A verify report: every line true, the expected lines per family, a
    byte-identical round trip, the summary line, and the empirical
    Theorem-2 constant K delta^2 log(1/(delta c)) = lhs/rhs * C at most C."""
    problems = []
    if again != text:
        problems.append("report.csv does not round-trip through parse_report_csv")
    bad = [c.name for c in checks if not c.passed]
    if bad:
        problems.append(f"{len(bad)} report lines are false: {bad[:5]}")
    counts: dict = {}
    for c in checks:
        fam = c.name.split("[", 1)[0]
        counts[fam] = counts.get(fam, 0) + 1
    if counts != expected:
        problems.append(f"lines per family {counts} != {expected}")
    if not summary.startswith(f"{sum(expected.values())} checks, 0 failures"):
        problems.append(f"summary line {summary.strip()!r}")
    ratios = [c.lhs / c.rhs * THM2_CONSTANT for c in checks if c.name == "thm2" and c.rhs != 0]
    if not ratios or max(ratios) > THM2_CONSTANT:
        problems.append(f"empirical Theorem-2 constant {max(ratios, default=math.nan)!r} above {THM2_CONSTANT!r}")
    return problems
