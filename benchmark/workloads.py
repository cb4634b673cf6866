"""The three workloads: seeded inputs, one round of operations, its checks.

A workload is built once per process (the set-up: domains parsed, inputs
drawn from the seed).  ``round()`` runs one whole round of operations on a
cold field cache and returns its wall time, how many operations it
attempted and how many failed, and the outputs; ``check()`` then compares
the outputs with the references in references.py, outside the timed
window.  Every call goes through the module attribute at call time, so the
wrappers of trace.py see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import references as ref


@dataclass
class Round:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def _clear_field_cache(lab) -> None:
    """Start every round cold, as a CLI process does: empty the module-global
    field cache of the sublevel layer, if the program still has one."""
    cache = getattr(lab.sublevel, "_FIELD_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def _attempt(rnd: Round, key, fn, *args):
    """Run one operation; an exception counts it as failed."""
    rnd.attempted += 1
    try:
        rnd.outputs[key] = fn(*args)
    except Exception:
        rnd.failed += 1
        rnd.outputs[key] = None
        traceback.print_exc()


# ---------------------------------------------------------------------------
# verify-default
# ---------------------------------------------------------------------------


def _is_series(literal: str) -> bool:
    base = literal.split("base=", 1)[-1]
    return base.startswith(("disc:", "annulus:"))


def expected_lines(config) -> dict[str, int]:
    """Report lines per family, derived from the SuiteConfig fields.

    flux (three fixed cases) and the oracle families (two WoS points, two
    MC levels, three Robin limits, one polygon pair) are fixed in the suite
    runner, not configurable.
    """
    series = sum(_is_series(lit) for lit, _ in config.entries)
    polar = sum(lit == "polar-complement" for lit, _ in config.entries)
    char_polar = sum(lit == "polar-complement" for lit, _ in config.char_entries)
    char_other = len(config.char_entries) - char_polar
    return {
        "suita": (series + polar) * (config.j_max + 1),
        "thm1": 4 * series,  # 0.25, 0.5 and 0.8 of delta, plus the golden radius
        "thm2": series,
        "poisson": series,
        "blb_lower": config.profile_steps * len(config.blb_entries),
        "blb_monotone": len(config.blb_entries),
        "thm4": len(config.thm4_entries),
        "char_pos": 7 * char_other,
        "char_zero": 7 * char_polar,
        "char_subharmonic": 5 * char_other,
        "flux": 3,
        "oracle_wos_green": 2,
        "oracle_mc_area": 2,
        "oracle_robin": 3,
        "oracle_polygon_symmetry": 1,
    }


class VerifyDefault:
    """``suita-lab verify --suite all --out <file>`` through cli.main."""

    def __init__(self, lab, seed: int, out_dir: str):
        # The default plan is the input; the seed does not change it (its
        # oracle seed is the plan's own, 42).
        self.lab = lab
        self.config = lab.verify.SuiteConfig()
        self.expected = expected_lines(self.config)
        self.path = os.path.join(out_dir, f"report-{seed}.csv")
        self.argv = ["verify", "--suite", "all", "--out", self.path]
        self.first_text = None

    def round(self) -> Round:
        _clear_field_cache(self.lab)
        rnd = Round()
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            _attempt(rnd, "status", self.lab.cli.main, self.argv)
        rnd.wall = time.perf_counter() - t0
        if rnd.outputs["status"] != 0 and rnd.failed == 0:
            rnd.failed = 1
        rnd.outputs["stdout"] = stdout.getvalue()
        return rnd

    def check(self, out: dict) -> list[str]:
        if out["status"] != 0:
            return []  # counted as failed
        with open(self.path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        problems = []
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append("report.csv differs between two rounds of the same plan")
        checks = self.lab.cli.parse_report_csv(self.path)
        again = self.lab.cli.report_csv_text(self.lab.verify.VerificationReport(checks=checks))
        return problems + ref.check_report(text, again, checks, self.expected, out["stdout"])


# ---------------------------------------------------------------------------
# thin-ring
# ---------------------------------------------------------------------------


class ThinRing:
    """thm4 on Annulus(0.8), then gamma' profiles on the ring and the disc.

    The seed turns the poles about the origin (|w| = 0.9 on the ring, 0.5
    on the disc); both domains are rotation invariant, so every reference
    holds for every seed while the grids see a different configuration.
    """

    RING_LEVELS = (-1.0, -0.15)
    DISC_LEVELS = (-3.0, -0.1)

    def __init__(self, lab, seed: int, out_dir: str):
        rng = random.Random(seed)
        self.lab = lab
        self.ring = lab.geometry.Annulus(ref.THIN_RING_Q)
        self.disc = lab.geometry.Disc(0j, 1.0)
        self.w_ring = ref.THIN_RING_R * ref.unit(2.0 * math.pi * rng.random())
        self.w_disc = 0.5 * ref.unit(2.0 * math.pi * rng.random())

    def round(self) -> Round:
        lab = self.lab
        _clear_field_cache(lab)
        rnd = Round()
        t0 = time.perf_counter()
        _attempt(rnd, "thm4", lab.verify.thm4_scan, self.ring, self.w_ring, 1024, 64)
        _attempt(rnd, "ring", lab.sublevel.profile_scan, self.ring, self.w_ring, *self.RING_LEVELS, 16, 1024)
        _attempt(rnd, "disc", lab.sublevel.profile_scan, self.disc, self.w_disc, *self.DISC_LEVELS, 16, 1024)
        rnd.wall = time.perf_counter() - t0
        return rnd

    def check(self, out: dict) -> list[str]:
        problems = []
        if out["thm4"] is not None:
            report, line = out["thm4"]
            if report.verdict != "NonConvexDetected" or not line.passed:
                problems.append(f"thin-ring verdict {report.verdict}")
            problems.append(ref.rel_close(report.critical_level, ref.THIN_RING_LEVEL, ref.TOL_LEVEL, "thm4 critical level"))
        cps = self.lab.green.critical_points(self.ring, self.w_ring)
        q = ref.THIN_RING_Q
        problems.append(
            ref.check_saddles(
                [(cp.location, cp.level) for cp in cps],
                ref.annulus_saddle_ray(self.w_ring),
                q,
                "thin ring",
                radius=math.sqrt(q),
                level=ref.THIN_RING_LEVEL,
            )
        )
        for key, area, kernel in (
            ("ring", math.pi * (1.0 - q * q), ref.annulus_kernel0(q, self.w_ring)),
            ("disc", math.pi, ref.disc_kernel(self.w_disc, 0)),
        ):
            if out[key] is not None:
                problems += ref.check_profile(out[key], area, kernel, f"{key} profile")
        if out["disc"] is not None:
            p = out["disc"]
            problems.append(ref.check_disc_profile(p.t_samples, p.lam, p.err_est, p.gamma_prime, abs(self.w_disc), "disc profile"))
        return [p for p in problems if p]


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    literal: str
    q: float | None  # None for a disc base
    coeffs: tuple = (1, 0, 0, 1)  # F(zeta) = (a zeta + b) / (c zeta + d)

    @property
    def circles(self):
        return [(0j, 1.0)] if self.q is None else [(0j, 1.0), (0j, self.q)]

    @property
    def moebius(self) -> bool:
        return self.coeffs != (1, 0, 0, 1)


# The plan's disc, annuli and two Moebius images.  Both Moebius maps are
# automorphisms of the unit disc: the first image is the unit disc itself,
# the second the unit disc minus an eccentric disc.
POINTWISE_DOMAINS = (
    DomainSpec("disc:0,0,1", None),
    DomainSpec("annulus:0.3", 0.3),
    DomainSpec("annulus:0.5", 0.5),
    DomainSpec("annulus:0.8", 0.8),
    DomainSpec("moebius:1,-0.3,-0.3,1;base=disc:0,0,1", None, (1, -0.3, -0.3, 1)),
    DomainSpec("moebius:1,0.15,0.15,1;base=annulus:0.5", 0.5, (1, 0.15, 0.15, 1)),
)
POLES_PER_DOMAIN = 6
POINTS_PER_POLE = 24
KERNEL_ORDERS = (0, 1, 2, 3)
CRITICAL_STRATUM = 3  # the annulus pole whose critical points a round seeks

# disc_max_green at r = delta, where the closed disc touches the boundary
# and the maximum is G = 0: the disc and annulus poles of the default plan.
TOUCHING = (
    (POINTWISE_DOMAINS[0], (0j, 0.5 + 0j, 0.3 + 0.4j)),
    (POINTWISE_DOMAINS[1], (0.45 + 0j, 0.65 + 0j, 0.55 + 0.55j)),
    (POINTWISE_DOMAINS[2], (0.6 + 0j, 0.7 + 0j, 0.5 + 0.5j)),
    (POINTWISE_DOMAINS[3], (0.85 + 0j, 0.9 + 0j, 0.63 + 0.63j)),
)


def _base_point(rng: random.Random, q: float | None, margin: float, stratum: int = 0, strata: int = 1) -> complex:
    """Uniform angle; radius uniform in the base domain shrunk by margin of
    its width (the disc: 0 <= r <= 1 - margin, area-uniform), within the
    given one of strata equal slices of that range."""
    angle = 2.0 * math.pi * rng.random()
    u = (stratum + rng.random()) / strata
    if q is None:
        r = (1.0 - margin) * math.sqrt(u)
    else:
        r = q + (1.0 - q) * (margin + (1.0 - 2.0 * margin) * u)
    return r * ref.unit(angle)


def _exact_distance(spec: DomainSpec, w: complex) -> float:
    r = abs(w)
    return 1.0 - r if spec.q is None else min(r - spec.q, 1.0 - r)


class Pointwise:
    """Many small public calls on seeded poles and points."""

    def __init__(self, lab, seed: int, out_dir: str):
        rng = random.Random(seed)
        self.lab = lab
        self.cases = []
        for spec in POINTWISE_DOMAINS:
            domain = lab.geometry.parse_domain(spec.literal)
            for k in range(POLES_PER_DOMAIN):
                # one pole per radius stratum: the cost of a call depends on
                # the pole's radius, so a round costs the same on every seed
                zeta_w = _base_point(rng, spec.q, 0.12, k, POLES_PER_DOMAIN)
                zetas = []
                while len(zetas) < POINTS_PER_POLE:
                    zeta = _base_point(rng, spec.q, 0.05)
                    if abs(zeta - zeta_w) > 0.05:
                        zetas.append(zeta)
                w = complex(ref.moebius(spec.coeffs, zeta_w))
                zs = [complex(ref.moebius(spec.coeffs, z)) for z in zetas]
                # the critical-point search costs 50-200 ms on an annulus:
                # one pole per annulus domain keeps it under half the round
                crit = spec.q is None or k == CRITICAL_STRATUM
                self.cases.append((spec, domain, zeta_w, w, zs, crit))
        self.touching = [
            (lab.geometry.parse_domain(spec.literal), w, _exact_distance(spec, w)) for spec, poles in TOUCHING for w in poles
        ]

    def round(self) -> Round:
        lab = self.lab
        gr, geo, bg = lab.green, lab.geometry, lab.bergman
        rnd = Round()
        t0 = time.perf_counter()
        for i, (spec, domain, _, w, zs, crit) in enumerate(self.cases):
            _attempt(rnd, (i, "delta"), geo.boundary_distance, domain, w)
            _attempt(rnd, (i, "cap"), gr.robin_capacity, domain, w)
            for j in KERNEL_ORDERS:
                _attempt(rnd, (i, "K", j), bg.kernel_j, domain, w, j)
            delta = rnd.outputs[(i, "delta")]
            if delta is not None:
                _attempt(rnd, (i, "max"), gr.disc_max_green, domain, w, 0.5 * delta)
            for n, z in enumerate(zs):
                _attempt(rnd, (i, "G", n), gr.green_eval, domain, w, z)
                _attempt(rnd, (i, "Gr", n), gr.green_eval, domain, z, w)
            if crit:
                _attempt(rnd, (i, "crit"), gr.critical_points, domain, w)
        for n, (domain, w, delta) in enumerate(self.touching):
            # Correct outcomes: a value >= 0 or a typed refusal.
            rnd.attempted += 1
            try:
                value = gr.disc_max_green(domain, w, delta)
            except lab.errors.SuitaLabError:
                continue
            except Exception:
                traceback.print_exc()
                rnd.failed += 1
                continue
            if not value >= 0:
                rnd.failed += 1
        rnd.wall = time.perf_counter() - t0
        return rnd

    def check(self, out: dict) -> list[str]:
        problems = []
        for i, (spec, domain, zeta_w, w, zs, crit) in enumerate(self.cases):
            tag = f"{spec.literal} w={w:.6g}"
            delta, cap = out.get((i, "delta")), out.get((i, "cap"))
            kernels = {j: out.get((i, "K", j)) for j in KERNEL_ORDERS}
            if delta is not None:
                if spec.moebius:
                    brute = ref.brute_boundary_distance(spec.coeffs, spec.circles, w)
                    problems.append(ref.check_moebius_distance(delta, brute, tag))
                else:
                    problems.append(ref.rel_close(delta, _exact_distance(spec, w), ref.TOL_EXACT_DIST, f"{tag} delta"))
            if spec.q is None:  # the unit disc, in both entries
                if cap is not None:
                    problems.append(ref.rel_close(cap.capacity, ref.disc_capacity(w), ref.TOL_DISC_CAP, f"{tag} c"))
                for j, k in kernels.items():
                    if k is not None:
                        problems.append(ref.rel_close(k.value, ref.disc_kernel(w, j), ref.TOL_KERNEL, f"{tag} K{j}"))
            elif kernels[0] is not None:
                scale = abs(ref.moebius_inv_deriv(spec.coeffs, w)) ** 2
                k0 = ref.annulus_kernel0(spec.q, zeta_w) * scale
                problems.append(ref.rel_close(kernels[0].value, k0, ref.TOL_KERNEL, f"{tag} K0"))
            if cap is not None and kernels[0] is not None:
                problems.append(ref.check_suita(cap.capacity, kernels[0].value, tag))
            for j, k in kernels.items():
                if k is not None and not k.value > 0:
                    problems.append(f"{tag}: K{j} = {k.value!r} not positive")
            dmax = out.get((i, "max"))
            if dmax is not None:
                circle = w + 0.5 * delta * np.exp(2j * math.pi * (np.arange(64) + 0.37) / 64)
                if spec.q is None:
                    samples = [ref.disc_green(complex(z), w) for z in circle]
                else:
                    samples = list(self.lab.green.green_values_raw(domain, w, circle))
                problems.append(ref.check_disc_max(dmax, samples, f"{tag} disc max"))
            for n, z in enumerate(zs):
                a, b = out.get((i, "G", n)), out.get((i, "Gr", n))
                if a is None or b is None:
                    continue
                problems.append(ref.check_green_pair(a.value, b.value, f"{tag} z={z:.6g}"))
                if spec.q is None:
                    exact = ref.disc_green(z, w)
                    problems.append(ref.rel_close(a.value, exact, ref.TOL_DISC_G, f"{tag} z={z:.6g} G", 1e-15))
                    problems.append(ref.rel_close(b.value, exact, ref.TOL_DISC_G, f"{tag} z={z:.6g} G(w,z)", 1e-15))
            if crit and out.get((i, "crit")) is not None:
                points = [(complex(ref.moebius_inv(spec.coeffs, cp.location)), cp.level) for cp in out[(i, "crit")]]
                if spec.q is None:
                    problems.append(ref.check_saddles(points, None, 0.0, tag))
                else:
                    radius = math.sqrt(spec.q) if spec.q == ref.THIN_RING_Q else None
                    problems.append(ref.check_saddles(points, ref.annulus_saddle_ray(zeta_w), spec.q, tag, radius=radius))
        return [p for p in problems if p]


WORKLOADS = {"verify-default": VerifyDefault, "thin-ring": ThinRing, "pointwise": Pointwise}
