import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from suita_lab import bergman as bg
from suita_lab import cli
from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab.errors import ConvergenceFailure, NoCriticalPoint, SkippedDegenerate, UnsupportedDomain
from suita_lab.geometry import Disc, PolarComplement, parse_domain


class TestSuitaCheck:
    def test_disc_center_equality(self, unit_disc):
        checks = vf.suita_check(vf.Pole(unit_disc, 0j), 3)
        assert len(checks) == 4
        for c in checks:
            assert c.passed
            assert abs(c.margin) <= 1e-8 * max(abs(c.lhs), abs(c.rhs))

    def test_annulus_strict(self, annulus_half):
        checks = vf.suita_check(vf.Pole(annulus_half, 0.7 + 0j), 0)
        assert checks[0].passed
        assert checks[0].margin > 0

    def test_polar_degenerate(self):
        checks = vf.suita_check(vf.Pole(PolarComplement(), 1 + 0j), 0)
        assert checks[0].passed
        assert checks[0].lhs == checks[0].rhs == 0.0

    def test_jmax_guard(self, unit_disc):
        with pytest.raises(ValueError):
            vf.suita_check(vf.Pole(unit_disc, 0j), 7)


class TestThm1Check:
    def test_disc_example(self, unit_disc):
        checks = vf.thm1_check(vf.Pole(unit_disc, 0j), r_list=[0.6])
        by_r = checks[0]
        assert by_r.lhs == pytest.approx(1 / math.pi, rel=1e-10)
        assert by_r.rhs == pytest.approx(1.0 / (-2 * math.pi * 0.36 * math.log(0.6)), rel=1e-6)
        assert by_r.passed

    def test_golden_radius_included(self, unit_disc):
        checks = vf.thm1_check(vf.Pole(unit_disc, 0j))
        golden = (math.sqrt(5) - 1) / 2
        assert any(abs(float(c.params.split(";")[0].split("=")[1]) - golden) < 1e-9 for c in checks)
        assert all(c.passed for c in checks)

    def test_annulus_radii(self, annulus_half):
        checks = vf.thm1_check(vf.Pole(annulus_half, 0.7 + 0j), r_list=[0.1, 0.15, 0.2])
        assert all(c.passed for c in checks)

    def test_touching_disc_infinite_bound(self, annulus_half):
        # r = delta: the closed disc touches the boundary, max G = 0
        checks = vf.thm1_check(vf.Pole(annulus_half, 0.7 + 0j), r_list=[0.2])
        assert checks[0].rhs == math.inf
        assert checks[0].passed
        assert math.isfinite(checks[1].rhs)  # the golden radius stays inside


class TestThm2Check:
    def test_constant_value(self):
        assert vf.THM2_CONSTANT == pytest.approx((11 + 5 * math.sqrt(5)) / (4 * math.pi), rel=1e-15)

    def test_centered_disc_degenerate(self, unit_disc):
        with pytest.raises(SkippedDegenerate):
            vf.thm2_check(vf.Pole(unit_disc, 0j))

    def test_offcenter_disc(self, unit_disc):
        c = vf.thm2_check(vf.Pole(unit_disc, 0.5 + 0j))
        # delta = 0.5, cap = 4/3, delta*cap = 2/3
        assert c.rhs == pytest.approx(vf.THM2_CONSTANT / (0.25 * math.log(1.5)), rel=1e-10)
        assert c.passed

    def test_annulus(self, annulus_half):
        assert vf.thm2_check(vf.Pole(annulus_half, 0.7 + 0j)).passed


class TestPoissonCheck:
    def test_disc_center(self, unit_disc):
        c = vf.poisson_step_check(vf.Pole(unit_disc, 0j), 0.5)
        assert c.lhs == pytest.approx(math.log(0.5), abs=1e-8)
        assert c.rhs == 0.0  # log(R c) = log 1
        assert c.passed

    def test_offcenter_both_negative(self, unit_disc):
        c = vf.poisson_step_check(vf.Pole(unit_disc, 0.5 + 0j), 0.25)
        assert c.lhs < 0 and c.rhs < 0
        assert c.passed

    def test_annulus(self, annulus_half):
        assert vf.poisson_step_check(vf.Pole(annulus_half, 0.7 + 0j), 0.1).passed


@pytest.fixture(scope="module")
def profile():
    return sl.profile_scan(Disc(0j, 1.0), 0j, -2.0, -0.2, 10, 256)


class TestBlbCheck:

    def test_disc_equality(self, unit_disc, profile):
        checks = vf.blb_check(vf.Pole(unit_disc, 0j), profile)
        lower = [c for c in checks if c.name.startswith("blb_lower")]
        assert len(lower) == 10
        for c in lower:
            assert c.passed
            assert abs(c.margin) <= 1e-5 * c.rhs
        mono = [c for c in checks if c.name == "blb_monotone"]
        assert len(mono) == 1 and mono[0].passed

    def test_corrupted_profile_fails(self, unit_disc, profile):
        lam = profile.lam.copy()
        lam[4] *= 1.01
        bad = dataclasses.replace(
            profile,
            lam=lam,
            log_lambda=np.log(lam),
            e2t_lambda=np.exp(-2 * profile.t_samples) * lam,
        )
        checks = vf.blb_check(vf.Pole(unit_disc, 0j), bad)
        assert any(not c.passed for c in checks)


class TestThm4Scan:
    def test_annulus_detects(self, annulus_half):
        report, check = vf.thm4_scan(annulus_half, 0.7 + 0j, resolution=512, steps=48)
        assert report.verdict == "NonConvexDetected"
        assert check.passed
        assert check.lhs < -report.noise_floor

    def test_disc_raises(self, unit_disc):
        with pytest.raises(NoCriticalPoint):
            vf.thm4_scan(unit_disc, 0.3 + 0j)

    def test_one_saddle_search(self, annulus_half, monkeypatch):
        # t0 is the saddle level of the field that gives the areas
        calls = TestPoleSharing._count(monkeypatch)
        vf.thm4_scan(annulus_half, 0.7)
        assert (len(calls["LevelField"]), len(calls["critical_points"])) == (1, 1)

    def test_nonnegative_critical_level_refused(self, annulus_half, monkeypatch):
        # G < 0 inside: a top critical level >= 0 is refused, not moved
        noisy = gr.CriticalPoint(location=-0.7 + 0j, level=7e-15, gradient_residual=0.0, order=2)
        monkeypatch.setattr(gr, "critical_points", lambda domain, w: [noisy])
        with pytest.raises(ConvergenceFailure):
            vf.thm4_scan(annulus_half, 0.7 + 0j)


class TestThm4Witness:
    """The thm4 row: gamma'/lambda falls between t0 + eps |t0| and
    t0 + 2 eps |t0|, by more than the field's error estimates allow."""

    def test_plan_lines_pass_by_a_wide_margin(self):
        checks = vf.run_suite(suite="thm4").checks
        assert len(checks) == len(vf.SuiteConfig().thm4_entries) == 2
        for c in checks:
            assert c.passed and c.margin == c.lhs - c.rhs
            assert 0 < 1e6 * c.rhs <= c.lhs

    @pytest.mark.parametrize("literal, w", [("annulus:0.8", 0.9 + 0j), ("moebius:1,0.15,0.15,1;base=annulus:0.5", 0.75 + 0j)])
    def test_passes_off_the_plan(self, literal, w):
        check = vf.thm4_witness(vf.Pole(parse_domain(literal), w))
        assert check.passed and check.lhs > check.rhs > 0

    @pytest.mark.parametrize(
        "literal, w", [("disc:0,0,1", 0j), ("disc:0,0,1", 0.5 + 0j), ("moebius:1,-0.3,-0.3,1;base=disc:0,0,1", 0.2 + 0.1j)]
    )
    def test_no_drop_on_the_disc_family(self, literal, w, monkeypatch):
        # log lambda is convex on a disc (linear at the centre): read the
        # witness at t = -2 from the closed-form lambda and gamma' of the
        # disc core, and R = gamma'/lambda = 2 (1 + r^2 rho^2)/(1 - r^2 rho^2),
        # rho = e^t, r the pole's distance from the centre, does not fall
        # (the Moebius image is the unit disc itself)
        monkeypatch.setattr(vf, "_saddle_level", lambda pole: -2.0)
        check = vf.thm4_witness(vf.Pole(parse_domain(literal), w))
        assert check.lhs <= check.rhs and not check.passed
        x = abs(w) ** 2 * np.exp(2.0 * (-2.0 + 2.0 * vf.THM4_EPS * np.array([1.0, 2.0])))
        rate = 2.0 * (1.0 + x) / (1.0 - x)
        assert abs(check.lhs - (1.0 - rate[1] / rate[0])) <= check.rhs
        assert (check.lhs == 0.0) == (w == 0)

    def test_nan_never_passes(self, annulus_half, monkeypatch):
        levels = sl.LevelField._levels

        def unresolved(self, ts, with_gamma):
            lam, err, gam, gam_err = levels(self, ts, with_gamma)
            return lam, err, np.full_like(gam, np.nan), gam_err

        monkeypatch.setattr(sl.LevelField, "_levels", unresolved)
        check = vf.thm4_witness(vf.Pole(annulus_half, 0.7 + 0j))
        assert math.isnan(check.lhs) and not check.passed

    def test_nonnegative_critical_level_refused(self, annulus_half, monkeypatch):
        noisy = gr.CriticalPoint(location=-0.7 + 0j, level=7e-15, gradient_residual=0.0, order=2)
        monkeypatch.setattr(gr, "critical_points", lambda domain, w: [noisy])
        with pytest.raises(ConvergenceFailure):
            vf.thm4_witness(vf.Pole(annulus_half, 0.7 + 0j))

    def test_two_levels_per_entry(self, monkeypatch):
        # the scan read 48 levels per entry, 96 in all
        read = []
        levels = sl.LevelField._levels

        def counted(self, ts, with_gamma):
            read.append(len(ts))
            return levels(self, ts, with_gamma)

        monkeypatch.setattr(sl.LevelField, "_levels", counted)
        vf.run_suite(suite="thm4")
        assert read == [2, 2]


class TestCharacterization:
    def test_probe_families(self, annulus_half, unit_disc):
        poles = [vf.Pole(annulus_half, 0.7 + 0j), vf.Pole(unit_disc, 0j), vf.Pole(PolarComplement(), 1 + 0j)]
        checks = [c for pole in poles for c in vf.characterization_probe(pole)]
        pos = [c for c in checks if c.name.startswith("char_pos")]
        zero = [c for c in checks if c.name.startswith("char_zero")]
        sub = [c for c in checks if c.name.startswith("char_subharmonic")]
        assert len(pos) == 14 and len(zero) == 7 and len(sub) == 10
        assert all(c.passed for c in checks)

    def test_disc_center_values(self, unit_disc):
        checks = vf.characterization_probe(vf.Pole(unit_disc, 0j))
        for j, c in enumerate(c for c in checks if c.name.startswith("char_pos")):
            expect = math.factorial(j) * math.factorial(j + 1) / math.pi
            assert c.rhs == pytest.approx(expect, rel=1e-9)


@pytest.fixture(scope="module")
def small_config():
    return vf.SuiteConfig(
        entries=[("disc:0,0,1", 0.5 + 0j), ("annulus:0.5", 0.7 + 0j)],
        blb_entries=[("disc:0,0,1", 0j, -2.0, -0.2)],
        thm4_entries=[],
        char_entries=[("polar-complement", 1 + 0j)],
        profile_steps=8,
    )


class TestRunSuite:
    def test_all_pass_and_structure(self, small_config):
        report = vf.run_suite(small_config)
        assert report.all_passed
        assert report.metadata["checks_total"] == len(report.checks)
        assert report.metadata["checks_failed"] == 0
        assert report.metadata["thm2_empirical_max"] is not None
        assert report.metadata["thm2_empirical_max"] <= vf.THM2_CONSTANT
        names = {c.name.split("[")[0] for c in report.checks}
        assert {"suita", "thm1", "thm2", "poisson", "blb_lower", "blb_monotone", "flux"} <= names

    def test_deterministic_reruns(self, small_config):
        from suita_lab.cli import report_csv_text

        a = vf.run_suite(small_config, suite="suita")
        b = vf.run_suite(small_config, suite="suita")
        assert report_csv_text(a) == report_csv_text(b)

    def test_zero_tolerance_flags_failures(self, small_config):
        cfg = dataclasses.replace(small_config, tolerances={"all": 0.0})
        report = vf.run_suite(cfg)
        assert not report.all_passed  # numerical-noise failures must surface

    def test_suite_filter(self, small_config):
        report = vf.run_suite(small_config, suite="thm1")
        assert report.checks
        assert all(c.name.startswith("thm1") for c in report.checks)

    def test_oracle_area_references_share_one_field(self, monkeypatch):
        # both oracle_mc_area references are read from one LevelField, so
        # the saddle search and its fan of slice minima run once, and from
        # one level pass of it
        built, passes = [], []

        class Counted(sl.LevelField):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

            def _levels(self, ts, with_gamma):
                passes.append(list(ts))
                return super()._levels(ts, with_gamma)

        monkeypatch.setattr(sl, "LevelField", Counted)
        (row,) = [row for row in vf.REFEREE_ROWS if row[0] == "oracle_mc_area"]
        family, literal, w, params = row
        checks = vf.FAMILIES[family](vf.Pole(parse_domain(literal), w), {**params, "samples": 1000}, vf.SuiteConfig())
        assert [c.params.split(";")[0] for c in checks] == ["t=-0.5", "t=-1.0"]
        assert len(built) == 1
        assert passes == [[-0.5, -1.0]]

    def test_oracle_area_row_feeds_few_points_to_the_series(self, monkeypatch):
        # the comparison disc keeps the row's 200,000 samples off the series
        # unless they can fall below its largest level (about 59% of them
        # lie in the domain)
        fed = []
        field = gr.green_values_raw
        monkeypatch.setattr(gr, "green_values_raw", lambda d, w, z: fed.append(np.size(z)) or field(d, w, z))
        (row,) = [row for row in vf.REFEREE_ROWS if row[0] == "oracle_mc_area"]
        family, literal, w, params = row
        assert params["samples"] == 200_000
        checks = vf.FAMILIES[family](vf.Pole(parse_domain(literal), w), params, vf.SuiteConfig())
        assert all(c.passed for c in checks)
        assert 0 < sum(fed) <= 16_000

    def test_default_plan_shape(self):
        plan = vf.default_plan()
        assert len(plan) == 16
        literals = [lit for lit, _ in plan]
        assert literals.count("disc:0,0,1") == 3
        assert sum(1 for lit in literals if lit.startswith("annulus")) == 9
        assert sum(1 for lit in literals if lit.startswith("moebius")) == 2
        assert sum(1 for lit in literals if lit.startswith("polygon")) == 1
        assert "polar-complement" in literals
        for lit, w in plan:
            domain = parse_domain(lit)
            from suita_lab.geometry import contains

            assert contains(domain, w)


class TestPoleSharing:
    """run_suite reads delta, c, K_j, disc maxima and the level field once per
    (domain, pole), and draws the Monte Carlo samples of a row once."""

    @staticmethod
    def _count(monkeypatch):
        """Calls of disc_max_green, kernel_j, mc_area, critical_points and
        LevelField builds: (calling module, args)."""
        calls = {}
        counted_names = ((gr, "disc_max_green"), (bg, "kernel_j"), (oc, "mc_area"), (gr, "critical_points"), (sl, "LevelField"))
        for module, name in counted_names:

            def counted(*args, _fn=getattr(module, name), _seen=calls.setdefault(name, [])):
                _seen.append((sys._getframe(1).f_globals["__name__"], args))
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_default_plan(self, monkeypatch):
        calls = self._count(monkeypatch)
        counts = []
        for _ in range(2):  # nothing outlives a run: the second one computes everything again
            for seen in calls.values():
                seen.clear()
            report = vf.run_suite()
            # 14 series poles x (0.25, 0.5, 0.8 and the golden ratio of delta);
            # poisson reads thm1's 0.5 delta
            assert len(calls["disc_max_green"]) == 56
            asked = [
                (geo.domain_literal(d), complex(w), j) for caller, (d, w, j) in calls["kernel_j"] if caller == vf.__name__
            ]
            assert asked and len(set(asked)) == len(asked)
            mc_rows = [row for row in vf.plan_rows(vf.SuiteConfig()) if row[0] == "oracle_mc_area"]
            assert len(calls["mc_area"]) == len(mc_rows) == 1
            # one field per pole of the blb, thm4 and oracle_mc_area rows (disc:0,0,1 at 0,
            # and the annuli 0.5 at 0.7, 0.8 at 0.9 and 0.3 at 0.55), one saddle search per annulus
            assert len(calls["LevelField"]) == 4
            assert [caller for caller, _ in calls["critical_points"]] == [sl.__name__] * 3
            assert report.all_passed
            counts.append({name: len(seen) for name, seen in calls.items()})
        assert counts[0] == counts[1]

    def test_checks_share_one_pole(self, annulus_half, monkeypatch):
        calls = self._count(monkeypatch)
        pole = vf.Pole(annulus_half, 0.7 + 0j)
        vf.suita_check(pole)
        vf.thm1_check(pole)
        vf.thm2_check(pole)
        vf.poisson_step_check(pole, 0.5 * pole.delta)
        assert [args[2] for _, args in calls["kernel_j"]] == [0, 1, 2, 3]
        assert len(calls["disc_max_green"]) == 4


GOLDEN = Path(__file__).parent / "default_report.csv"

# the report families of each --suite choice
SUITE_LINES = {
    "suita": ("suita",),
    "thm1": ("thm1",),
    "thm2": ("thm2",),
    "blb": ("blb_lower", "blb_monotone"),
    "thm4": ("thm4",),
    "poisson": ("poisson",),
    "characterization": ("char_pos", "char_zero", "char_subharmonic"),
}


def _name_family(line: str) -> str:
    return line.split(",", 1)[0].split("[", 1)[0]


class TestPlan:
    @pytest.mark.parametrize("suite", list(SUITE_LINES))
    def test_suite_choice_is_its_golden_lines(self, suite):
        header, *lines = GOLDEN.read_text().splitlines()
        expected = [line for line in lines if _name_family(line) in SUITE_LINES[suite]]
        assert expected
        assert cli.report_csv_text(vf.run_suite(suite=suite)).splitlines() == [header, *expected]

    def test_every_family_has_a_default_row(self):
        assert {family for family, *_ in vf.plan_rows(vf.SuiteConfig())} == set(vf.FAMILIES)

    @pytest.mark.parametrize("family", ["thm1", "suita", "flux"])
    def test_family_tolerance_reaches_only_its_lines(self, family):
        # tolerance.<family> = 0 fails exactly the lines of that family with a
        # negative margin (none for thm1), and leaves every other line as it was
        config = vf.SuiteConfig(tolerances=cli.parse_config(f"tolerance.{family} = 0\n")["tolerances"])
        header, *golden = GOLDEN.read_text().splitlines()
        flips = {i for i, c in enumerate(cli.parse_report_csv(str(GOLDEN))) if _name_family(c.name) == family and c.margin < 0}
        expected = [line.removesuffix(",true") + ",false" if i in flips else line for i, line in enumerate(golden)]
        assert cli.report_csv_text(vf.run_suite(config)).splitlines() == [header, *expected]
        assert bool(flips) == (family != "thm1")

    def test_thm4_skip_on_a_disc(self):
        config = vf.SuiteConfig(entries=[("disc:0,0,1", 0j)], thm4_entries=[("disc:0,0,1", 0j)])
        (check,) = vf.run_suite(config, suite="thm4").checks
        assert (check.name, check.passed) == ("thm4", True)
        assert check.params.startswith("status=skipped;")

    def test_series_gate_does_not_hide_a_refusal(self, monkeypatch):
        # the gate is taken per row before the family runs, so a refusal
        # raised inside a check on a supported domain still reaches the caller
        def refuse(*args):
            raise UnsupportedDomain("refused inside the check")

        monkeypatch.setattr(gr, "disc_max_green", refuse)
        with pytest.raises(UnsupportedDomain, match="inside the check"):
            vf.run_suite(vf.SuiteConfig(entries=[("disc:0,0,1", 0.5 + 0j)]), suite="thm1")

    def test_empty_entries_give_an_empty_plan(self):
        config = vf.SuiteConfig(entries=[])
        assert vf.plan_rows(config) == []
        assert vf.run_suite(config).checks == []
