import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from suita_lab import cli
from suita_lab import green as gr
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab import weights as wt
from suita_lab.errors import ConfigError, InvalidDomain
from suita_lab.geometry import Annulus, Disc


GOLDEN = Path(__file__).parent / "default_report.csv"


def run_cli(args, **kwargs):
    return cli.main(list(args))


@pytest.fixture(scope="module")
def default_report():
    return vf.run_suite()


class TestParsing:
    def test_capacity_dispatch(self, capsys):
        assert run_cli(["capacity", "--domain", "annulus:0.5", "--pole", "0.7,0"]) == 0
        out = capsys.readouterr().out.strip()
        c, logc, trunc = (float(x) for x in out.split(","))
        # both fields carry 12 significant digits, so consistency holds to ~1e-11
        assert math.exp(logc) == pytest.approx(c, rel=1e-10)
        assert c == pytest.approx(3.240795992852949, rel=1e-10)

    def test_green_line(self, capsys):
        assert run_cli(["green", "--domain", "disc:0,0,1", "--pole", "0,0", "--at", "0.5,0"]) == 0
        parts = capsys.readouterr().out.strip().split(",")
        assert float(parts[0]) == pytest.approx(math.log(0.5), abs=1e-12)
        assert float(parts[1]) == pytest.approx(2.0, abs=1e-12)

    def test_kernel_csv(self, capsys):
        assert run_cli(["kernel", "--domain", "disc:0,0,1", "--pole", "0,0", "--order", "1"]) == 0
        j, value, n, tail = capsys.readouterr().out.strip().split(",")
        assert j == "1"
        assert float(value) == pytest.approx(2 / math.pi, rel=1e-10)
        assert int(n) > 0

    def test_negative_order_exits_2(self):
        assert run_cli(["kernel", "--domain", "disc:0,0,1", "--pole", "0,0", "--order", "-1"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_malformed_domain_exits_2(self, capsys):
        assert run_cli(["capacity", "--domain", "disc:1", "--pole", "0,0"]) == 2

    def test_twelve_significant_digits(self, capsys):
        run_cli(["capacity", "--domain", "disc:0,0,3", "--pole", "0,0"])
        out = capsys.readouterr().out.strip()
        assert out.split(",")[0] == "0.333333333333"  # 12 significant digits

    @pytest.mark.parametrize("kind, samples", [("wos", "1"), ("wos", "0"), ("area", "0"), ("area", "-3")])
    def test_too_few_samples_exit_2(self, capsys, kind, samples):
        args = ["oracle", kind, "--domain", "disc:0,0,1", "--pole", "0,0", "--at", "0.5,0", "--level", "-1"]
        assert run_cli(args + ["--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: need at least" in captured.err

    @pytest.mark.parametrize(
        "kind, extra, message",
        [("wos", [], "needs --at"), ("area", [], "needs --level"), ("gridscan", ["--grid", "1"], "at least 2 points")],
        ids=["wos-without-at", "area-without-level", "gridscan-grid-1"],
    )
    def test_oracle_usage_errors_exit_2(self, capsys, kind, extra, message):
        assert run_cli(["oracle", kind, "--domain", "annulus:0.5", "--pole", "0.7,0", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_critical_annulus_row(self, capsys):
        assert run_cli(["critical", "--domain", "annulus:0.5", "--pole", "0.7,0"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        (cp,) = gr.critical_points(Annulus(0.5), 0.7 + 0j)
        assert len(rows) == 1
        x, y, level, residual, order = rows[0].split(",")
        assert order == "2" and cp.order == 2
        expect = (cp.location.real, cp.location.imag, cp.level, cp.gradient_residual)
        assert [x, y, level, residual] == [cli._fmt(v) for v in expect]

    def test_critical_disc_prints_nothing(self, capsys):
        assert run_cli(["critical", "--domain", "disc:0,0,1", "--pole", "0.3,0"]) == 0
        assert capsys.readouterr().out == ""

    def test_weights_at_one_s(self, capsys):
        assert run_cli(["weights", "--s", "-1"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "s,eta0,eta0p,eta0pp,gamma0,gamma0p,identity_residual"
        v = wt.eval_weights(-1.0)
        expect = (v.s, v.eta0, v.eta0p, v.eta0pp, v.gamma0, v.gamma0p, wt.identity_residual(-1.0))
        assert row.split(",") == [cli._fmt(x) for x in expect]

    def test_weights_probe(self, capsys):
        assert run_cli(["weights", "--probe", "-1,-5"]) == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header == "s,war"
        probes = wt.war_probe([-1.0, -5.0])
        assert rows == [f"{cli._fmt(s)},{cli._fmt(p)}" for s, p in zip([-1.0, -5.0], probes)]

    @pytest.mark.parametrize("extra, message", [([], "needs --s or --probe"), (["--s", "0"], "s < 0")], ids=["neither", "s-zero"])
    def test_weights_usage_errors_exit_2(self, capsys, extra, message):
        assert run_cli(["weights", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_oracle_robin(self, capsys):
        assert run_cli(["oracle", "robin", "--domain", "annulus:0.5", "--pole", "0.7,0"]) == 0
        out = capsys.readouterr().out
        value, residual, samples, seed = out.strip().split(",")
        cap = gr.robin_capacity(Annulus(0.5), 0.7 + 0j).capacity
        # the printed value carries 12 significant digits
        assert abs(float(value) - cap) <= float(residual) + 1e-11 * cap
        assert (samples, seed) == ("320", "42")  # 64 angles on each of 5 radii
        # the whole line, byte for byte, on two domains
        assert out == "3.24079599285,1.16309132751e-12,320,42\n"
        assert run_cli(["oracle", "robin", "--domain", "moebius:1,-0.3,-0.3,1;base=disc:0,0,1", "--pole", "0.2,0.1"]) == 0
        assert capsys.readouterr().out == "1.05263157895,8.63010418343e-14,320,42\n"

    def test_oracle_area_row(self, capsys):
        # mc_area draws every level of a call at once; the command's one
        # level prints the row it printed when mc_area took a single level
        args = ["oracle", "area", "--domain", "annulus:0.5", "--pole", "0.7,0", "--level", "-0.5", "--samples", "100000"]
        assert run_cli(args) == 0
        assert capsys.readouterr().out == "0.11872,0.00214659162767,100000,42\n"

    def test_oracle_gridscan_finds_the_saddle(self, capsys):
        assert run_cli(["oracle", "gridscan", "--domain", "annulus:0.5", "--pole", "0.7,0", "--grid", "64"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        x, y = (float(v) for v in rows[0].split(","))
        (cp,) = gr.critical_points(Annulus(0.5), 0.7 + 0j)
        cell = 2.0 / 63  # the bounding box [-1, 1]^2 on a 64-point lattice
        assert abs(complex(x, y) - cp.location) <= 2 * cell

    def test_seed_default_ignores_environment(self, capsys, monkeypatch):
        # --seed is the one way to set the oracle seed; its default is 42
        monkeypatch.setenv("SUITA_LAB_SEED", "1234")
        run_cli(["oracle", "wos", "--domain", "disc:0,0,1", "--pole", "0,0", "--at", "0.5,0", "--samples", "2000"])
        out = capsys.readouterr().out.strip()
        assert out.endswith(",42")


class TestConfig:
    def test_parse_and_overrides(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            "# comment\n"
            "domains = disc:0,0,1 | annulus:0.5\n"
            "poles = 0.5,0 | 0.7,0\n"
            "seeds = 7\n"
            "tolerance.flux = 1e-6\n"
        )
        config = cli.suite_config_from_file(str(cfg))
        assert config.seed == 7
        assert config.tolerances == {"flux": 1e-6}
        # pole 0.5 is outside the annulus, pole 0.7 inside both
        assert ("annulus:0.5", 0.5 + 0j) not in config.entries
        assert ("annulus:0.5", 0.7 + 0j) in config.entries
        assert ("disc:0,0,1", 0.5 + 0j) in config.entries

    @pytest.mark.parametrize(
        "key",
        [
            "tolerance.suite",
            "tolerance.thm4",
            "tolerance.char_pos",
            "tolerance.",
            "tolerance.char_zero",
            "tolerance.blb_monotone",
            # judged on their own numbers: no line of theirs reads a tolerance
            "tolerance.thm1",
            "tolerance.thm2",
            "tolerance.poisson",
            "tolerance.oracle",
            # judged on the stated errors of both sides
            "tolerance.suita",
            "tolerance.blb_lower",
        ],
    )
    def test_unknown_tolerance_family_rejected(self, tmp_path, key):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"domains = disc:0,0,1\npoles = 0.5,0\n{key} = 1e-6\n")
        with pytest.raises(ConfigError, match="tolerance family"):
            cli.suite_config_from_file(str(cfg))

    def test_every_tolerance_family_accepted(self):
        for family in ["all", *vf.DEFAULT_TOLERANCES]:
            assert cli.parse_config(f"tolerance.{family} = 0.5\n")["tolerances"] == {family: 0.5}

    @pytest.mark.parametrize("domains", ["disc:0,0,1 | annulus:0.5", "disc:0,0,1.0 | annulus:0.50"])
    def test_plans_follow_equivalent_literals(self, tmp_path, domains):
        # the profile, thm4 and probe rows are kept for a configured domain
        # however its literal is written
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"domains = {domains}\npoles = 0.7,0\n")
        config = cli.suite_config_from_file(str(cfg))
        assert len(config.entries) == 2
        families = Counter(family for family, *_ in vf.plan_rows(config))
        assert (families["blb"], families["thm4"], families["characterization"]) == (2, 1, 2)

    def test_poles_without_domains_rejected(self, tmp_path, capsys):
        # the poles pair with configured domains only; alone they would
        # leave the default plan running as if they were read
        cfg = tmp_path / "poles.cfg"
        cfg.write_text("poles = 0.5,0\n")
        with pytest.raises(ConfigError, match="poles needs domains"):
            cli.suite_config_from_file(str(cfg))
        assert run_cli(["verify", "--suite", "suita", "--config", str(cfg)]) == 2
        assert "error: poles needs domains" in capsys.readouterr().err

    def test_steps_key_sets_profile_samples(self, tmp_path):
        # steps = 8: each blb entry writes 8 blb_lower lines
        cfg = tmp_path / "steps.cfg"
        cfg.write_text("domains = disc:0,0,1 | annulus:0.5\npoles = 0.7,0\nsteps = 8\n")
        out = tmp_path / "r.csv"
        assert run_cli(["verify", "--suite", "blb", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        per_entry = Counter((domain, pole) for name, domain, pole, *_ in rows if name.startswith("blb_lower"))
        assert per_entry == {("disc:0,0,1", "0,0"): 8, ("annulus:0.5", "0.7,0"): 8}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("domains = disc:0,0,1\nwat = 1\n")
        with pytest.raises(ConfigError):
            cli.suite_config_from_file(str(cfg))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config("this is not a config")

    @pytest.mark.parametrize("line, message", [("grid = 128", "unknown key 'grid'"), ("seeds = 7,8", "one seed")])
    def test_grid_and_seed_lists_rejected(self, tmp_path, line, message):
        # no check reads a level-curve resolution, and the oracles read one seed
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"domains = disc:0,0,1\npoles = 0.5,0\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            cli.suite_config_from_file(str(cfg))

    def test_one_domain_config_stays_on_its_domain(self, tmp_path):
        # every row, flux and oracles included, runs only on the configured
        # domain: 4 suita, 4 thm1, thm2, poisson and thm4 on annulus:0.3
        cfg = tmp_path / "one.cfg"
        cfg.write_text("domains = annulus:0.3\npoles = 0.55,0\n")
        out = tmp_path / "r.csv"
        assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert len(rows) == 11
        assert {domain for _, domain, *_ in rows} == {"annulus:0.3"}
        families = Counter(name.split("[", 1)[0] for name, *_ in rows)
        assert families == {"suita": 4, "thm1": 4, "thm2": 1, "poisson": 1, "thm4": 1}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("poles = 0.2,0\n", "line 3: 'poles' given twice"),
            ("tolerance.flux = 1e-6\ntolerance.flux = 1e-7\n", "line 4: 'tolerance.flux' given twice"),
            ("seeds = 1.5\n", "seeds needs an integer, got '1.5'"),
            ("steps = x\n", "steps needs an integer, got 'x'"),
            ("tolerance.flux = abc\n", "tolerance.flux needs a number, got 'abc'"),
            ("tolerance.flux = inf\n", "line 3: tolerance.flux needs a finite number >= 0, got 'inf'"),
            ("tolerance.flux = nan\n", "line 3: tolerance.flux needs a finite number >= 0, got 'nan'"),
            ("tolerance.flux = -1\n", "line 3: tolerance.flux needs a finite number >= 0, got '-1'"),
            ("tolerance.all = inf\n", "line 3: tolerance.all needs a finite number >= 0, got 'inf'"),
            # flux is the one family: both keys would name one value
            ("tolerance.all = 0\ntolerance.flux = 1\n", "line 4: tolerance.all reaches no line: every family (flux) has its own key"),
        ],
        ids=[
            "poles-twice",
            "tolerance-twice",
            "seeds-float",
            "steps-word",
            "tolerance-word",
            "tolerance-inf",
            "tolerance-nan",
            "tolerance-negative",
            "tolerance-all-inf",
            "tolerance-all-and-flux",
        ],
    )
    def test_unreadable_values_refused(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("domains = disc:0,0,1\npoles = 0.5,0\n" + text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.suite_config_from_file(str(cfg))
        assert run_cli(["verify", "--suite", "suita", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("domains = annulus:abc\npoles = 0.5,0\n", InvalidDomain, "not a number in 'abc' of 'annulus:abc'"),
            ("domains = disc:0,0,1\npoles = x,0\n", ConfigError, "point needs x,y: 'x,0'"),
        ],
        ids=["domain", "pole"],
    )
    def test_unreadable_entries_refused(self, tmp_path, text, error, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(error, match=re.escape(message)):
            cli.suite_config_from_file(str(cfg))

    def test_no_pole_inside_any_domain_refused(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("domains = annulus:0.5 | disc:0,0,0.1\npoles = 2,0 | 0.3,0\n")
        with pytest.raises(ConfigError, match=re.escape("no (domain, pole) pair from the config has the pole inside")):
            cli.suite_config_from_file(str(cfg))


@pytest.fixture(scope="module")
def report():
    config = vf.SuiteConfig(
        entries=[("disc:0,0,1", 0.5 + 0j)],
        blb_entries=[],
        thm4_entries=[],
        char_entries=[],
    )
    return vf.run_suite(config, suite="suita")


class TestReports:

    def test_csv_roundtrip(self, report, tmp_path):
        path = tmp_path / "report.csv"
        cli.emit_report(report, str(path), "csv")
        text = path.read_text()
        assert text.startswith("check_name,domain,pole,params,lhs,rhs,margin,pass\n")
        assert text.endswith("\n")
        parsed = cli.parse_report_csv(str(path))
        assert len(parsed) == len(report.checks)
        for a, b in zip(parsed, report.checks):
            assert a.name == b.name
            assert a.domain == b.domain
            assert a.passed == b.passed
            assert a.lhs == pytest.approx(b.lhs, rel=1e-11, abs=1e-300)
            assert a.margin == pytest.approx(b.margin, rel=1e-11, abs=1e-300)

    def test_json_mirrors_and_stable(self, report, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.emit_report(report, str(p1), "json")
        cli.emit_report(report, str(p2), "json")
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert list(payload) == ["metadata", "checks"]
        assert payload["checks"][0]["check_name"] == report.checks[0].name
        assert "wall_time_s" not in payload["metadata"]
        assert payload["metadata"]["seed"] == 42

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code = run_cli(["verify", "--suite", "thm2", "--out", str(tmp_path / "nope" / "r.csv")])
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line.rsplit(",", 1)[0], "line 3: expected 8 fields, got 7"),
            (lambda line: line.replace(",true", ",x,true"), "line 3: expected 8 fields, got 9"),
            (lambda line: line.rsplit(",", 2)[0] + ",x,true", "line 3: could not convert string to float: 'x'"),
        ],
    )
    def test_malformed_row_refused(self, report, tmp_path, edit, message):
        path = tmp_path / "bad.csv"
        cli.emit_report(report, str(path), "csv")
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=message):
            cli.parse_report_csv(str(path))

    def test_foreign_header_refused(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("name,value\nx,1\n")
        with pytest.raises(ConfigError, match="other.csv is not a verify report"):
            cli.parse_report_csv(str(path))

    @pytest.mark.parametrize("value", ["yes", "True", "1", ""])
    def test_pass_value_is_true_or_false(self, report, tmp_path, value):
        # any other pass value is refused, not read as a failed check
        path = tmp_path / "bad.csv"
        cli.emit_report(report, str(path), "csv")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"line 3: pass must be true or false, got '{value}'"):
            cli.parse_report_csv(str(path))


class TestVerifyCommand:
    def test_exit_zero_when_green(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("domains = disc:0,0,1\npoles = 0.5,0\n")
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--suite", "suita", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") >= 2

    def test_exit_one_on_failure(self, tmp_path, capsys):
        # at zero tolerance the flux line of annulus:0.5 fails (error 1.8e-15)
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("domains = annulus:0.5\npoles = 0.7,0\ntolerance.all = 0\n")
        code = run_cli(["verify", "--config", str(cfg)])
        assert code == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
        assert fails and all(re.fullmatch(r"FAIL \S+ domain=\S+ pole=\S+ \S+ lhs=\S+ rhs=\S+", f) for f in fails)

    @pytest.mark.parametrize("suite", ["flux", "oracle_robin"])
    def test_row_family_suite_writes_its_golden_rows(self, tmp_path, capsys, suite):
        out = tmp_path / "f.csv"
        assert run_cli(["verify", "--suite", suite, "--out", str(out)]) == 0
        header, *golden = GOLDEN.read_text().splitlines()
        rows = [line for line in golden if line.startswith(f"{suite},")]
        assert len(rows) == 3
        assert out.read_text().splitlines() == [header, *rows]

    def test_grid_option_refused(self, capsys):
        assert run_cli(["verify", "--suite", "thm2", "--grid", "128"]) == 2
        assert "unrecognized arguments: --grid 128" in capsys.readouterr().err

    def test_out_key_rejected(self, tmp_path, capsys):
        # the report path is the --out option; a config key for it would be ignored
        cfg = tmp_path / "out.cfg"
        cfg.write_text("domains = disc:0,0,1\npoles = 0.5,0\nout = r.csv\n")
        assert run_cli(["verify", "--suite", "suita", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("domains = disc:0,0,1 | annulus:0.5\npoles = 0.7,0\nseeds = 5\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert run_cli(["verify", "--suite", "suita", "--config", str(cfg), "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


    def test_default_plan_matches_golden_report(self, default_report):
        # tests/default_report.csv holds the default plan's report.csv; a
        # change that moves a line regenerates it and names the line
        assert cli.report_csv_text(default_report).encode() == GOLDEN.read_bytes()

    def test_verify_command_writes_golden_report(self, tmp_path, capsys):
        # the cli.main path that users and the benchmark take
        out = tmp_path / "cli.csv"
        assert run_cli(["verify", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_default_plan_json_rows_match_golden_report(self, default_report):
        header, *rows = csv.reader(io.StringIO(GOLDEN.read_text()))
        checks = json.loads(cli.report_json_text(default_report))["checks"]
        assert len(checks) == len(rows)
        for entry, row in zip(checks, rows):
            assert list(entry) == header
            assert [entry[k] for k in header[:4]] == row[:4]
            assert [entry[k] for k in header[4:7]] == [float(x) for x in row[4:7]]
            assert entry["pass"] is (row[7] == "true")


class TestSvg:
    def test_disc_contours_are_three_circles(self, tmp_path):
        path = tmp_path / "disc.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j), [-2.0, -1.0, -0.5], str(path), 256)
        text = path.read_text()
        assert text.count("<circle") == 1  # the outline
        assert text.count("<polyline") == 3  # one closed level curve per t
        assert text.startswith("<svg")

    def test_empty_levels_outline_only(self, tmp_path):
        path = tmp_path / "outline.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j), [], str(path), 64)
        text = path.read_text()
        assert "<polyline" not in text
        assert "<circle" in text

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j), [-1.0], str(a), 128)
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j), [-1.0], str(b), 128)
        assert a.read_bytes() == b.read_bytes()

    def test_saddle_level_shows_two_lobes(self, tmp_path, annulus_half):
        from suita_lab import green as gr

        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        path = tmp_path / "saddle.svg"
        cli.emit_contours(sl.LevelField(annulus_half, 0.7 + 0j), [t0 + 0.4e-6], str(path), 512)
        # two collar curves just above the saddle level plus two outline circles
        text = path.read_text()
        assert text.count("<circle") == 2
        assert text.count("<polyline") == 2

    def test_moebius_annulus_outline_is_two_circles(self, tmp_path, moebius_annulus):
        # the outline is the two image circles themselves, with no polyline
        # jumping from one boundary component to the other
        path = tmp_path / "moebius.svg"
        cli.emit_contours(sl.LevelField(moebius_annulus, 0.75 + 0j), [-1.0], str(path), 128)
        text = path.read_text()
        assert text.count("<circle") == 2
        assert 'stroke="#000000" stroke-width="1" points=' not in text
        assert text.count("<polyline") >= 1


class TestSublevelCommand:
    ARGS = ["sublevel", "--domain", "annulus:0.5", "--pole", "0.7,0", "--tmin", "-2", "--tmax", "-0.2"]

    def test_profile_csv_and_svg(self, tmp_path, capsys):
        svgs = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for svg in svgs:
            assert run_cli(self.ARGS + ["--steps", "8", "--grid", "256", "--svg", str(svg)]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0] == "t,lambda,log_lambda,gamma_prime,second_diff,e2t_lambda,err_est"
            assert len(lines) == 9
        text = svgs[0].read_text()
        colours = set(re.findall(r'<polyline fill="none" stroke="(#[0-9a-f]{6})"', text)) - {"#000000"}
        assert colours == set(cli._PALETTE[:8])  # one colour per level
        assert svgs[0].read_bytes() == svgs[1].read_bytes()


class TestNonconvexityScript:
    @staticmethod
    def _main():
        import runpy

        return runpy.run_path(os.path.join(os.path.dirname(__file__), "..", "scripts", "annulus_nonconvexity.py"))["main"]

    def test_thin_ring_runs(self, tmp_path, monkeypatch, capsys):
        # the script reads thm4_scan, and the saddle, the witness, the profile
        # and the contours of one Pole: two level fields, one saddle search each
        fields, searches = [], []
        search = gr.critical_points
        monkeypatch.setattr(gr, "critical_points", lambda *args: searches.append(args) or search(*args))

        class Counted(sl.LevelField):
            def __init__(self, *args):
                fields.append(args)
                super().__init__(*args)

        monkeypatch.setattr(sl, "LevelField", Counted)
        svg = tmp_path / "saddle.svg"
        monkeypatch.setattr(sys, "argv", ["annulus_nonconvexity.py", "0.8", "0.9", str(svg)])
        assert self._main()() == 0
        out = capsys.readouterr().out
        assert "verdict: NonConvexDetected" in out and "witness: pass" in out
        assert svg.read_text().count("<polyline") >= 3  # one curve set per level, three levels
        assert len(fields) == len(searches) == 2

    def test_failed_witness_exits_1(self, tmp_path, monkeypatch, capsys):
        def failed(pole):
            return vf._line("thm4", pole.domain, pole.w, "", 0.0, 1.0, False)

        monkeypatch.setattr(vf, "thm4_witness", failed)
        monkeypatch.setattr(sys, "argv", ["annulus_nonconvexity.py", "0.5", "0.7", str(tmp_path / "x.svg")])
        assert self._main()() == 1
        assert "witness: FAIL" in capsys.readouterr().out


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "suita_lab.cli", "capacity", "--domain", "disc:0,0,2", "--pole", "0,0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("0.5,")
