import json
import math
import os
import re
import subprocess
import sys

import pytest

from suita_lab import cli
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab.errors import ConfigError
from suita_lab.geometry import Disc


def run_cli(args, **kwargs):
    return cli.main(list(args))


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

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SUITA_LAB_SEED", "1234")
        run_cli(["oracle", "wos", "--domain", "disc:0,0,1", "--pole", "0,0", "--at", "0.5,0", "--samples", "2000"])
        out = capsys.readouterr().out.strip()
        assert out.endswith(",1234")


class TestConfig:
    def test_parse_and_overrides(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            "# comment\n"
            "domains = disc:0,0,1 | annulus:0.5\n"
            "poles = 0.5,0 | 0.7,0\n"
            "seeds = 7,8\n"
            "grid = 128\n"
            "tolerance.suita = 1e-6\n"
        )
        config = cli.suite_config_from_file(str(cfg))
        assert config.grid == 128
        assert config.seeds == [7, 8]
        assert config.tolerances == {"suita": 1e-6}
        # pole 0.5 is outside the annulus, pole 0.7 inside both
        assert ("annulus:0.5", 0.5 + 0j) not in config.entries
        assert ("annulus:0.5", 0.7 + 0j) in config.entries
        assert ("disc:0,0,1", 0.5 + 0j) in config.entries

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("domains = disc:0,0,1\nwat = 1\n")
        with pytest.raises(ConfigError):
            cli.suite_config_from_file(str(cfg))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config("this is not a config")


@pytest.fixture(scope="module")
def report():
    config = vf.SuiteConfig(
        entries=[("disc:0,0,1", 0.5 + 0j)],
        blb_entries=[],
        thm4_entries=[],
        char_entries=[],
        wos_walks=5_000,
        mc_samples=10_000,
        grid=128,
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

    def test_unwritable_path_exits_2(self, tmp_path):
        code = run_cli(
            ["verify", "--suite", "thm2", "--out", str(tmp_path / "nope" / "r.csv"), "--grid", "128"]
        )
        assert code == 2


class TestVerifyCommand:
    def test_exit_zero_when_green(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("domains = disc:0,0,1\npoles = 0.5,0\n")
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--suite", "suita", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") >= 2

    def test_exit_one_on_failure(self, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("domains = disc:0,0,1\npoles = 0.5,0\ntolerance.all = 0\n")
        code = run_cli(["verify", "--config", str(cfg), "--grid", "128"])
        assert code == 1

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


class TestSvg:
    def test_disc_contours_are_three_circles(self, tmp_path):
        path = tmp_path / "disc.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j, 256), [-2.0, -1.0, -0.5], str(path))
        text = path.read_text()
        assert text.count("<circle") == 1  # the outline
        assert text.count("<polyline") == 3  # one closed level curve per t
        assert text.startswith("<svg")

    def test_empty_levels_outline_only(self, tmp_path):
        path = tmp_path / "outline.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j, 64), [], str(path))
        text = path.read_text()
        assert "<polyline" not in text
        assert "<circle" in text

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j, 128), [-1.0], str(a))
        cli.emit_contours(sl.LevelField(Disc(0j, 1.0), 0j, 128), [-1.0], str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_saddle_level_shows_two_lobes(self, tmp_path, annulus_half):
        from suita_lab import green as gr

        t0 = gr.critical_points(annulus_half, 0.7 + 0j)[0].level
        path = tmp_path / "saddle.svg"
        cli.emit_contours(sl.LevelField(annulus_half, 0.7 + 0j, 512), [t0 + 0.4e-6], str(path))
        # two collar curves just above the saddle level plus two outline circles
        text = path.read_text()
        assert text.count("<circle") == 2
        assert text.count("<polyline") == 2

    def test_moebius_annulus_outline_is_two_circles(self, tmp_path, moebius_annulus):
        # the outline is the two image circles themselves, with no polyline
        # jumping from one boundary component to the other
        path = tmp_path / "moebius.svg"
        cli.emit_contours(sl.LevelField(moebius_annulus, 0.75 + 0j, 128), [-1.0], str(path))
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
