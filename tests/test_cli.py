"""End-to-end CLI runs against a pre-seeded cache directory.

Every command is invoked in-process through main(); the cache holds the
session checkpoint table and calibration artifact so no test pays the
first-run table build.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetaladder import cli, kernels, svgplot
from zetaladder.ladder import save_calibration
from zetaladder.quadrature import PanelChain, save_table
from zetaladder.special import riemann_siegel_z


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory, smtable, ladder_cfg):
    cache = tmp_path_factory.mktemp("zlcache")
    save_table(smtable, cache / "smtable.csv")
    save_calibration(cache / "calibration.txt", ladder_cfg, smtable,
                     [float(a) for a in np.geomspace(1e4, 1e5, 10)])
    return cache


def run(cache, *argv):
    return cli.main(list(argv) + ["--cache-dir", str(cache)])


def manifest_of(out_path):
    return json.loads(
        out_path.with_suffix(out_path.suffix + ".manifest.json").read_text())


class TestEval:
    def test_rows_and_oracle_band(self, cli_cache, tmp_path):
        out = tmp_path / "eval.csv"
        assert run(cli_cache, "eval", "--from", "100", "--to", "101",
                   "--step", "0.5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,Z,theta,abs_zeta,oracle_diff"
        assert len(lines) == 4
        for line in lines[1:]:
            t, z, theta, abs_zeta, diff = map(float, line.split(","))
            # abs_zeta comes from the oracle, z from the main sum; they
            # differ by at most the reported gap plus the reality defect
            assert abs(abs_zeta - abs(z)) <= diff + 1e-8
            assert diff <= 2.0 * t ** -0.25

    def test_values_round_trip_exactly(self, cli_cache, tmp_path):
        out = tmp_path / "eval.csv"
        run(cli_cache, "eval", "--from", "1000", "--to", "1000",
            "--out", str(out))
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[1]) == riemann_siegel_z(1000.0).z

    def test_empty_range_header_only(self, cli_cache, tmp_path):
        out = tmp_path / "eval.csv"
        assert run(cli_cache, "eval", "--from", "100", "--to", "90",
                   "--out", str(out)) == 0
        assert out.read_text() == "t,Z,theta,abs_zeta,oracle_diff\n"

    @pytest.mark.parametrize("argv", [
        ("--from", "20", "--to", "30", "--step", "0"),
        ("--from", "20", "--to", "30", "--step", "-1"),
        ("--from", "20", "--to", "30", "--step", "inf"),
        ("--from", "20", "--to", "inf"),
        ("--from", "20", "--to", "nan"),
        ("--from", "nan", "--to", "30"),
        ("--from", "20", "--to", "30", "--step", "1e-300"),
        ("--from", "20", "--to", "2e6", "--step", "1"),
    ])
    def test_bad_range_exits_2(self, cli_cache, tmp_path, argv):
        out = tmp_path / "eval.csv"
        assert run(cli_cache, "eval", *argv, "--out", str(out)) == 2
        assert not out.exists()

    def test_manifest_written(self, cli_cache, tmp_path):
        out = tmp_path / "eval.csv"
        run(cli_cache, "eval", "--from", "100", "--to", "100",
            "--out", str(out))
        doc = manifest_of(out)
        assert doc["command"] == "eval"
        assert doc["parameters"]["from"] == 100.0
        assert doc["outputs"] == [str(out)]
        assert doc["config_fingerprint"]
        assert doc["timestamp"]

    def test_rerun_byte_identical(self, cli_cache, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(cli_cache, "eval", "--from", "500", "--to", "502",
            "--out", str(out1))
        run(cli_cache, "eval", "--from", "500", "--to", "502",
            "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestMoment:
    def test_report_schema(self, cli_cache, tmp_path):
        out = tmp_path / "moment.json"
        assert run(cli_cache, "moment", "--T", "20000", "--H", "1.5",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "moment-v1"
        assert doc["U0"] == 20000.0 ** 0.5001
        assert doc["ratio"] > 0.0

    def test_inadmissible_window_reports_bounds(self, cli_cache, tmp_path,
                                                capsys):
        out = tmp_path / "moment.json"
        assert run(cli_cache, "moment", "--T", "10000", "--H", "10000",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "inadmissible" in err
        assert "ln ln T" in err

    def test_cache_hit_is_faster_and_identical(self, cli_cache, tmp_path,
                                               monkeypatch):
        # the hit must do no numeric work: no kernel call, no chain build
        # and no outer integral (a wall-clock ratio would measure the host's
        # load as much as the cache)
        calls = {"kernel": 0, "outer": 0, "chain": 0}

        def counted(key, fn):
            def wrapper(*a, **kw):
                calls[key] += 1
                return fn(*a, **kw)
            return wrapper

        monkeypatch.setattr(kernels, "z_main_sum",
                            counted("kernel", kernels.z_main_sum))
        monkeypatch.setattr(PanelChain, "windowed_sq_integral",
                            counted("outer", PanelChain.windowed_sq_integral))
        monkeypatch.setattr(PanelChain, "build", classmethod(
            counted("chain", PanelChain.build.__func__)))
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run(cli_cache, "moment", "--T", "50000", "--H", "2", "--out",
            str(out1))
        cold = dict(calls)
        run(cli_cache, "moment", "--T", "50000", "--H", "2", "--out",
            str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert min(cold.values()) > 0 and calls == cold

    def test_damaged_memo_is_recomputed(self, cli_cache, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ("moment", "--T", "20000", "--H", "1.25")
        assert run(cli_cache, *args, "--out", str(out1)) == 0
        memo = manifest_of(out1)["outputs"][1]
        text = Path(memo).read_text()
        Path(memo).write_text(text[:40])
        assert run(cli_cache, *args, "--out", str(out2)) == 0
        assert Path(memo).read_text() == text
        assert run(cli_cache, *args, "--no-cache", "--out", str(out1)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_memo_of_the_adaptive_outer_rule_is_recomputed(self, cli_cache,
                                                           tmp_path):
        # bd51b711110f3131 is the key of (T, H) = (2e4, 1.75) under the
        # default config when the memo key named no outer rule, as it did
        # while the outer integral was adaptive; such a memo is never read
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ("moment", "--T", "20000", "--H", "1.75")
        planted = {"schema": "moment-v1", "T": 20000.0, "H": 1.75,
                   "U0": 20000.0 ** 0.5001, "jbar": 1.5, "ratio": 0.5}
        stale = cli_cache / "moment-bd51b711110f3131.json"
        stale.write_text(json.dumps(planted, indent=2) + "\n")
        assert run(cli_cache, *args, "--out", str(out1)) == 0
        assert manifest_of(out1)["outputs"][1] != str(stale)
        assert json.loads(out1.read_text())["jbar"] != planted["jbar"]
        assert run(cli_cache, *args, "--no-cache", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_cache_recomputes_same_bytes(self, cli_cache, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run(cli_cache, "moment", "--T", "20000", "--H", "1.5", "--out",
            str(out1))
        run(cli_cache, "moment", "--T", "20000", "--H", "1.5", "--no-cache",
            "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestLadder:
    def test_rows_schema_and_bands(self, cli_cache, tmp_path):
        out = tmp_path / "ladder.csv"
        assert run(cli_cache, "ladder", "--T", "10000,31623,100000",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,phi1,residual,complement_ratio"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 3
        phis = [r[1] for r in rows]
        assert phis == sorted(phis)
        for T, phi1, residual, ratio in rows:
            assert phi1 < T
            assert 0.6 <= ratio <= 1.4

    def test_uncalibrated_height_exits_3(self, cli_cache, tmp_path, capsys):
        out = tmp_path / "ladder.csv"
        assert run(cli_cache, "ladder", "--T", "50", "--out",
                   str(out)) == 3
        assert "degenerate configuration" in capsys.readouterr().err


class TestAlphas:
    def test_chain_document(self, cli_cache, tmp_path):
        out = tmp_path / "alphas.json"
        assert run(cli_cache, "alphas", "--T", "10000", "--H", "2",
                   "--k", "1", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "alphaseq-v1"
        assert doc["k"] == 1
        assert len(doc["alphas"]) == 2
        assert doc["T"] < doc["eta"] < doc["alphas"][0]
        assert doc["alphas"][-1] == doc["beta"]

    def test_height_below_the_ladder_floor_exits_2(self, cli_cache, tmp_path,
                                                   capsys):
        out = tmp_path / "alphas.json"
        assert run(cli_cache, "alphas", "--T", "950", "--H", "2", "--k", "1",
                   "--out", str(out)) == 2
        assert "iterate 1 of 1" in capsys.readouterr().err
        assert not out.exists()


class TestFactorize:
    def test_single_report(self, cli_cache, tmp_path):
        out = tmp_path / "facrep.json"
        assert run(cli_cache, "factorize", "--T", "10000", "--H", "2",
                   "--k", "1", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "facrep-v1"
        assert doc["ratio"] == doc["lhs"] / doc["rhs"]
        assert doc["meta_residual"] <= 10.0 * doc["T"] ** -0.25

    def test_sweep_rows_in_input_order(self, cli_cache, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(cli_cache, "factorize", "--sweep", "T=10000:15000:2",
                   "--H", "2", "--k", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("T,H,k,eta,beta,Hk,alpha_0,alpha_1,")
        assert len(lines) == 3
        ts = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert ts == sorted(ts)

    def test_needs_target_or_sweep(self, cli_cache, capsys):
        assert run(cli_cache, "factorize", "--H", "2", "--k", "1") == 2
        assert "--T or --sweep" in capsys.readouterr().err

    def test_bad_sweep_spec(self, cli_cache, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(cli_cache, "factorize", "--sweep", "H=1:2:3", "--H", "2",
                   "--k", "1", "--out", str(out)) == 2


class TestSpectrum:
    def test_two_frequencies_at_8pi(self, cli_cache, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(cli_cache, "spectrum", "--x", repr(8.0 * math.pi),
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,omega"
        assert lines[1] == f"1,{math.log(2.0)!r}"
        assert lines[2] == "2,0.0"

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_x_exits_2(self, cli_cache, tmp_path, x):
        out = tmp_path / "spectrum.csv"
        assert run(cli_cache, "spectrum", "--x", x, "--out", str(out)) == 2
        assert not out.exists()


class TestCalibrate:
    def test_artifact_and_idempotence(self, cli_cache, tmp_path):
        out = tmp_path / "calibration.txt"
        assert run(cli_cache, "calibrate", "--anchors",
                   "10000,17783,31623,56234,100000", "--out",
                   str(out)) == 0
        first = out.read_bytes()
        text = first.decode()
        assert "euler_c=" in text and "c0=" in text \
            and "smtable_fingerprint=" in text
        assert run(cli_cache, "calibrate", "--anchors",
                   "10000,17783,31623,56234,100000", "--out",
                   str(out)) == 0
        assert out.read_bytes() == first

    def test_agrees_with_preseeded_fit(self, cli_cache, tmp_path,
                                       ladder_cfg):
        out = tmp_path / "calib2.txt"
        run(cli_cache, "calibrate", "--out", str(out))
        c0_line = [ln for ln in out.read_text().splitlines()
                   if ln.startswith("c0=")][0]
        c0 = float(c0_line.partition("=")[2])
        assert abs(c0 - ladder_cfg.c0) <= 0.05 * abs(ladder_cfg.c0)


class TestPlot:
    def test_svg_from_spectrum_csv(self, cli_cache, tmp_path):
        csv_path = tmp_path / "spectrum.csv"
        run(cli_cache, "spectrum", "--x", "1000", "--out", str(csv_path))
        out = tmp_path / "plot.svg"
        assert run(cli_cache, "plot", "--input", str(csv_path), "--x", "n",
                   "--y", "omega", "--kind", "scatter", "--out",
                   str(out)) == 0
        svg = out.read_text()
        assert svg.startswith("<svg xmlns=")
        assert svg.count("<path") == 1
        # the file is the whole document render() makes of the columns
        rows = [ln.split(",") for ln in csv_path.read_text().split()[1:]]
        spec = svgplot.PlotSpec(
            kind=svgplot.PlotKind.SCATTER, xlabel="n",
            series=(svgplot.Series(
                label="omega", x=np.array([float(r[0]) for r in rows]),
                y=np.array([float(r[1]) for r in rows])),))
        assert svg == svgplot.render(spec)

    def test_multi_series_line(self, cli_cache, tmp_path):
        csv_path = tmp_path / "ladder.csv"
        run(cli_cache, "ladder", "--T", "10000,31623,100000", "--out",
            str(csv_path))
        out = tmp_path / "plot.svg"
        assert run(cli_cache, "plot", "--input", str(csv_path), "--x", "T",
                   "--y", "phi1,complement_ratio", "--out", str(out)) == 0
        assert out.read_text().count("<path") == 2

    def test_nan_column_rejected(self, cli_cache, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,v\n1.0,nan\n2.0,3.0\n")
        out = tmp_path / "plot.svg"
        assert run(cli_cache, "plot", "--input", str(bad), "--x", "t",
                   "--y", "v", "--out", str(out)) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_missing_column_rejected(self, cli_cache, tmp_path, capsys):
        csv_path = tmp_path / "spectrum.csv"
        run(cli_cache, "spectrum", "--x", "1000", "--out", str(csv_path))
        out = tmp_path / "plot.svg"
        assert run(cli_cache, "plot", "--input", str(csv_path), "--x", "n",
                   "--y", "nope", "--out", str(out)) == 2
        assert "nope" in capsys.readouterr().err

    def test_non_numeric_column_rejected(self, cli_cache, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,v\n1.0,apple\n")
        out = tmp_path / "plot.svg"
        assert run(cli_cache, "plot", "--input", str(bad), "--x", "t",
                   "--y", "v", "--out", str(out)) == 2


class TestImportPath:
    def test_no_scipy_or_xml_sax_and_nothing_lazy(self):
        # zl starts a process per command; these two cost most of its start
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # and a Z evaluation imports nothing more (np.unique would load
        # numpy.ma, 15 ms, inside the command's time)
        script = ("import sys, numpy as np, zetaladder.cli\n"
                  "from zetaladder.special import riemann_siegel_z_values\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.split('.')[0] == 'scipy'\n"
                  "             or m.startswith('xml.sax')))\n"
                  "loaded = set(sys.modules)\n"
                  "riemann_siegel_z_values(np.array([100.0, 1e3, 1e4]))\n"
                  "print(sorted(set(sys.modules) - loaded))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


class TestConfigPlumbing:
    def test_file_then_flag_precedence(self, cli_cache, tmp_path):
        cfg = tmp_path / "zl.cfg"
        cfg.write_text("abs_tol = 1e-7\nmax_retries = 4\n")
        out = tmp_path / "s.csv"
        run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
            "--config", str(cfg))
        eff = manifest_of(out)["parameters"]["config"]
        assert eff["abs_tol"] == 1e-7
        assert eff["max_retries"] == 4
        run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
            "--config", str(cfg), "--abs-tol", "1e-6")
        eff = manifest_of(out)["parameters"]["config"]
        assert eff["abs_tol"] == 1e-6

    def test_unknown_config_key_exits_2(self, cli_cache, tmp_path, capsys):
        cfg = tmp_path / "zl.cfg"
        cfg.write_text("frobnicate = 3\n")
        out = tmp_path / "s.csv"
        assert run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
                   "--config", str(cfg)) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_osc_factor_is_no_longer_an_option(self, cli_cache, tmp_path,
                                               capsys):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
                "--osc-factor", "0.5")
        assert exc.value.code == 2
        cfg = tmp_path / "zl.cfg"
        cfg.write_text("osc_factor = 0.5\n")
        assert run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
                   "--config", str(cfg)) == 2
        assert "unknown config key 'osc_factor'" in capsys.readouterr().err


class TestWholeOutputs:
    def test_failed_rename_keeps_the_old_output(self, cli_cache, tmp_path,
                                                monkeypatch, capsys):
        out = tmp_path / "s.csv"
        out.write_text("old bytes\n")

        def refuse(src, dst):
            raise OSError(f"rename of {src} refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert run(cli_cache, "spectrum", "--x", "100", "--out",
                   str(out)) == 2
        assert "refused" in capsys.readouterr().err
        assert out.read_text() == "old bytes\n"
        assert list(tmp_path.glob("*.tmp")) == []
