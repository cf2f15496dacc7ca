"""End-to-end CLI runs against a pre-seeded cache directory.

Every command is invoked in-process through main(); the cache holds the
session checkpoint table and calibration artifact so no test pays the
first-run table build.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetaladder import cli, kernels, quadrature, svgplot
from zetaladder import ladder as ld
from zetaladder.ladder import save_calibration
from zetaladder.quadrature import PanelChain, save_table
from zetaladder.special import TWO_PI, em_zeta_half, riemann_siegel_z

# sha256 of the t, Z and theta columns of `zl eval` rows (each row's first
# three cells, comma-joined, one line each), from the per-row evaluation
# that the array path replaced
EVAL_TZT_SHA = {
    ("100", "110", "0.5"):
        "2ea960c870605e18655a3da1a4e16309f73ba61120545e416e83c37567f15248",
    ("100000", "100010", "0.5"):
        "b499a6af04e72a101ce95136e2b32a0f211958ed5cffc8f55a9cc96a49a330cf",
}
# |zeta| of the first row of each, from the oracle's exact-sum form
EVAL_ABS_ZETA = {"100": 2.692697056664419, "100000": 5.879592468681768}


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

    @pytest.mark.parametrize("argv", sorted(EVAL_TZT_SHA))
    def test_columns_keep_their_bytes(self, cli_cache, tmp_path, argv):
        out = tmp_path / "eval.csv"
        assert run(cli_cache, "eval", "--from", argv[0], "--to", argv[1],
                   "--step", argv[2], "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cols = "".join(",".join(r[:3]) + "\n" for r in rows)
        assert hashlib.sha256(cols.encode()).hexdigest() == EVAL_TZT_SHA[argv]
        # only the oracle columns may move, within the oracle's tolerance
        ref = EVAL_ABS_ZETA[argv[0]]
        assert abs(float(rows[0][3]) - ref) <= 4e-15 * max(1.0, ref)
        for r in rows:
            assert float(r[3]) == abs(em_zeta_half(float(r[0])))

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


def _raise_digit(text: str, at: int) -> str:
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


def _table_digit(text: str) -> str:
    # the third decimal of I(256)
    return _raise_digit(text, text.index(".", text.index("\n256.0,") + 7)
                        + 3)


def _calibration_digit(text: str) -> str:
    # the second decimal of c0
    return _raise_digit(text, text.index(".", text.index("\nc0=")) + 2)


def _previous_table(text: str) -> str:
    body = text.split("\n", 1)[1]
    return ("smtable-v2,e0628b52e7bb2520-rs1,stride=64.0,tolerance=1e-08,"
            f"rows={body.count(chr(10))}\n" + body)


def _previous_calibration(text: str) -> str:
    return text.split("\n", 1)[1].replace(
        "calibrated_at", "smtable_fingerprint=e0628b52e7bb2520-rs1\n"
        "calibrated_at")


class TestCachedArtifacts:
    """A cached file that read_artifact refuses is rebuilt with one warning,
    and the command's output is the one a clean cache gives."""

    @pytest.fixture(scope="class")
    def clean_ladder(self, cli_cache, tmp_path_factory):
        out = tmp_path_factory.mktemp("clean") / "ladder.csv"
        assert run(cli_cache, "ladder", "--T", "4000", "--out",
                   str(out)) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("name, spoil", [
        ("smtable.csv", _table_digit),
        ("smtable.csv", lambda text: text[:-3]),
        ("smtable.csv", lambda text: text.replace(quadrature.KEY,
                                                  "0123456789abcdef")),
        ("smtable.csv", _previous_table),
        ("calibration.txt", _calibration_digit),
        ("calibration.txt", lambda text: text.replace(quadrature.KEY,
                                                      "0123456789abcdef")),
        ("calibration.txt", _previous_calibration),
    ], ids=["table-digit", "table-cut", "table-key", "table-v2",
            "calibration-digit", "calibration-key", "calibration-v1"])
    def test_refused_file_is_rebuilt(self, cli_cache, clean_ladder, tmp_path,
                                     caplog, name, spoil):
        cache = tmp_path / "cache"
        cache.mkdir()
        for f in ("smtable.csv", "calibration.txt"):
            (cache / f).write_bytes((cli_cache / f).read_bytes())
        text = (cache / name).read_text()
        assert spoil(text) != text
        (cache / name).write_text(spoil(text))
        out = tmp_path / "ladder.csv"
        assert run(cache, "ladder", "--T", "4000", "--out", str(out)) == 0
        warned = [r.getMessage() for r in caplog.records
                  if r.levelname == "WARNING"]
        assert len(warned) == 1 and name in warned[0]
        assert out.read_bytes() == clean_ladder
        clean = (cli_cache / name).read_text()
        rebuilt = (cache / name).read_text()
        if name == "calibration.txt":
            assert rebuilt == clean
        else:
            # rebuilt only up to T: the first rows of the clean table
            rows = rebuilt.splitlines()
            assert rows[0].startswith("smtable-v3,") and len(rows) > 63
            assert rows[1:] == clean.splitlines()[1:len(rows)]

    @pytest.mark.parametrize("spoil", [
        lambda text: re.sub(r'("jbar": )([0-9.e+-]+)',
                            lambda m: m[1] + repr(float(m[2]) * 1.001), text),
        lambda text: text.split("\n", 1)[1],     # the memo before checksums
    ], ids=["jbar-scaled", "previous-format"])
    def test_refused_memo_is_recomputed(self, cli_cache, tmp_path, caplog,
                                        spoil):
        args = ("moment", "--T", "20000", "--H", "1.3")
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run(cli_cache, *args, "--out", str(out1)) == 0
        memo = Path(manifest_of(out1)["outputs"][1])
        text = memo.read_text()
        assert text.startswith(f"moment-v1,T=20000.0,H=1.3,{quadrature.KEY},"
                               "sha256=")
        assert text.split("\n", 1)[1] == out1.read_text()
        assert spoil(text) != text
        memo.write_text(spoil(text))
        caplog.clear()
        assert run(cli_cache, *args, "--out", str(out2)) == 0
        warned = [r.getMessage() for r in caplog.records
                  if r.levelname == "WARNING"]
        assert len(warned) == 1 and memo.name in warned[0]
        assert memo.read_text() == text
        assert run(cli_cache, *args, "--no-cache", "--out", str(out1)) == 0
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

    def test_pool_has_no_more_threads_than_jobs(self, cli_cache, tmp_path,
                                                monkeypatch):
        sizes = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        out = tmp_path / "sweep.csv"
        assert run(cli_cache, "factorize", "--sweep", "T=10000:15000:2",
                   "--H", "2", "--k", "1", "--workers", "64", "--out",
                   str(out)) == 0
        assert sizes == [2]
        assert manifest_of(out)["parameters"]["workers"] == 2
        # one worker runs on the same pool path, with one thread
        assert run(cli_cache, "factorize", "--sweep", "T=10000:15000:2",
                   "--H", "2", "--k", "1", "--workers", "1", "--out",
                   str(out)) == 0
        assert sizes == [2, 1]

    def test_workers_above_the_ceiling_exit_2_before_any_work(
            self, cli_cache, tmp_path, monkeypatch, capsys):
        started = []
        monkeypatch.setattr(cli, "ThreadPoolExecutor",
                            lambda *a, **k: started.append(k))
        monkeypatch.setattr(cli, "_calibrated_context",
                            lambda *a: started.append(a))
        out = tmp_path / "sweep.csv"
        assert run(cli_cache, "factorize", "--sweep", "T=10000:15000:2",
                   "--H", "2", "--k", "1", "--workers", "65", "--out",
                   str(out)) == 2
        assert "ceiling of 64" in capsys.readouterr().err
        assert started == [] and not out.exists()

    def test_needs_target_or_sweep(self, cli_cache, capsys):
        assert run(cli_cache, "factorize", "--H", "2", "--k", "1") == 2
        assert "--T or --sweep" in capsys.readouterr().err

    def test_bad_sweep_spec(self, cli_cache, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(cli_cache, "factorize", "--sweep", "H=1:2:3", "--H", "2",
                   "--k", "1", "--out", str(out)) == 2

    def test_sieve_built_only_where_pi_is_read(self, cli_cache, tmp_path,
                                               monkeypatch):
        limits = []
        build = ld.PrimePiTable.build.__func__

        def counted(cls, limit):
            limits.append(limit)
            return build(cls, limit)

        monkeypatch.setattr(ld.PrimePiTable, "build", classmethod(counted))
        assert run(cli_cache, "factorize", "--T", "10000", "--H", "2",
                   "--k", "1", "--out", str(tmp_path / "f.json")) == 0
        assert limits == []
        assert run(cli_cache, "ladder", "--T", "12000", "--out",
                   str(tmp_path / "ladder.csv")) == 0
        assert limits and max(limits) <= 12000
        limits.clear()
        assert run(cli_cache, "calibrate", "--anchors", "10000,31623,100000",
                   "--out", str(tmp_path / "calibration.txt")) == 0
        assert limits == [100000]


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

    def test_huge_x_exits_2(self, cli_cache, tmp_path):
        # about 4e14 rows: refused before any is built
        out = tmp_path / "spectrum.csv"
        assert run(cli_cache, "spectrum", "--x", "1e30", "--out",
                   str(out)) == 2
        assert not out.exists()

    def test_row_cap_arithmetic(self, cli_cache, tmp_path, monkeypatch):
        # floor(tau(x)) rows; the list is stubbed, so nothing large is built
        asked = []
        monkeypatch.setattr(cli.fz, "local_spectrum",
                            lambda x: asked.append(x) or [])
        out = tmp_path / "spectrum.csv"
        below = TWO_PI * (cli._MAX_ROWS - 0.5) ** 2
        assert run(cli_cache, "spectrum", "--x", repr(below),
                   "--out", str(out)) == 0
        assert asked == [below]
        at = TWO_PI * cli._MAX_ROWS ** 2 * (1.0 + 1e-12)
        assert run(cli_cache, "spectrum", "--x", repr(at),
                   "--out", str(tmp_path / "at.csv")) == 2
        assert asked == [below]


class TestCalibrate:
    def test_artifact_and_idempotence(self, cli_cache, tmp_path):
        out = tmp_path / "calibration.txt"
        assert run(cli_cache, "calibrate", "--anchors",
                   "10000,17783,31623,56234,100000", "--out",
                   str(out)) == 0
        first = out.read_bytes()
        text = first.decode()
        assert text.startswith(f"calibration-v2,smtable={quadrature.KEY},")
        assert "euler_c=" in text and "c0=" in text
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
    @pytest.mark.parametrize("key", [
        "osc_factor", "zero_threshold", "max_retries", "scan_step",
        "sieve_limit", "anchor_lo", "anchor_hi", "anchor_count",
        "correction_order", "u0_exponent", "abs_tol", "rel_tol",
        "max_depth", "config"])
    def test_deleted_key_is_not_an_option(self, cli_cache, tmp_path, key):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(cli_cache, "spectrum", "--x", "100", "--out", str(out),
                "--" + key.replace("_", "-"), "1")
        assert exc.value.code == 2

    def test_workers_is_a_flag_of_factorize_alone(self, cli_cache, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(cli_cache, "spectrum", "--x", "100", "--out",
                str(tmp_path / "s.csv"), "--workers", "2")
        assert exc.value.code == 2

    def test_manifests_name_the_fixed_fingerprint(self, cli_cache,
                                                  tmp_path):
        spectrum, sweep = tmp_path / "s.csv", tmp_path / "sweep.csv"
        assert run(cli_cache, "spectrum", "--x", "100", "--out",
                   str(spectrum)) == 0
        assert run(cli_cache, "factorize", "--sweep", "T=10000:10000:1",
                   "--H", "2", "--k", "1", "--workers", "3", "--out",
                   str(sweep)) == 0
        docs = [manifest_of(spectrum), manifest_of(sweep)]
        # the pool size used: a one-job sweep runs on one thread
        assert docs[1]["parameters"]["workers"] == 1
        for doc in docs:
            assert doc["config_fingerprint"] == quadrature.KEY
            assert "config" not in doc and "config" not in doc["parameters"]

    @pytest.mark.parametrize("argv, bad", [
        (("factorize", "--sweep", "T=1e4:2e4:x", "--H", "2", "--k", "1"),
         "'x'"),
        (("ladder", "--T", "1e4,abc"), "'abc'"),
        (("calibrate", "--anchors", "1e4,x"), "'x'"),
        (("calibrate", "--anchors", "1e4,3e4,inf"), "inf is not"),
        # refused before np.geomspace would allocate 8 TB
        (("factorize", "--sweep", "T=1e4:1e5:1000000000000", "--H", "2",
          "--k", "1"), "'T=1e4:1e5:1000000000000'"),
    ], ids=["sweep", "ladder", "anchors", "anchors-inf", "sweep-count"])
    def test_malformed_number_exits_2(self, tmp_path, capsys, argv, bad):
        # a fresh cache: the number is refused before any calibration
        cache = tmp_path / "fresh"
        assert run(cache, *argv, "--out", str(tmp_path / "out")) == 2
        assert bad in capsys.readouterr().err
        assert not (cache / "smtable.csv").exists()

    def test_readme_lists_every_config_key(self):
        # the README states the fixed tolerances in one sentence
        readme = Path(__file__).resolve().parents[1] / "README.md"
        got = re.search(r"abs_tol = ([^,]+),\s+rel_tol = (\S+)\s+and\s+"
                        r"max_depth = (\d+)", readme.read_text())
        assert got is not None
        assert (float(got[1]), float(got[2]), int(got[3])) \
            == (quadrature.ABS_TOL, quadrature.REL_TOL, quadrature.MAX_DEPTH)


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
