"""The three benchmark workloads, their inputs and their output checks.

Every workload drives the `zl` command line through fresh processes with
their own cache directories.  A seed scales every height by the same factor
within 1e-4 of 1; seed 0 runs the nominal heights, whose outputs are also
compared with values frozen from the seed commit.  The moves are small on
purpose: a sweep job's cost follows where each inverse-ladder root falls
between 64-unit checkpoints, and moves of 0.1-1% redraw those positions,
which swung one two-job sweep between 3.8 and 7.8 s.  Moves within 1e-4
left eta and the alphas of the T = 1e4 job where they were, and still
change every output.

table-cold and factorize-warm are a pair: the first times the command that
builds the checkpoint table, the second runs that command as set-up and
times a sweep that only reads the table.  The heights are smaller than a
production run so that 70 runs of the three workloads fit in one hour on
two cores; the moment workload stays below t = 2.6e5, where the cost of
`zl moment` jumps by 3x and starts to vary by +-10% between nearby heights.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# the CLI's default abs_tol, which every workload runs with; the frozen
# comparisons below are stated as multiples of it
ABS_TOL = 1e-8

# c0 that calibrate_c0 fits on the 1.1e5 table with the ten default anchors
C0 = 1428.1429607724378
ANCHORS = [1e4 * 10.0 ** (i / 9) for i in range(10)]

TABLE_T = 12000.0
TABLE_STRIDE = 64.0                  # SecondMomentTable.STRIDE
SWEEP = (10000.0, 10400.0, 2)       # T=a:b:n, log spaced
SWEEP_H, SWEEP_K, SWEEP_WORKERS = 2.0, 2, 2
MOMENT_TS = tuple(1.8e5 * (2.3e5 / 1.8e5) ** (j / 5) for j in range(6))
MOMENT_H = 2.0

# seed-0 outputs of the seed commit, compared within the stated tolerances
FROZEN_PHI1 = 11290.748471770414                # phi1(12000)
FROZEN_SWEEP_RATIOS = (1.0253424519583512, 1.0254141768962388)
FROZEN_MOMENT_RATIOS = (0.9066223689197284, 0.9964255858162481,
                        0.9534057527588846, 0.9552187330710457,
                        0.9582365211365919, 0.9284739119863626)
# A change that keeps the tolerances may move I(T) by up to abs_tol per
# 64-unit segment (2e-6 at 1.2e4) and phi1 by that over ln phi1; the frozen
# comparisons allow 1e4 abs_tol, absolute for phi1 and relative for the
# ratios, which also move with the mean-value roots
PHI1_ABS_TOL = 1e4 * ABS_TOL
RATIO_REL_TOL = 1e4 * ABS_TOL


def scale(seed: int) -> float:
    """Height factor for a seed: exactly 1 for seed 0, else within 1e-4."""
    if seed == 0:
        return 1.0
    return 1.0 + random.Random(seed).uniform(-1e-4, 1e-4)


def _zl(*argv, timed: bool) -> dict:
    return {"zl": [str(a) for a in argv], "timed": timed}


def _calibration(cache: Path) -> dict:
    return {"calibration": str(cache / "calibration.txt"), "c0": C0,
            "anchors": ANCHORS}


def _close(got: float, want: float, abs_tol: float) -> bool:
    return abs(got - want) <= abs_tol


def _rows(path: Path) -> list:
    return list(csv.DictReader(path.read_text().splitlines()))


def _ladder_steps(cache: Path, out: Path, T: float, timed: bool) -> list:
    """`zl ladder --T T`, which builds and saves the table, then a probe of
    the saved table."""
    return [_zl("ladder", "--T", repr(T), "--cache-dir", cache, "--out", out,
                timed=timed),
            {"table": str(cache / "smtable.csv")}]


def _check_table_build(s, op, cache: Path, out: Path, probe: dict,
                       T: float) -> None:
    rows = _rows(out)
    s.check(op, len(rows) == 1, f"ladder wrote {len(rows)} rows")
    phi1 = float(rows[0]["phi1"])
    s.check(op, 0.9 * T < phi1 < T, f"phi1({T}) = {phi1}")
    if s.seed == 0:
        s.check(op, _close(phi1, FROZEN_PHI1, PHI1_ABS_TOL),
                f"phi1({T}) = {phi1!r}, frozen {FROZEN_PHI1!r}")
    s.check(op, probe.get("rc") == 0,
            f"table unreadable: {probe.get('error')}")
    s.check(op, probe["increasing"], "checkpoints not strictly increasing")
    s.check(op, probe["top"] > T - TABLE_STRIDE,
            f"table top {probe['top']} below T = {T}")
    band = 15.0 * probe["top"] ** -0.25
    s.check(op, abs(probe["mean_E"] - math.pi) <= band,
            f"mean E(T) over the checkpoints is {probe['mean_E']}, not "
            f"within {band:.3g} of pi")
    s.same_bytes(op, "table", cache / "smtable.csv")


def table_cold(s) -> None:
    """Set-up writes only the calibration artifact; the timed `zl ladder`
    builds the checkpoint table from zero and saves it."""
    T = TABLE_T * scale(s.seed)

    def rep(traced: bool) -> None:
        cache = s.new_dir("cache")
        s.setup("calibration", [_calibration(cache)])
        out = s.new_path("ladder.csv")
        (op, _), (_, probe) = s.timed(
            "ladder", _ladder_steps(cache, out, T, True), traced)
        s.verify(op, _check_table_build, s, op, cache, out, probe, T)
        s.verify(op, s.same_bytes, op, "ladder.csv", out)

    s.repeat(rep)


def _check_moment(s, op, out: Path, T: float, j: int) -> None:
    ratio = json.loads(out.read_text())["ratio"]
    s.check(op, 0.7 <= ratio <= 1.3,
            f"moment ratio {ratio} at T = {T} outside [0.7, 1.3]")
    if s.seed == 0:
        want = FROZEN_MOMENT_RATIOS[j]
        s.check(op, _close(ratio, want, RATIO_REL_TOL * want),
                f"moment ratio {ratio!r} at T = {T}, frozen {want!r}")
    s.same_bytes(op, f"moment-{j}", out)


def moment(s) -> None:
    """`zl moment --no-cache` at six heights between 1.8e5 and 2.3e5."""
    f = scale(s.seed)
    heights = [t * f for t in MOMENT_TS]

    def rep(traced: bool) -> None:
        cache = s.new_dir("cache")
        s.setup("start", [])
        outs = [s.new_path(f"moment-{j}.json") for j in range(len(heights))]
        steps = [_zl("moment", "--T", repr(T), "--H", repr(MOMENT_H),
                     "--no-cache", "--cache-dir", cache, "--out", out,
                     timed=True) for T, out in zip(heights, outs)]
        for j, (op, _) in enumerate(s.timed("moment", steps, traced)):
            s.verify(op, _check_moment, s, op, outs[j], heights[j], j)

    s.repeat(rep)


def _check_sweep(s, op, out: Path, n: int) -> None:
    rows = _rows(out)
    s.check(op, len(rows) == n, f"sweep wrote {len(rows)} rows, not {n}")
    for j, row in enumerate(rows):
        T, ratio = float(row["T"]), float(row["ratio"])
        s.check(op, 0.4 <= ratio <= 2.5, f"ratio {ratio} at T = {T}")
        meta = float(row["meta_residual"])
        s.check(op, meta <= 10.0 * T ** -0.25,
                f"meta_residual {meta} at T = {T}")
        chain = [T, float(row["eta"])] + [float(row[f"alpha_{r}"])
                                          for r in range(SWEEP_K + 1)]
        s.check(op, all(a < b for a, b in zip(chain, chain[1:])),
                f"T < eta < alpha_0 < ... < alpha_k fails: {chain}")
        if s.seed == 0 and j < len(FROZEN_SWEEP_RATIOS):
            want = FROZEN_SWEEP_RATIOS[j]
            s.check(op, _close(ratio, want, RATIO_REL_TOL * want),
                    f"sweep ratio {ratio!r} at T = {T}, frozen {want!r}")
    s.same_bytes(op, "sweep.csv", out)


def factorize_warm(s) -> None:
    """Set-up is the table-cold command, twice; the timed sweep only reads
    the table the first set-up wrote."""
    f = scale(s.seed)
    T = TABLE_T * f
    lo, hi, n = SWEEP[0] * f, SWEEP[1] * f, SWEEP[2]
    caches = []
    for _ in range(2):
        cache = s.new_dir("cache")
        out = s.new_path("ladder.csv")
        _, (op, _), (_, probe) = s.setup(
            "calibration+ladder",
            [_calibration(cache)] + _ladder_steps(cache, out, T, False))
        s.verify(op, _check_table_build, s, op, cache, out, probe, T)
        caches.append(cache)
    table = caches[0] / "smtable.csv"
    table_bytes = table.read_bytes() if table.exists() else b""

    def rep(traced: bool) -> None:
        out = s.new_path("sweep.csv")
        [(op, _)] = s.timed("factorize", [
            _zl("factorize", "--sweep", f"T={lo!r}:{hi!r}:{n}",
                "--H", repr(SWEEP_H), "--k", SWEEP_K,
                "--workers", SWEEP_WORKERS, "--cache-dir", caches[0],
                "--out", out, timed=True)], traced)
        s.verify(op, _check_sweep, s, op, out, n)
        s.verify(op, lambda: s.check(op, table.read_bytes() == table_bytes,
                                     "the sweep changed the table"))

    s.repeat(rep)


WORKLOADS = {
    "table-cold": table_cold,
    "moment-2e5": moment,
    "factorize-warm": factorize_warm,
}
