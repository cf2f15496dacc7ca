"""Command-line front end for the evaluation and factorization pipelines.

Eight subcommands map onto the pipeline stages: `eval` (pointwise Z with
the oracle cross-check), `moment` (windowed second moment), `ladder`
(heights and complement ratios), `alphas` (the control-point chain),
`factorize` (single report or sweep), `spectrum` (main-sum frequencies),
`calibrate` (fit and persist the ladder constant), and `plot` (SVG from
any emitted CSV).

Every command writes a JSON run manifest next to its primary output
recording the command, its parameters, the artifact key `quadrature.KEY`
(as `config_fingerprint`) and the files produced.  Primary outputs are
deterministic: numbers are emitted in round-trip decimal form, sweep rows
are buffered and written in input order no matter how many workers
computed them, and cache hits replay the exact bytes that were first
written.  The manifest carries the only timestamp.  Every file is written
whole (`write_atomic`), so a failed or killed run leaves the old file or
the whole new one.

The tolerances are the constants of `quadrature` and no flag changes
them; `factorize --workers` sets the sweep's thread count, the one setting,
at most `_MAX_WORKERS`; the pool has no more threads than the sweep has jobs.
The checkpoint table, calibration artifact and moment memos live in the
cache directory (`./.zlcache`, or `ZL_CACHE_DIR`, or `--cache-dir`); one
that `quadrature.read_artifact` refuses is rebuilt with a warning.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import factorization as fz
from . import ladder as ld
from . import svgplot
from .errors import (CalibrationError, DegenerateConfigurationError,
                     DomainError, PrecisionError, TableIntegrityError)
from .quadrature import (KEY, SecondMomentTable, hl_moment, load_table,
                         read_artifact, save_table, write_artifact,
                         write_atomic)
from .special import em_zeta_half, riemann_siegel_z, z_phases

_log = logging.getLogger(__name__)

_TABLE_FILE = "smtable.csv"
_CALIB_FILE = "calibration.txt"

# rows `eval` writes and values a sweep spans at most, so a tiny step or a
# huge count is refused, not run for hours or allocated
_MAX_ROWS = 10 ** 6
# sweep threads `factorize --workers` may ask for; the pool starts a thread
# per pending job up to its size, so a larger request is refused
_MAX_WORKERS = 64


def _write_manifest(command: str, out: Path, params: Dict[str, object],
                    *extra: Path) -> None:
    """Write the provenance record of a run beside its primary output
    `out`: command, parameters, the artifact key `KEY`, a UTC
    timestamp and the files produced (`out`, then `extra`)."""
    doc = {"command": command, "parameters": params,
           "config_fingerprint": KEY,
           "timestamp": datetime.now(timezone.utc).isoformat(
               timespec="seconds"),
           "outputs": [str(p) for p in (out,) + extra]}
    write_atomic(out.with_suffix(out.suffix + ".manifest.json"),
                 json.dumps(doc, indent=2) + "\n")


def _cache_dir(args: argparse.Namespace) -> Path:
    path = getattr(args, "cache_dir", None) \
        or os.environ.get("ZL_CACHE_DIR") or ".zlcache"
    cache = Path(path)
    cache.mkdir(parents=True, exist_ok=True)
    return cache


def _read_cached(path: Path, read):
    """read(path), or None when path is missing or refused, with a
    warning in the second case."""
    if not path.exists():
        return None
    try:
        return read(path)
    except (TableIntegrityError, ValueError) as exc:
        _log.warning("ignoring cached %s: %s", path.name, exc)
        return None


def _load_or_new_table(cache: Path) -> SecondMomentTable:
    return _read_cached(cache / _TABLE_FILE, load_table) \
        or SecondMomentTable()


def _calibrated_context(args):
    """Cache, table and calibrated ladder config shared by ladder stages."""
    cache = _cache_dir(args)
    table = _load_or_new_table(cache)
    art = cache / _CALIB_FILE
    loaded = _read_cached(art, ld.load_calibration)
    if loaded is not None:
        return cache, table, loaded[0]
    anchors = ld.CALIBRATION_ANCHORS
    _log.info("calibrating c0 at %d anchors (extends the checkpoint "
              "table to the top anchor first)", len(anchors))
    return cache, table, _calibrate(cache, table, anchors, art)


def _calibrate(cache: Path, table: SecondMomentTable,
               anchors: Sequence[float], out: Path) -> ld.LadderConfig:
    """Fit c0 at the anchors, write the artifact to out, and save the
    checkpoint table the fit extended."""
    cfg = ld.LadderConfig()
    ld.calibrate_c0(anchors, cfg, table)
    ld.save_calibration(out, cfg, table, anchors)
    save_table(table, cache / _TABLE_FILE)
    return cfg


def _write_rows(path: Path, header: str, rows: Sequence[str]) -> None:
    write_atomic(path, "".join(line + "\n" for line in [header, *rows]))


def _parse_sweep(text: str) -> List[float]:
    """`T=a:b:n` to n log-spaced values of T."""
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if name.strip() != "T" or not sep or len(parts) != 3:
        raise DomainError(f"sweep spec must look like T=a:b:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad number in sweep spec {text!r}: {exc}") \
            from None
    if not (0 < lo <= hi < math.inf) or n < 1:
        raise DomainError(f"bad sweep range in {text!r}")
    if n >= _MAX_ROWS:
        raise DomainError(f"sweep spec {text!r} asks for {n} values; it "
                          f"must ask for fewer than {_MAX_ROWS}")
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _parse_floats(text: str, flag: str) -> List[float]:
    """The comma list given to flag, each entry a finite number."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag} {text!r}: {exc}") from None
    bad = [v for v in vals if not math.isfinite(v)]
    if bad:
        raise DomainError(f"{flag} {text!r}: {bad[0]} is not finite")
    return vals


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.start) and math.isfinite(args.stop)
            and 0.0 < args.step < math.inf
            and args.stop + args.step != args.stop):
        raise DomainError(
            f"eval needs finite --from and --to and a finite --step > 0 "
            f"that advances t at --to, got --from {args.start} --to "
            f"{args.stop} --step {args.step}")
    span = (args.stop - args.start) / args.step + 1e-9
    if span >= _MAX_ROWS:
        raise DomainError(f"eval would write more than {_MAX_ROWS} "
                          "rows; raise --step or narrow the range")
    n = int(math.floor(span)) + 1 if args.stop >= args.start else 0
    out = Path(args.out)
    header = "t,Z,theta,abs_zeta,oracle_diff"
    ts = args.start + args.step * np.arange(n)
    point, zeta, phase = riemann_siegel_z(ts), em_zeta_half(ts), z_phases(ts)
    # Re(phase * zeta) and |zeta| (hypot) rounded as Python's complex ops
    diff = np.abs(point.z - (phase.real * zeta.real - phase.imag * zeta.imag))
    cols = ts, point.z, point.theta, np.hypot(zeta.real, zeta.imag), diff
    rows = [",".join(map(repr, r)) for r in zip(*(c.tolist() for c in cols))]
    _write_rows(out, header, rows)
    _write_manifest("eval", out, {"from": args.start, "to": args.stop,
                                  "step": args.step})
    print(f"eval: {len(rows)} rows -> {out}")
    return 0


def _moment_cache_key(T: float, H: float) -> str:
    return hashlib.sha256(f"{T!r}|{H!r}|{KEY}".encode()).hexdigest()[:16]


def cmd_moment(args: argparse.Namespace) -> int:
    cache = _cache_dir(args)
    out = Path(args.out)
    memo = cache / f"moment-{_moment_cache_key(args.T, args.H)}.json"
    header = f"moment-v1,T={args.T!r},H={args.H!r}"
    text = None if args.no_cache \
        else _read_cached(memo, lambda p: read_artifact(p, header))
    if text is None:
        report = hl_moment(args.T, args.H)
        text = json.dumps(report.as_dict(), indent=2) + "\n"
        write_artifact(memo, header, text)
    write_atomic(out, text)
    _write_manifest("moment", out, {"T": args.T, "H": args.H}, memo)
    print(f"moment: T={args.T:g} H={args.H:g} -> {out}")
    return 0


def _parse_t_list(text: str) -> List[float]:
    if "=" in text:
        return _parse_sweep(text)
    return _parse_floats(text, "--T")


def cmd_ladder(args: argparse.Namespace) -> int:
    ts = _parse_t_list(args.T) if args.T else ld.CALIBRATION_ANCHORS
    cache, table, cfg = _calibrated_context(args)
    points = [ld.phi1(t, cfg, table) for t in ts]
    # sized only once phi1 has accepted every T and extended the table to it
    pi_table = ld.PrimePiTable.build(max([2] + [math.floor(t) for t in ts]))
    one_minus_c = 1.0 - ld.EULER_C
    rows = []
    for t, point in zip(ts, points):
        ratio = (t - point.phi1) / (one_minus_c * ld.pi_count(t, pi_table))
        rows.append(",".join([repr(float(t)), repr(point.phi1),
                              repr(point.residual), repr(ratio)]))
    out = Path(args.out)
    _write_rows(out, "T,phi1,residual,complement_ratio", rows)
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("ladder", out, {"T": ts})
    print(f"ladder: {len(rows)} rows -> {out}")
    return 0


def cmd_alphas(args: argparse.Namespace) -> int:
    cache, table, cfg = _calibrated_context(args)
    seq = fz.build_alpha_sequence(args.T, args.H, args.k, cfg, table)
    doc = {"schema": "alphaseq-v1", "T": seq.T, "H": seq.H, "k": seq.k,
           "eta": seq.eta, "beta": seq.beta, "Hk": seq.Hk,
           "alphas": list(seq.alphas)}
    out = Path(args.out)
    write_atomic(out, json.dumps(doc, indent=2) + "\n")
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("alphas", out, {"T": args.T, "H": args.H, "k": args.k})
    print(f"alphas: k={args.k} chain at T={args.T:g} -> {out}")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    if args.workers > _MAX_WORKERS:
        raise DomainError(f"--workers {args.workers} is above the ceiling "
                          f"of {_MAX_WORKERS} sweep threads")
    ts = _parse_sweep(args.sweep) if args.sweep else None
    cache, table, cfg = _calibrated_context(args)
    out = Path(args.out)
    if ts is not None:
        def job(t: float) -> str:
            report = fz.factorize(t, args.H, args.k, cfg, table)
            _log.info("factorize sweep: T = %g done", t)
            return report.csv_row()

        workers = args.workers
        if workers <= 0:
            workers = min(8, os.cpu_count() or 1)
        workers = min(workers, len(ts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, ts))     # input order preserved
        _write_rows(out, fz.FactorizationReport.csv_header(args.k), rows)
        params = {"sweep": args.sweep, "H": args.H, "k": args.k,
                  "workers": workers}
        print(f"factorize: {len(rows)} sweep rows -> {out}")
    else:
        report = fz.factorize(args.T, args.H, args.k, cfg, table)
        write_atomic(out, json.dumps(report.as_dict(), indent=2) + "\n")
        params = {"T": args.T, "H": args.H, "k": args.k}
        print(f"factorize: ratio = {report.ratio:.6f} -> {out}")
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("factorize", out, params)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.x / math.tau >= _MAX_ROWS ** 2:   # floor(sqrt(x / 2pi)) rows
        raise DomainError(f"spectrum at x = {args.x!r} would write more "
                          f"than {_MAX_ROWS} rows")
    entries = fz.local_spectrum(args.x)
    rows = [",".join([str(e.n), repr(e.omega)]) for e in entries]
    out = Path(args.out)
    _write_rows(out, "n,omega", rows)
    _write_manifest("spectrum", out, {"x": args.x})
    print(f"spectrum: {len(rows)} frequencies -> {out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cache = _cache_dir(args)
    anchors = _parse_floats(args.anchors, "--anchors") if args.anchors \
        else ld.CALIBRATION_ANCHORS
    table = _load_or_new_table(cache)
    out = Path(args.out) if args.out else cache / _CALIB_FILE
    c0 = _calibrate(cache, table, anchors, out).c0
    _write_manifest("calibrate", out, {"anchors": anchors})
    print(f"calibrate: c0 = {c0!r} -> {out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    with open(args.input) as fh:
        reader = csv.DictReader(fh)
        table_rows = list(reader)
        fieldnames = reader.fieldnames or []
    if not table_rows:
        raise DomainError(f"{args.input} has no data rows")
    y_cols = [c.strip() for c in args.y.split(",") if c.strip()]
    for col in [args.x] + y_cols:
        if col not in fieldnames:
            raise DomainError(
                f"column {col!r} not in {args.input} (has "
                f"{', '.join(fieldnames)})")
    def column(name: str) -> np.ndarray:
        try:
            return np.array([float(r[name]) for r in table_rows])
        except (TypeError, ValueError) as exc:
            raise DomainError(
                f"column {name!r} in {args.input} is not numeric: {exc}")

    xs = column(args.x)
    series = tuple(svgplot.Series(label=col, x=xs, y=column(col))
                   for col in y_cols)
    spec = svgplot.PlotSpec(
        kind=svgplot.PlotKind(args.kind),
        series=series,
        title=args.title or "", xlabel=args.xlabel or args.x,
        ylabel=args.ylabel or "")
    out = Path(args.out)
    write_atomic(out, svgplot.render(spec))
    _write_manifest("plot", out, {"input": args.input, "x": args.x,
                                  "y": y_cols, "kind": args.kind})
    print(f"plot: {len(series)} series -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser scaffolding


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache-dir", dest="cache_dir",
                     help="cache directory (default ./.zlcache or "
                          "ZL_CACHE_DIR)")
    sub.add_argument("--verbose", action="store_true",
                     help="line-based progress log on stderr")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetaladder",
        description="Critical-line second-moment ladders and the "
                    "alpha-sequence factorization identity.")
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="pointwise Z with the oracle check")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--out", default="eval.csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("moment", help="windowed second moment report")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--no-cache", dest="no_cache", action="store_true")
    p.add_argument("--out", default="moment.json")
    _add_common_flags(p)
    p.set_defaults(func=cmd_moment)

    p = subs.add_parser("ladder", help="heights and complement ratios")
    p.add_argument("--T", help="comma list or T=a:b:n log sweep "
                               "(default: the calibration anchors)")
    p.add_argument("--out", default="ladder.csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_ladder)

    p = subs.add_parser("alphas", help="control-point chain for (T, H, k)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="alphas.json")
    _add_common_flags(p)
    p.set_defaults(func=cmd_alphas)

    p = subs.add_parser("factorize", help="factorization report or sweep")
    p.add_argument("--T", type=float)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", help="T=a:b:n for a log-spaced sweep CSV")
    p.add_argument("--workers", type=int, default=0,
                   help="sweep threads, at most 64 (default 0: min(8, "
                   "CPUs))")
    p.add_argument("--out", default="facrep.json")
    _add_common_flags(p)
    p.set_defaults(func=cmd_factorize)

    p = subs.add_parser("spectrum", help="main-sum frequencies at height x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", default="spectrum.csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("calibrate", help="fit c0 and write the artifact")
    p.add_argument("--anchors", help="comma-separated anchor heights")
    p.add_argument("--out", help="artifact path (default: cache dir)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("plot", help="SVG chart from an emitted CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="comma list of y columns")
    p.add_argument("--kind", choices=["line", "scatter"], default="line")
    p.add_argument("--title")
    p.add_argument("--xlabel")
    p.add_argument("--ylabel")
    p.add_argument("--out", default="plot.svg")
    _add_common_flags(p)
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False)
        else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    if args.command == "factorize" and not args.sweep and args.T is None:
        print("error: factorize needs --T or --sweep", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (DomainError, TableIntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateConfigurationError, CalibrationError) as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 4
    _log.info("%s finished in %.2f s", args.command,
              time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
