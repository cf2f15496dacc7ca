"""Command-line front end for the evaluation and factorization pipelines.

Eight subcommands map onto the pipeline stages: `eval` (pointwise Z with
the oracle cross-check), `moment` (windowed second moment), `ladder`
(heights and complement ratios), `alphas` (the control-point chain),
`factorize` (single report or sweep), `spectrum` (main-sum frequencies),
`calibrate` (fit and persist the ladder constant), and `plot` (SVG from
any emitted CSV).

Every command writes a JSON run manifest next to its primary output
recording the command, its parameters, the effective config and the files
produced.  Primary outputs are deterministic: numbers are emitted in
round-trip decimal form, sweep rows are buffered and written in input
order no matter how many workers computed them, and cache hits replay the
exact bytes that were first written.  The manifest carries the only
timestamp.  Every file is written whole (`write_atomic`), so a failed or
killed run leaves the old file or the whole new one.

Configuration precedence is flags over config file over defaults; the
checkpoint table, calibration artifact and moment memos live in the cache
directory (`./.zlcache`, or `ZL_CACHE_DIR`, or `--cache-dir`).
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
from .quadrature import (QuadConfig, SecondMomentTable, admissible_h_range,
                         hl_moment, load_table, save_table, table_key,
                         write_atomic)
from .special import RSConfig, em_zeta_half, riemann_siegel_z, z_phase

_log = logging.getLogger(__name__)

_DEFAULTS: Dict[str, object] = {
    "abs_tol": 1e-8,
    "rel_tol": 1e-8,
    "max_depth": 24,
    "correction_order": 1,
    "u0_exponent": 0.5001,
    "zero_threshold": 1e-6,
    "max_retries": 8,
    "scan_step": 0.1,
    "workers": 0,
    "sieve_limit": 1_100_000,
    "anchor_lo": 1.0e4,
    "anchor_hi": 1.0e5,
    "anchor_count": 10,
}

_TABLE_FILE = "smtable.csv"
_CALIB_FILE = "calibration.txt"

# rows `eval` writes at most, so a tiny step is refused, not run for hours
_EVAL_MAX_ROWS = 10 ** 6


def _write_manifest(command: str, out: Path, params: Dict[str, object],
                    eff: Dict[str, object], *extra: Path) -> None:
    """Write the provenance record of a run beside its primary output
    `out`: command, parameters with the effective config, the config
    fingerprint, a UTC timestamp and the files produced (`out`, then
    `extra`)."""
    doc = {"command": command, "parameters": {**params, "config": eff},
           "config_fingerprint": _quad_config(eff).fingerprint,
           "timestamp": datetime.now(timezone.utc).isoformat(
               timespec="seconds"),
           "outputs": [str(p) for p in (out,) + extra]}
    write_atomic(out.with_suffix(out.suffix + ".manifest.json"),
                 json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# configuration plumbing


def _read_config_file(path: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in _DEFAULTS:
                raise DomainError(
                    f"{path}:{ln}: unknown config key {key!r}")
            default = _DEFAULTS[key]
            out[key] = int(val) if isinstance(default, int) else \
                float(val) if isinstance(default, float) else val
    return out


def _effective_config(args: argparse.Namespace) -> Dict[str, object]:
    eff = dict(_DEFAULTS)
    if getattr(args, "config", None):
        eff.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            eff[key] = flag
    return eff


def _quad_config(eff: Dict[str, object]) -> QuadConfig:
    return QuadConfig(abs_tol=float(eff["abs_tol"]),
                      rel_tol=float(eff["rel_tol"]),
                      max_depth=int(eff["max_depth"]))


def _rs_config(eff: Dict[str, object]) -> RSConfig:
    return RSConfig(correction_order=int(eff["correction_order"]))


def _cache_dir(args: argparse.Namespace) -> Path:
    path = getattr(args, "cache_dir", None) \
        or os.environ.get("ZL_CACHE_DIR") or ".zlcache"
    cache = Path(path)
    cache.mkdir(parents=True, exist_ok=True)
    return cache


def _load_or_new_table(cache: Path, qcfg: QuadConfig,
                       rs_cfg: RSConfig) -> SecondMomentTable:
    path = cache / _TABLE_FILE
    if path.exists():
        try:
            return load_table(path, qcfg, rs_cfg)
        except (TableIntegrityError, ValueError) as exc:
            _log.warning("ignoring cached table %s: %s", path, exc)
    return SecondMomentTable(qcfg, rs_cfg)


def _default_anchors(eff: Dict[str, object]) -> List[float]:
    return [float(a) for a in np.geomspace(float(eff["anchor_lo"]),
                                           float(eff["anchor_hi"]),
                                           int(eff["anchor_count"]))]


def _calibrated_context(args, eff, qcfg, rs_cfg):
    """Table, calibrated ladder config and sieve shared by ladder stages."""
    cache = _cache_dir(args)
    table = _load_or_new_table(cache, qcfg, rs_cfg)
    pi_table = ld.PrimePiTable.build(int(eff["sieve_limit"]))
    art = cache / _CALIB_FILE
    cfg = None
    if art.exists():
        try:
            loaded, fingerprint, _ = ld.load_calibration(art)
            if fingerprint == table.fingerprint:
                cfg = loaded
            else:
                _log.warning("calibration %s was fit against a different "
                             "table config; refitting", art)
        except TableIntegrityError as exc:
            _log.warning("ignoring calibration artifact: %s", exc)
    if cfg is None:
        anchors = _default_anchors(eff)
        _log.info("calibrating c0 at %d anchors (first run extends the "
                  "checkpoint table and takes minutes)", len(anchors))
        cfg = _calibrate(cache, table, pi_table, anchors, art)
    return cache, table, cfg, pi_table


def _calibrate(cache: Path, table: SecondMomentTable,
               pi_table: ld.PrimePiTable, anchors: List[float],
               out: Path) -> ld.LadderConfig:
    """Fit c0 at the anchors, write the artifact to out, and save the
    checkpoint table the fit extended."""
    cfg = ld.LadderConfig()
    ld.calibrate_c0(anchors, cfg, table, pi_table)
    ld.save_calibration(out, cfg, table, anchors)
    save_table(table, cache / _TABLE_FILE)
    return cfg


def _factor_config(eff, cfg_ladder, qcfg, rs_cfg) -> fz.FactorConfig:
    return fz.FactorConfig(ladder=cfg_ladder, quad=qcfg, rs=rs_cfg,
                           u0_exponent=float(eff["u0_exponent"]),
                           zero_threshold=float(eff["zero_threshold"]),
                           max_retries=int(eff["max_retries"]),
                           scan_step=float(eff["scan_step"]))


def _write_rows(path: Path, header: str, rows: Sequence[str]) -> None:
    write_atomic(path, "".join(line + "\n" for line in [header, *rows]))


def _parse_sweep(text: str) -> List[float]:
    """`T=a:b:n` to n log-spaced values of T."""
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if name.strip() != "T" or not sep or len(parts) != 3:
        raise DomainError(f"sweep spec must look like T=a:b:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo <= hi) or n < 1:
        raise DomainError(f"bad sweep range in {text!r}")
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _pool_size(eff: Dict[str, object]) -> int:
    workers = int(eff["workers"])
    if workers <= 0:
        workers = min(8, os.cpu_count() or 1)
    return workers


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
    if span >= _EVAL_MAX_ROWS:
        raise DomainError(f"eval would write more than {_EVAL_MAX_ROWS} "
                          "rows; raise --step or narrow the range")
    n = int(math.floor(span)) + 1 if args.stop >= args.start else 0
    eff = _effective_config(args)
    rs_cfg = _rs_config(eff)
    out = Path(args.out)
    header = "t,Z,theta,abs_zeta,oracle_diff"
    rows = []
    for i in range(n):
        t = args.start + i * args.step
        point = riemann_siegel_z(t, rs_cfg)
        zeta = em_zeta_half(t)
        diff = abs(point.z - (z_phase(t) * zeta).real)
        rows.append(",".join([repr(t), repr(point.z), repr(point.theta),
                              repr(abs(zeta)), repr(diff)]))
    _write_rows(out, header, rows)
    _write_manifest("eval", out, {"from": args.start, "to": args.stop,
                                  "step": args.step}, eff)
    print(f"eval: {len(rows)} rows -> {out}")
    return 0


def _moment_cache_key(T: float, H: float, eff, qcfg: QuadConfig,
                      rs_cfg: RSConfig) -> str:
    # outer=gl16 names the outer integral's rule: a memo of the adaptive
    # rule differs in jbar's last digits and is recomputed, not replayed
    blob = "|".join(["moment", repr(float(T)), repr(float(H)),
                     repr(float(eff["u0_exponent"])),
                     table_key(qcfg, rs_cfg), "outer=gl16"])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_MOMENT_KEYS = ("T", "H", "U0", "jbar", "ratio")


def _replayable_memo(memo: Path, T: float, H: float) -> Optional[str]:
    """The text of a cached moment memo if it is a whole moment-v1 report
    for exactly (T, H); otherwise None, with the reason logged."""
    try:
        text = memo.read_text()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:
        why = f"unreadable ({exc})"
    else:
        if not (isinstance(doc, dict) and doc.get("schema") == "moment-v1"
                and all(isinstance(doc.get(k), float)
                        for k in _MOMENT_KEYS)):
            why = "not a whole moment-v1 report"
        elif (doc["T"], doc["H"]) != (T, H):
            why = f"it holds T={doc['T']!r}, H={doc['H']!r}"
        else:
            _log.info("moment cache hit: %s", memo.name)
            return text
    _log.warning("moment memo %s recomputed: %s", memo.name, why)
    return None


def cmd_moment(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    qcfg, rs_cfg = _quad_config(eff), _rs_config(eff)
    cache = _cache_dir(args)
    out = Path(args.out)
    h_lo, h_hi = admissible_h_range(args.T)
    if not h_lo < args.H < h_hi:
        raise DomainError(
            f"H = {args.H:g} inadmissible at T = {args.T:g}: needs "
            f"ln ln T / ln T < H < T^(1/ln ln T), i.e. ({h_lo:.6g}, "
            f"{h_hi:.6g})")
    memo = cache / f"moment-{_moment_cache_key(args.T, args.H, eff, qcfg, rs_cfg)}.json"
    text = None
    if memo.exists() and not args.no_cache:
        text = _replayable_memo(memo, args.T, args.H)
    if text is None:
        report = hl_moment(args.T, args.H, qcfg, rs_cfg,
                           u0_exponent=float(eff["u0_exponent"]))
        text = json.dumps(report.as_dict(), indent=2) + "\n"
        write_atomic(memo, text)
    write_atomic(out, text)
    _write_manifest("moment", out, {"T": args.T, "H": args.H}, eff, memo)
    print(f"moment: T={args.T:g} H={args.H:g} -> {out}")
    return 0


def _parse_t_list(text: str) -> List[float]:
    if "=" in text:
        return _parse_sweep(text)
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_ladder(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    qcfg, rs_cfg = _quad_config(eff), _rs_config(eff)
    cache, table, cfg, pi_table = _calibrated_context(args, eff, qcfg,
                                                      rs_cfg)
    ts = _parse_t_list(args.T) if args.T else _default_anchors(eff)
    one_minus_c = 1.0 - cfg.euler_c
    rows = []
    for t in ts:
        point = ld.phi1(t, cfg, table)
        ratio = (t - point.phi1) / (one_minus_c * ld.pi_count(t, pi_table))
        rows.append(",".join([repr(float(t)), repr(point.phi1),
                              repr(point.residual), repr(ratio)]))
    out = Path(args.out)
    _write_rows(out, "T,phi1,residual,complement_ratio", rows)
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("ladder", out, {"T": ts}, eff)
    print(f"ladder: {len(rows)} rows -> {out}")
    return 0


def cmd_alphas(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    qcfg, rs_cfg = _quad_config(eff), _rs_config(eff)
    cache, table, cfg, _ = _calibrated_context(args, eff, qcfg, rs_cfg)
    fcfg = _factor_config(eff, cfg, qcfg, rs_cfg)
    seq = fz.build_alpha_sequence(args.T, args.H, args.k, fcfg, table)
    doc = {"schema": "alphaseq-v1", "T": seq.T, "H": seq.H, "k": seq.k,
           "eta": seq.eta, "beta": seq.beta, "Hk": seq.Hk,
           "alphas": list(seq.alphas)}
    out = Path(args.out)
    write_atomic(out, json.dumps(doc, indent=2) + "\n")
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("alphas", out, {"T": args.T, "H": args.H, "k": args.k},
                    eff)
    print(f"alphas: k={args.k} chain at T={args.T:g} -> {out}")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    qcfg, rs_cfg = _quad_config(eff), _rs_config(eff)
    cache, table, cfg, _ = _calibrated_context(args, eff, qcfg, rs_cfg)
    fcfg = _factor_config(eff, cfg, qcfg, rs_cfg)
    out = Path(args.out)
    if args.sweep:
        ts = _parse_sweep(args.sweep)

        def job(t: float) -> str:
            report = fz.factorize(t, args.H, args.k, fcfg, table)
            _log.info("factorize sweep: T = %g done", t)
            return report.csv_row()

        workers = _pool_size(eff)
        if workers > 1 and len(ts) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(job, ts))     # input order preserved
        else:
            rows = [job(t) for t in ts]
        _write_rows(out, fz.FactorizationReport.csv_header(args.k), rows)
        params = {"sweep": args.sweep, "H": args.H, "k": args.k}
        print(f"factorize: {len(rows)} sweep rows -> {out}")
    else:
        report = fz.factorize(args.T, args.H, args.k, fcfg, table)
        write_atomic(out, json.dumps(report.as_dict(), indent=2) + "\n")
        params = {"T": args.T, "H": args.H, "k": args.k}
        print(f"factorize: ratio = {report.ratio:.6f} -> {out}")
    save_table(table, cache / _TABLE_FILE)
    _write_manifest("factorize", out, params, eff)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    entries = fz.local_spectrum(args.x)
    rows = [",".join([str(e.n), repr(e.omega)]) for e in entries]
    out = Path(args.out)
    _write_rows(out, "n,omega", rows)
    _write_manifest("spectrum", out, {"x": args.x}, eff)
    print(f"spectrum: {len(rows)} frequencies -> {out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
    qcfg, rs_cfg = _quad_config(eff), _rs_config(eff)
    cache = _cache_dir(args)
    table = _load_or_new_table(cache, qcfg, rs_cfg)
    pi_table = ld.PrimePiTable.build(int(eff["sieve_limit"]))
    anchors = [float(a) for a in args.anchors.split(",") if a.strip()] \
        if args.anchors else _default_anchors(eff)
    out = Path(args.out) if args.out else cache / _CALIB_FILE
    c0 = _calibrate(cache, table, pi_table, anchors, out).c0
    _write_manifest("calibrate", out, {"anchors": anchors}, eff)
    print(f"calibrate: c0 = {c0!r} -> {out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    eff = _effective_config(args)
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
                                  "y": y_cols, "kind": args.kind}, eff)
    print(f"plot: {len(series)} series -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser scaffolding


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("configuration")
    group.add_argument("--config", help="key=value config file")
    group.add_argument("--cache-dir", dest="cache_dir",
                       help="cache directory (default ./.zlcache or "
                            "ZL_CACHE_DIR)")
    group.add_argument("--verbose", action="store_true",
                       help="line-based progress log on stderr")
    for key, default in _DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        kind = int if isinstance(default, int) else float
        group.add_argument(flag, dest=key, type=kind, default=None,
                           help=f"default {default}")


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
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("moment", help="windowed second moment report")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--no-cache", dest="no_cache", action="store_true")
    p.add_argument("--out", default="moment.json")
    _add_config_flags(p)
    p.set_defaults(func=cmd_moment)

    p = subs.add_parser("ladder", help="heights and complement ratios")
    p.add_argument("--T", help="comma list or T=a:b:n log sweep "
                               "(default: the calibration anchors)")
    p.add_argument("--out", default="ladder.csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ladder)

    p = subs.add_parser("alphas", help="control-point chain for (T, H, k)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="alphas.json")
    _add_config_flags(p)
    p.set_defaults(func=cmd_alphas)

    p = subs.add_parser("factorize", help="factorization report or sweep")
    p.add_argument("--T", type=float)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", help="T=a:b:n for a log-spaced sweep CSV")
    p.add_argument("--out", default="facrep.json")
    _add_config_flags(p)
    p.set_defaults(func=cmd_factorize)

    p = subs.add_parser("spectrum", help="main-sum frequencies at height x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", default="spectrum.csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("calibrate", help="fit c0 and write the artifact")
    p.add_argument("--anchors", help="comma-separated anchor heights")
    p.add_argument("--out", help="artifact path (default: cache dir)")
    _add_config_flags(p)
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
    _add_config_flags(p)
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
