"""zetaladder benchmark: time the `zl` command line on one workload.

    python3 perfbench/run.py --workload table-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each command runs in process through
`zetaladder.cli.main(argv)`, in a fresh Python process (perfbench/child.py)
with its own cache directory under .perfbench/, on one CPU and with one BLAS
thread; ZL_CACHE_DIR is removed from the environment and ./.zlcache is never
used.  The loop is closed with one client: each command starts when the
previous one has ended.  Repetitions run until --seconds of timed work have
passed, and at least twice, so that their outputs can be compared byte for
byte.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 one more repetition runs under the layer tracer
(perfbench/layers.py) and the object holds the per-layer metrics instead.
The line before it is a human-readable summary, and the full record, with
the provenance block, goes to .perfbench/results/.  `--workload all` runs
every workload in turn.

Exit code 0 means a result was printed (its "correct" field says whether
every operation passed); 2 means the checkout has no zetaladder sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

# every run must end within 180 s; children are killed at this limit
RUN_LIMIT_S = 170.0

# Children run on one CPU.  On a shared two-vCPU host the second core comes
# and goes, which swung the wall time of one table build between 7.1 and
# 13.2 s while its CPU time stayed within 12.3-13.7 s; on one core wall time
# follows CPU time.  The program's pools still start their threads.
CHILD_CPUS = [min(os.sched_getaffinity(0))]

# BLAS would start threads of its own inside every pool thread of the
# program (unpinned, one table build took 8.5 s with them and 6.6 s without)
BLAS_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}


class Session:
    """Children, samples and operation outcomes of one workload run.

    An operation is one `zl` command or one calibration write.  It fails on
    a nonzero exit code, a crashed child, or any failed output check."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = STATE / f"run-{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setups: List[float] = []
        self.reps: List[dict] = []
        self.traced: Optional[dict] = None
        self.ops: Dict[str, Optional[str]] = {}
        self.info: dict = {}
        self._digests: Dict[str, str] = {}
        self._n = 0

    # -- files ----------------------------------------------------------

    def new_path(self, name: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{name}"

    def new_dir(self, name: str) -> Path:
        path = self.new_path(name)
        path.mkdir(parents=True)
        return path

    # -- operations -----------------------------------------------------

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok and self.ops.get(op) is None:
            self.ops[op] = message

    def verify(self, op: str, checks: Callable, *args) -> None:
        """Run checks(*args) unless op already failed; output that the
        checks cannot even parse fails op too."""
        if self.ops.get(op) is not None:
            return
        try:
            checks(*args)
        except Exception as exc:
            self.check(op, False, f"output check raised {exc!r}")

    def same_bytes(self, op: str, key: str, path: Path) -> None:
        """Fail op unless path holds the same bytes as the first repetition
        that wrote `key`."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.setdefault(key, digest)
        self.check(op, digest == first,
                   f"{key} differs between repetitions")

    # -- children -------------------------------------------------------

    def _child(self, label: str, steps: List[dict], trace: bool):
        """Run steps in a fresh process; returns ([(op, step data)], wall
        seconds from spawn to exit, response).  Every `zl` and calibration
        step is an operation."""
        req = self.new_path(f"{label}.request.json")
        resp_path = req.with_suffix(".response.json")
        spans = STATE / "results" / \
            f"{self.workload}-seed{self.seed}.spans.jsonl"
        req.write_text(json.dumps({
            "src": str(SRC), "cpus": CHILD_CPUS, "steps": steps,
            "trace": trace,
            "run_id": f"{self.workload}-seed{self.seed}-{self._n}",
            "spans_path": str(spans), "response": str(resp_path)}))
        env = {k: v for k, v in os.environ.items() if k != "ZL_CACHE_DIR"}
        env.update(BLAS_THREADS)
        t0 = time.perf_counter()
        error = None
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(req)], cwd=self.work,
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - time.monotonic()))
            if proc.returncode != 0:
                error = f"child exited {proc.returncode}: " \
                        f"{proc.stderr.strip()[-400:]}"
        except subprocess.TimeoutExpired:
            error = f"child killed at the {RUN_LIMIT_S:g} s run limit"
        elapsed = time.perf_counter() - t0
        resp = json.loads(resp_path.read_text()) if error is None else {}
        for key in ("python", "numpy", "scipy", "backend", "cpu_count"):
            if key in resp:
                self.info[key] = resp[key]
        done = resp.get("steps", [])
        out = []
        for i, step in enumerate(steps):
            data = done[i] if i < len(done) else {}
            op = None
            if "zl" in step or "calibration" in step:
                op = f"{label}#{len(self.ops)}"
                self.ops[op] = None
                if data.get("rc") != 0:
                    self.ops[op] = error or f"exit code {data.get('rc')}"
            out.append((op, data))
        return out, elapsed, resp

    def setup(self, label: str, steps: List[dict]):
        out, elapsed, _ = self._child(label, steps, trace=False)
        self.setups.append(elapsed)
        return out

    def timed(self, label: str, steps: List[dict], traced: bool):
        out, _, resp = self._child(label, steps, trace=traced)
        timed = [data for step, (_, data) in zip(steps, out)
                 if step.get("timed")]
        sample = {"steps": [d.get("wall") for d in timed],
                  "wall": sum(d.get("wall", 0.0) for d in timed),
                  "cpu": sum(d.get("cpu", 0.0) for d in timed),
                  "rss": resp.get("peak_rss_mb", 0.0)}
        if not traced:
            self.reps.append(sample)
        elif "layers" in resp:
            self.traced = {"wall": sample["wall"], "layers": resp["layers"],
                           "untraced": resp["untraced"]}
        return out

    def repeat(self, rep: Callable[[bool], None]) -> None:
        """Untraced repetitions for --seconds (at least two), then one
        traced repetition when tracing."""
        while True:
            walls = [r["wall"] for r in self.reps]
            if len(walls) >= 2 and sum(walls) >= self.seconds:
                break
            left = self.deadline - time.monotonic()
            if walls and left < 1.5 * max(walls):
                break
            rep(False)
        if self.trace and self.deadline - time.monotonic() > \
                1.5 * max((r["wall"] for r in self.reps), default=0.0):
            rep(True)

    # -- results --------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        def median(xs):
            return statistics.median(xs) if xs else 0.0
        return {"setup_s": median(self.setups),
                "wall_s": median([r["wall"] for r in self.reps]),
                "cpu_s": median([r["cpu"] for r in self.reps]),
                "peak_rss_mb": median([r["rss"] for r in self.reps])}


def _src_lines() -> int:
    """Lines of Python and Cython source under src/, generated C excluded."""
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*"))
               if p.suffix in (".py", ".pyx") and "__pycache__" not in p.parts)


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".pyx"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(s: Session) -> dict:
    return {
        "seed": s.seed,
        "height_scale": workloads.scale(s.seed),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "src_lines": _src_lines(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "child_cpus": CHILD_CPUS,
        "blas_threads_env": BLAS_THREADS,
        "python": s.info.get("python"),
        "numpy": s.info.get("numpy"),
        "scipy": s.info.get("scipy"),
        "kernel_backend": s.info.get("backend"),
        "table_pool_workers": min(8, s.info.get("cpu_count") or 1),
        "sweep_workers": workloads.SWEEP_WORKERS,
    }


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    s = Session(name, seed, seconds, trace)
    s.work.mkdir(parents=True, exist_ok=True)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    zlcache = ROOT / ".zlcache"
    zlcache_before = zlcache.exists() and zlcache.stat().st_mtime_ns
    try:
        workloads.WORKLOADS[name](s)
    finally:
        shutil.rmtree(s.work, ignore_errors=True)
    s.ops["isolation"] = None
    s.check("isolation", (zlcache.exists() and zlcache.stat().st_mtime_ns)
            == zlcache_before, "./.zlcache was touched")
    if trace:
        s.ops["trace"] = None
        s.check("trace", s.traced is not None, "the traced repetition did "
                "not run or did not report")

    failures = {op: msg for op, msg in s.ops.items() if msg is not None}
    e2e = s.end_to_end()
    if trace:
        layers = dict((s.traced or {}).get("layers", {}))
        if s.traced is not None and s.reps:
            layers["trace.overhead_s"] = s.traced["wall"] - e2e["wall_s"]
        metrics = layers
    else:
        metrics = e2e
    record = {
        "workload": name, "correct": not failures,
        "attempted": len(s.ops), "failed": len(failures),
        "failures": failures, "end_to_end": e2e, "metrics": metrics,
        "setups_s": s.setups, "repetitions": s.reps,
        "untraced_attributes": (s.traced or {}).get("untraced"),
        "provenance": provenance(s)}
    out = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _units(trace: bool) -> Dict[str, str]:
    if not trace:
        return END_TO_END
    import layers
    return {name: unit for name, unit, _, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zetaladder" / "cli.py").is_file():
        print(f"error: no zetaladder sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    units = _units(bool(args.trace))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        metrics = {k: {"value": rec["metrics"].get(k, 0.0), "unit": u}
                   for k, u in units.items()}
        e2e = rec["end_to_end"]
        for msg in rec["failures"].values():
            print(f"FAILED {name}: {msg}")
        print(f"provenance: {json.dumps(rec['provenance'])}")
        print(f"{name} seed={args.seed}: "
              + " ".join(f"{k}={v:.4g} {END_TO_END[k]}"
                         for k, v in e2e.items())
              + f" fail_frac={rec['failed'] / rec['attempted']:.3g} "
              f"({rec['failed']}/{rec['attempted']} ops)")
        total["correct"] &= rec["correct"]
        total["attempted"] += rec["attempted"]
        total["failed"] += rec["failed"]
        if len(names) == 1:
            total["metrics"] = metrics
        else:
            total["metrics"].update({f"{name}.{k}": v
                                     for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
