"""One fresh benchmark process: run a list of steps and report on them.

    python3 perfbench/child.py REQUEST.json

The request names the checkout's src/ directory, the CPUs to run on, the
steps and where to write the JSON response.  zetaladder is imported from
that src/ and nowhere else.  Step kinds:

- {"zl": [...argv...], "timed": bool}: `zetaladder.cli.main(argv)` in
  process, with its wall time, CPU time and exit code.  When the request
  asks for tracing, timed steps run under the layer tracer.
- {"calibration": path, "c0": float}: write a ladder calibration artifact.
- {"table": path}: load a checkpoint table and summarize it for the checks.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

EULER_GAMMA = 0.57721566490153286061


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _table_summary(path: str) -> dict:
    """Checkpoint checks: strictly increasing, and the mean of
    E(T) = I(T) - T ln(T/2pi) - (2 gamma - 1) T over the checkpoints, which
    tends to pi (Hafner & Ivic, J. Number Theory 32, 1989)."""
    from zetaladder.quadrature import load_table
    points = load_table(path).checkpoints
    ts = [t for t, _ in points]
    increasing = all(a[0] < b[0] and a[1] < b[1]
                     for a, b in zip(points, points[1:]))
    es = [i - t * math.log(t / (2.0 * math.pi)) - (2.0 * EULER_GAMMA - 1) * t
          for t, i in points if t > 0]
    return {"count": len(points), "top": ts[-1], "increasing": increasing,
            "mean_E": math.fsum(es) / len(es) if es else None}


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    os.sched_setaffinity(0, req["cpus"])
    src = Path(req["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import zetaladder
    from zetaladder import cli, kernels
    if src not in Path(zetaladder.__file__).resolve().parents:
        print(f"zetaladder imported from {zetaladder.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if req.get("trace"):
        import layers
        from tracer import Tracer
        tracer = Tracer(req["run_id"])

    steps = []
    for step in req["steps"]:
        if "zl" in step:
            if tracer is not None and step.get("timed"):
                layers.install(tracer)
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            try:
                rc = cli.main(step["zl"])
            except Exception:
                traceback.print_exc()
                rc = -1
            finally:
                wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
                if tracer is not None:
                    tracer.restore()
            steps.append({"rc": rc, "wall": wall, "cpu": cpu})
        elif "calibration" in step:
            from zetaladder.ladder import LadderConfig, save_calibration
            from zetaladder.quadrature import SecondMomentTable
            save_calibration(step["calibration"],
                             LadderConfig(c0=step["c0"]),
                             SecondMomentTable(), step["anchors"])
            steps.append({"rc": 0})
        elif "table" in step:
            try:
                steps.append({"rc": 0, **_table_summary(step["table"])})
            except Exception as exc:
                steps.append({"rc": -1, "error": repr(exc)})

    resp = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.backend_name(),
        "cpu_count": os.cpu_count(),
    }
    if tracer is not None:
        resp["layers"] = layers.metrics(tracer)
        resp["untraced"] = tracer.missing
        with open(req["spans_path"], "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    Path(req["response"]).write_text(json.dumps(resp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
