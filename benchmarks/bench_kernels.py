"""Timing and agreement check for the main-sum kernel backends.

Imports both implementations directly (bypassing the import-time selection)
and times the same workload on each: batches of Z main-sum evaluations at a
few heights, sized like the quadrature's panel batches.  Reports per-call
time, speedup, and the maximum absolute difference between backends.

Run from the repo root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --heights 1e4,1e6 --size 4096
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from zetaladder import _tables, _zkern_py
from zetaladder.special import _theta_reduced

try:
    from zetaladder import _zkern
except ImportError:
    _zkern = None


def run_backend(impl, ts: np.ndarray, thetas: np.ndarray, order: int,
                repeats: int) -> tuple[float, np.ndarray]:
    nmax = int(np.sqrt(float(ts.max()) / _zkern_py.TWO_PI)) + 1
    ln_n = _tables.ln_n(nmax)
    ln_n_lo = _tables.ln_n_lo(nmax)
    rsqrt_n = _tables.rsqrt_n(nmax)
    out = np.empty_like(ts)
    impl.z_main_sum(ts, thetas, ln_n, ln_n_lo, rsqrt_n, order, out)  # warm
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        impl.z_main_sum(ts, thetas, ln_n, ln_n_lo, rsqrt_n, order, out)
        best = min(best, time.perf_counter() - t0)
    return best, out.copy()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--heights", default="1e3,1e4,1e5,1e6",
                    help="comma list of t heights")
    ap.add_argument("--size", type=int, default=2048,
                    help="points per batch")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--order", type=int, default=1, choices=(0, 1))
    args = ap.parse_args()

    if _zkern is None:
        print("compiled backend not built; showing pure-python times only")
    heights = [float(h) for h in args.heights.split(",")]
    rng = np.random.default_rng(20260823)

    print(f"{'t':>10} {'terms':>7} {'python ms':>10} {'cython ms':>10} "
          f"{'speedup':>8} {'max diff':>10}")
    for t in heights:
        ts = np.sort(t + rng.uniform(0.0, 64.0, args.size))
        thetas = _theta_reduced(ts)
        py_s, py_out = run_backend(_zkern_py, ts, thetas, args.order,
                                   args.repeats)
        terms = int(math.sqrt(t / _zkern_py.TWO_PI))
        if _zkern is None:
            print(f"{t:10.0f} {terms:7d} {1e3 * py_s:10.3f} {'-':>10} "
                  f"{'-':>8} {'-':>10}")
            continue
        cy_s, cy_out = run_backend(_zkern, ts, thetas, args.order,
                                   args.repeats)
        diff = float(np.abs(py_out - cy_out).max())
        print(f"{t:10.0f} {terms:7d} {1e3 * py_s:10.3f} {1e3 * cy_s:10.3f} "
              f"{py_s / cy_s:8.2f} {diff:10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
