"""Tests for the benchmark's span tracer and its zetaladder layer map.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _union(intervals):
    total, hi = 0.0, -float("inf")
    for a, b in sorted(intervals):
        a = max(a, hi)
        if b > a:
            total += b - a
        hi = max(hi, b)
    return total


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [Span(1, "ensure", "r", 0.0, 10.0, None, 1),
             Span(2, "seg", "r", 1.0, 5.0, 1, 2),
             Span(3, "seg", "r", 3.0, 8.0, 1, 3),
             Span(4, "kernel", "r", 2.0, 4.0, 2, 2)]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 7.0          # [1, 8] covered once, not 9
    assert selfs[2] == 4.0 - 2.0
    assert selfs[3] == 5.0
    assert selfs[4] == 2.0


def test_pool_spans_take_the_submitting_span_as_parent():
    tracer = Tracer("run-1")
    mod = types.ModuleType("fake_layer")
    start = threading.Barrier(2)

    def inner(delay):
        start.wait(timeout=5)              # both workers overlap in time
        time.sleep(delay)
        return delay

    def outer():
        with mod.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.inner, [0.02, 0.03]))

    mod.inner, mod.outer = inner, outer
    mod.ThreadPoolExecutor = tracer.executor_class()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer() == [0.02, 0.03]

    [top] = [s for s in tracer.spans if s.name == "outer"]
    kids = [s for s in tracer.spans if s.name == "inner"]
    assert len(kids) == 2 and all(k.parent == top.id for k in kids)
    assert len({k.thread for k in kids}) == 2
    assert all(s.run == "run-1" for s in tracer.spans)
    want = (top.end - top.start) - _union([(k.start, k.end) for k in kids])
    assert abs(self_times(tracer.spans)[top.id] - want) < 1e-12
    # the children overlapped, so summing them would undercount self time
    assert want > (top.end - top.start) - sum(k.end - k.start for k in kids)


def test_restore_puts_back_every_wrapped_attribute():
    from zetaladder import quadrature, special

    tracer = Tracer("run-2")
    layers.install(tracer)
    patched = [(owner, attr) for owner, attr, _ in tracer._patched]
    originals = [raw for _, _, raw in tracer._patched]
    assert tracer.missing == []
    assert all(vars(o)[a] is not raw
               for (o, a), raw in zip(patched, originals))

    ts = np.array([1000.0, 2000.0, 3000.0])
    special.riemann_siegel_z_values(ts)
    quadrature.z_chain(1000.0, 1001.0).prefix(ts[:1] + 0.5)
    tracer.restore()
    assert all(vars(o)[a] is raw for (o, a), raw in zip(patched, originals))

    got = layers.metrics(tracer)
    assert got["kernels.calls"] == 2
    assert got["quadrature.chain.builds"] == 1
    assert got["quadrature.chain.prefix_points"] == 1
    chain_nodes = got["quadrature.chain.nodes"]
    assert got["kernels.points"] == 3 + chain_nodes
    assert got["kernels.terms"] == sum(int(np.sqrt(t / (2 * np.pi)))
                                       for t in ts) + 12 * chain_nodes
    [first, _] = [s for s in tracer.spans if s.name == "special.rs_values"]
    [kernel, _] = [s for s in tracer.spans
                   if s.name == "kernels.z_main_sum"]
    assert kernel.parent == first.id


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    emitted = set(layers.metrics(Tracer("empty"))) | {"trace.overhead_s"}
    assert emitted == {n for n, _, _ in declared}
