"""zetaladder's layers as the traced benchmark run sees them.

`install` wraps the public functions of each layer at every attribute its
callers look up; `metrics` turns the recorded spans and counts into the
per-layer metrics.  PER_LAYER lists those metrics with the end-to-end metric
and workload each one should move, so an issue can cite them by name.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from math import fsum
from typing import Dict, List

import numpy as np

from tracer import Tracer, self_times

TWO_PI = 2.0 * math.pi

# (name, unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = [
    ("kernels.calls", "count", "lower",
     "wall_s on all three; setup_s on factorize-warm"),
    ("kernels.points", "count", "lower",
     "wall_s on all three; setup_s on factorize-warm"),
    ("kernels.terms", "count", "lower",
     "wall_s on all three; setup_s on factorize-warm"),
    ("kernels.s", "s", "lower",
     "wall_s on all three; setup_s on factorize-warm"),
    ("kernels.ns_per_term", "ns", "lower",
     "wall_s on all three; setup_s on factorize-warm"),
    ("kernels.points_per_call", "count", "higher",
     "wall_s on factorize-warm, where per-call overhead dominates"),
    ("special.rs_values.calls", "count", "lower", "wall_s on table-cold"),
    ("special.rs_values.self_s", "s", "lower", "wall_s on table-cold"),
    ("special.rs_scalar.calls", "count", "lower", "wall_s on factorize-warm"),
    ("special.oracle.calls", "count", "lower", "wall_s on factorize-warm"),
    ("special.oracle.s", "s", "lower", "wall_s on factorize-warm"),
    ("quadrature.adaptive.calls", "count", "lower",
     "wall_s on table-cold, factorize-warm"),
    ("quadrature.adaptive.evals", "count", "lower",
     "wall_s on table-cold, factorize-warm"),
    ("quadrature.adaptive.evals_per_call", "count", "lower",
     "wall_s on table-cold, factorize-warm"),
    ("quadrature.adaptive.self_s", "s", "lower", "wall_s on moment-2e5"),
    ("quadrature.chain.builds", "count", "lower", "wall_s on moment-2e5"),
    ("quadrature.chain.nodes", "count", "lower", "wall_s on moment-2e5"),
    ("quadrature.chain.prefix_calls", "count", "lower",
     "wall_s on moment-2e5"),
    ("quadrature.chain.prefix_points", "count", "lower",
     "wall_s on moment-2e5"),
    ("quadrature.chain.prefix_s", "s", "lower", "wall_s on moment-2e5"),
    ("quadrature.table.segments_added", "count", "lower",
     "wall_s on table-cold; must be 0 on factorize-warm"),
    ("quadrature.table.ensure_s", "s", "lower", "wall_s on table-cold"),
    ("quadrature.cumI.calls", "count", "lower", "wall_s on factorize-warm"),
    ("quadrature.cumI.tail_tunits", "t_units", "lower",
     "wall_s on factorize-warm"),
    ("quadrature.cumI.s", "s", "lower", "wall_s on factorize-warm"),
    ("ladder.phi1.calls", "count", "lower", "wall_s on factorize-warm"),
    ("ladder.phi1_inverse.calls", "count", "lower",
     "wall_s on factorize-warm"),
    ("ladder.phi1_inverse.s", "s", "lower", "wall_s on factorize-warm"),
    ("ladder.root_fevals", "count", "lower", "wall_s on factorize-warm"),
    ("ladder.invert_profile.calls", "count", "lower",
     "wall_s on factorize-warm"),
    ("factorization.jobs", "count", "lower",
     "wall_s and cpu_s on factorize-warm"),
    ("factorization.job_p50_s", "s", "lower",
     "wall_s and cpu_s on factorize-warm"),
    ("factorization.self_s", "s", "lower",
     "wall_s and cpu_s on factorize-warm"),
    ("factorization.root_fevals", "count", "lower",
     "wall_s and cpu_s on factorize-warm"),
    ("cli.self_s", "s", "lower",
     "setup_s and wall_s on table-cold, factorize-warm"),
    ("cli.table_load_s", "s", "lower",
     "setup_s and wall_s on table-cold, factorize-warm"),
    ("cli.table_save_s", "s", "lower",
     "setup_s and wall_s on table-cold, factorize-warm"),
    ("cli.table_bytes", "bytes", "lower",
     "setup_s, wall_s and peak_rss_mb on table-cold, factorize-warm"),
    ("trace.overhead_s", "s", "lower",
     "nothing: traced wall_s minus the untraced median"),
]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _with_arg(args: tuple, kwargs: dict, pos: int, name: str, value):
    if len(args) > pos:
        return args[:pos] + (value,) + args[pos + 1:], kwargs
    return args, {**kwargs, name: value}


def install(t: Tracer) -> None:
    """Wrap every traced function of zetaladder; undo with t.restore()."""
    from zetaladder import (cli, factorization, kernels, ladder, quadrature,
                            special)
    from zetaladder.quadrature import PanelChain, SecondMomentTable

    def kernel(fn, args, kwargs):
        ts = np.asarray(_arg(args, kwargs, 0, "ts"), dtype=np.float64)
        t.count("kernels.points", ts.size)
        t.count("kernels.terms", int(np.floor(np.sqrt(ts / TWO_PI)).sum()))
        return fn(*args, **kwargs)

    def adaptive(fn, args, kwargs):
        res = fn(*args, **kwargs)
        t.count("quadrature.adaptive.evals", res.neval)
        return res

    def chain_build(fn, args, kwargs):      # args[0] is the class
        fvec = _arg(args, kwargs, 3, "fvec")

        def counted(ts):
            t.count("quadrature.chain.nodes", np.size(ts))
            return fvec(ts)

        args, kwargs = _with_arg(args, kwargs, 3, "fvec", counted)
        return fn(*args, **kwargs)

    def prefix(fn, args, kwargs):
        t.count("quadrature.chain.prefix_points",
                np.size(_arg(args, kwargs, 1, "t")))
        return fn(*args, **kwargs)

    def ensure(fn, args, kwargs):
        table = args[0]
        before = table.top
        try:
            return fn(*args, **kwargs)
        finally:
            t.count("quadrature.table.segments_added",
                    round((table.top - before) / table.STRIDE))

    def cumulative(fn, args, kwargs):
        res = fn(*args, **kwargs)
        T = float(_arg(args, kwargs, 0, "T"))
        table = _arg(args, kwargs, 1, "table")
        t.count("quadrature.cumI.tail_tunits", T - table.value_at(T)[0])
        return res

    def saved(fn, args, kwargs):
        res = fn(*args, **kwargs)
        t.peak("cli.table_bytes", os.path.getsize(_arg(args, kwargs, 1,
                                                       "path")))
        return res

    def root_counter(key):
        def around(fn, args, kwargs):
            f = _arg(args, kwargs, 0, "f")

            def counted(*a, **k):
                t.count(key)
                return f(*a, **k)

            args, kwargs = _with_arg(args, kwargs, 0, "f", counted)
            return fn(*args, **kwargs)
        return around

    t.wrap(cli, "main", "cli.main")
    t.wrap(kernels, "z_main_sum", "kernels.z_main_sum", kernel)
    t.wrap(special, "riemann_siegel_z_values", "special.rs_values")
    for mod in (special, cli, ladder, factorization):
        t.wrap(mod, "riemann_siegel_z", "special.rs_scalar")
    for mod in (special, cli, factorization):
        t.wrap(mod, "em_zeta_half", "special.oracle")
    for mod in (quadrature, factorization):
        t.wrap(mod, "adaptive_integrate", "quadrature.adaptive", adaptive)
    t.wrap(PanelChain, "build", "quadrature.chain.build", chain_build)
    t.wrap(PanelChain, "prefix", "quadrature.chain.prefix", prefix)
    t.wrap(SecondMomentTable, "ensure", "quadrature.table.ensure", ensure)
    for mod in (quadrature, ladder, factorization):
        t.wrap(mod, "cumulative_I", "quadrature.cumI", cumulative)
    for mod in (quadrature, cli):
        t.wrap(mod, "hl_moment", "quadrature.hl_moment")
    t.wrap(cli, "load_table", "quadrature.load_table")
    t.wrap(cli, "save_table", "quadrature.save_table", saved)
    for mod in (ladder, factorization):
        t.wrap(mod, "phi1", "ladder.phi1")
        t.wrap(mod, "invert_profile", "ladder.invert_profile")
    t.wrap(ladder, "phi1_inverse", "ladder.phi1_inverse")
    t.wrap(ladder, "brentq", "ladder.brentq", root_counter("ladder.root_fevals"))
    t.wrap(factorization, "factorize", "factorization.factorize")
    t.wrap(factorization, "phi1_iterates", "factorization.phi1_iterates")
    t.wrap(factorization, "z_chain", "factorization.z_chain")
    t.wrap(factorization, "z2_chain", "factorization.z2_chain")
    t.wrap(factorization, "brentq", "factorization.brentq",
           root_counter("factorization.root_fevals"))
    for mod in (quadrature, cli):
        if "ThreadPoolExecutor" in vars(mod):
            t.replace(mod, "ThreadPoolExecutor",
                      t.executor_class(mod.ThreadPoolExecutor))


def metrics(t: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one traced run, except trace.overhead_s."""
    selfs = self_times(t.spans)
    by_name: Dict[str, List] = defaultdict(list)
    for s in t.spans:
        by_name[s.name].append(s)

    def calls(name: str) -> int:
        return len(by_name[name])

    def total_s(name: str) -> float:
        return fsum(s.end - s.start for s in by_name[name])

    def self_s(name: str) -> float:
        return fsum(selfs[s.id] for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    count = t.counts.get
    k_calls, k_terms = calls("kernels.z_main_sum"), count("kernels.terms", 0)
    a_calls = calls("quadrature.adaptive")
    jobs = [s.end - s.start for s in by_name["factorization.factorize"]]
    return {
        "kernels.calls": k_calls,
        "kernels.points": count("kernels.points", 0),
        "kernels.terms": k_terms,
        "kernels.s": total_s("kernels.z_main_sum"),
        "kernels.ns_per_term": ratio(1e9 * total_s("kernels.z_main_sum"),
                                     k_terms),
        "kernels.points_per_call": ratio(count("kernels.points", 0), k_calls),
        "special.rs_values.calls": calls("special.rs_values"),
        "special.rs_values.self_s": self_s("special.rs_values"),
        "special.rs_scalar.calls": calls("special.rs_scalar"),
        "special.oracle.calls": calls("special.oracle"),
        "special.oracle.s": total_s("special.oracle"),
        "quadrature.adaptive.calls": a_calls,
        "quadrature.adaptive.evals": count("quadrature.adaptive.evals", 0),
        "quadrature.adaptive.evals_per_call": ratio(
            count("quadrature.adaptive.evals", 0), a_calls),
        "quadrature.adaptive.self_s": self_s("quadrature.adaptive"),
        "quadrature.chain.builds": calls("quadrature.chain.build"),
        "quadrature.chain.nodes": count("quadrature.chain.nodes", 0),
        "quadrature.chain.prefix_calls": calls("quadrature.chain.prefix"),
        "quadrature.chain.prefix_points": count(
            "quadrature.chain.prefix_points", 0),
        "quadrature.chain.prefix_s": total_s("quadrature.chain.prefix"),
        "quadrature.table.segments_added": count(
            "quadrature.table.segments_added", 0),
        "quadrature.table.ensure_s": total_s("quadrature.table.ensure"),
        "quadrature.cumI.calls": calls("quadrature.cumI"),
        "quadrature.cumI.tail_tunits": count("quadrature.cumI.tail_tunits",
                                             0),
        "quadrature.cumI.s": total_s("quadrature.cumI"),
        "ladder.phi1.calls": calls("ladder.phi1"),
        "ladder.phi1_inverse.calls": calls("ladder.phi1_inverse"),
        "ladder.phi1_inverse.s": total_s("ladder.phi1_inverse"),
        "ladder.root_fevals": count("ladder.root_fevals", 0),
        "ladder.invert_profile.calls": calls("ladder.invert_profile"),
        "factorization.jobs": len(jobs),
        "factorization.job_p50_s": statistics.median(jobs) if jobs else 0.0,
        "factorization.self_s": self_s("factorization.factorize"),
        "factorization.root_fevals": count("factorization.root_fevals", 0),
        "cli.self_s": self_s("cli.main"),
        "cli.table_load_s": total_s("quadrature.load_table"),
        "cli.table_save_s": total_s("quadrature.save_table"),
        "cli.table_bytes": count("cli.table_bytes", 0),
    }
