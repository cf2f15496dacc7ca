"""Acceptance battery for the release checklist.

Twelve numbered checks, each printing one PASS/FAIL line with its worst
measured figure before asserting.  The expensive shared pieces (the
(T, H, k) sweep and the thousand-point oracle sample) are module fixtures
so each is paid once.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from zetaladder import cli
from zetaladder import factorization as fz
from zetaladder import ladder as ld
from zetaladder.quadrature import adaptive_integrate, hl_moment, save_table, z2_values
from zetaladder.special import (em_zeta_half, riemann_siegel_z, z_phase,
                                z_phases)

GAMMA_1 = 14.134725141734695
SWEEP_TS = tuple(float(v) for v in np.geomspace(1.0e4, 1.0e5, 5))


def _verdict(record, n, ok, detail):
    record(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _oracle_z(t):
    return (z_phase(t) * em_zeta_half(t)).real


@pytest.fixture(scope="module")
def oracle_sample():
    rng = np.random.default_rng(2024)
    ts = np.sort(rng.uniform(50.0, 1.0e5, 1000))
    t0 = time.perf_counter()
    zs = riemann_siegel_z(ts).z
    rotated = z_phases(ts) * em_zeta_half(ts)
    elapsed = time.perf_counter() - t0
    return list(zip(ts.tolist(), zs.tolist(), rotated.tolist())), elapsed


@pytest.fixture(scope="module")
def sweep_reports(ladder_cfg, smtable):
    runs = {}
    for T in SWEEP_TS:
        for H in (1.5, 2.0):
            for k in (1, 2):
                runs[(T, H, k)] = fz.factorize(T, H, k, ladder_cfg, smtable)
    return runs


@pytest.fixture(scope="module")
def acc_cache(tmp_path_factory, smtable, ladder_cfg):
    from zetaladder.ladder import save_calibration
    cache = tmp_path_factory.mktemp("acc_cache")
    save_table(smtable, cache / "smtable.csv")
    save_calibration(cache / "calibration.txt", ladder_cfg, smtable,
                     [float(a) for a in np.geomspace(1e4, 1e5, 10)])
    return cache


def test_criterion_01_formula_matches_oracle(oracle_sample,
                                             record_criterion):
    rows, elapsed = oracle_sample
    worst = max(abs(z - w.real) / (2.0 * t ** -0.25) for t, z, w in rows)
    ok = worst <= 1.0 and elapsed < 60.0
    assert _verdict(record_criterion, 1, ok,
                    f"1000-point worst gap at {worst:.2e} of the t^(-1/4) "
                    f"budget, sample took {elapsed:.1f} s")


def test_criterion_02_rotated_oracle_is_real(oracle_sample,
                                             record_criterion):
    rows, _ = oracle_sample
    worst = max(abs(w.imag) for _, _, w in rows)
    ok = worst <= 1e-8
    assert _verdict(record_criterion, 2, ok,
                    f"worst |Im| of the rotated oracle {worst:.2e} "
                    "(budget 1e-8)")


def test_criterion_03_first_zero(record_criterion):
    lo, hi = 14.0, 14.2
    f_lo = _oracle_z(lo)
    assert f_lo * _oracle_z(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f_lo * _oracle_z(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = _oracle_z(lo)
    root = 0.5 * (lo + hi)
    z_here = abs(riemann_siegel_z(root).z)
    ok = abs(root - GAMMA_1) <= 1e-6 and z_here <= 2.0 * root ** -0.25
    assert _verdict(record_criterion, 3, ok,
                    f"zero at {root:.9f} (off by {abs(root - GAMMA_1):.1e})"
                    f", |Z| there {z_here:.2e}")


def test_criterion_04_moment_ratio_tightens(record_criterion):
    base = hl_moment(1.0e5, 2.0)
    in_band = 0.7 <= base.ratio <= 1.3

    def dev(T):
        offs = [abs(hl_moment(T * (1.0 + 0.003 * j), 2.0).ratio
                    - 1.0) for j in range(5)]
        return sum(offs) / len(offs)

    d4 = dev(1.0e4)
    d6 = dev(1.0e6)
    ok = in_band and d6 <= d4
    assert _verdict(record_criterion, 4, ok,
                    f"ratio(1e5) = {base.ratio:.4f}, mean deviation "
                    f"{d4:.4f} at 1e4 vs {d6:.4f} at 1e6")


def test_criterion_05_ladder_derivative(ladder_cfg, smtable,
                                        record_criterion):
    rng = np.random.default_rng(17)
    worst_raw = worst_comp = 0.0
    for t in rng.uniform(1.0e4, 1.0e5, 50):
        t = float(t)
        fd = ld.phi1(t + 0.5, ladder_cfg, smtable).phi1 \
            - ld.phi1(t - 0.5, ladder_cfg, smtable).phi1
        wavg = adaptive_integrate(
            lambda u, du: z2_values(u, dts=du) / np.log(u), t - 0.5,
            t + 0.5).value
        pred = math.log(t) / ld.moment_profile_slope(
            ld.phi1(t, ladder_cfg, smtable).phi1, ladder_cfg)
        worst_raw = max(worst_raw, abs(fd / wavg - 1.0))
        worst_comp = max(worst_comp, abs(fd / wavg - pred))
    ok = worst_raw <= 0.05 and worst_comp <= 1e-3
    assert _verdict(record_criterion, 5, ok,
                    f"50-point worst slope deviation {worst_raw:.4f} raw, "
                    f"{worst_comp:.2e} weight-compensated")


def test_criterion_06_complement_tracks_primes(ladder_cfg, smtable,
                                               pi_table, record_criterion):
    def ratio(T):
        pt = ld.phi1(T, ladder_cfg, smtable)
        return (T - pt.phi1) / ((1.0 - ld.EULER_C)
                                * ld.pi_count(T, pi_table))

    r4, r5 = ratio(1.0e4), ratio(1.0e5)
    ok = 0.6 <= r4 <= 1.4 and 0.6 <= r5 <= 1.4 \
        and abs(r5 - 1.0) <= abs(r4 - 1.0)
    assert _verdict(record_criterion, 6, ok,
                    f"complement ratio {r4:.4f} at 1e4, {r5:.4f} at 1e5")


def test_criterion_07_alpha_gaps(sweep_reports, ladder_cfg, pi_table,
                                 record_criterion):
    seq = sweep_reports[(1.0e5, 2.0, 2)].seq
    ratios = []
    for r in range(seq.k):
        unit = (1.0 - ld.EULER_C) \
            * ld.pi_count(seq.alphas[r], pi_table)
        ratios.append((seq.alphas[r + 1] - seq.alphas[r]) / unit)
    ok = all(0.6 <= g <= 1.4 for g in ratios)
    assert _verdict(record_criterion, 7, ok,
                    "alpha gaps over the prime-count unit: "
                    + ", ".join(f"{g:.3f}" for g in ratios))


def test_criterion_08_chains_strict_everywhere(sweep_reports, ladder_cfg,
                                               smtable, record_criterion):
    good = 0
    for (T, H, k), rep in sweep_reports.items():
        seq = rep.seq
        pts = (T, seq.eta) + seq.alphas
        strict = all(u < v for u, v in zip(pts, pts[1:])) \
            and seq.eta < seq.alphas[0] < seq.eta + H
        links = all(
            abs(ld.phi1(seq.alphas[r + 1], ladder_cfg, smtable).phi1
                - seq.alphas[r]) <= 1e-6 * seq.alphas[r]
            for r in range(k))
        clear = all(abs(em_zeta_half(a)) > fz.ZERO_THRESHOLD
                    for a in seq.alphas)
        good += strict and links and clear
    ok = good == len(sweep_reports) == 20
    assert _verdict(record_criterion, 8, ok,
                    f"{good}/{len(sweep_reports)} sweep chains strictly "
                    "ordered, linked and clear of zeros")


def test_criterion_09_ratio_stabilizes(sweep_reports, ladder_cfg, smtable,
                                       record_criterion):
    mid = fz.factorize(3.0e4, 2.0, 1, ladder_cfg, smtable)
    ratios = [sweep_reports[(1.0e4, 2.0, 1)].ratio, mid.ratio,
              sweep_reports[(1.0e5, 2.0, 1)].ratio]
    logs = [abs(math.log(r)) for r in ratios]
    ok = 0.4 <= ratios[-1] <= 2.5 and logs[1] <= logs[0] \
        and logs[2] <= logs[1]
    assert _verdict(record_criterion, 9, ok,
                    "|ln ratio| along T = 1e4, 3e4, 1e5: "
                    + ", ".join(f"{v:.5f}" for v in logs))


def test_criterion_10_metamorphosis(sweep_reports, record_criterion):
    worst = max(rep.metamorphosis_residual / (10.0 * T ** -0.25)
                for (T, H, k), rep in sweep_reports.items())
    ok = worst <= 1.0
    assert _verdict(record_criterion, 10, ok,
                    f"worst metamorphosis residual at {worst:.2e} of its "
                    "10 T^(-1/4) budget")


def test_criterion_11_closed_forms_exact(record_criterion):
    sqrt_two_pi = math.sqrt(2.0 * math.pi)
    target = 10.0 * sqrt_two_pi
    lam_a = fz.lambda_factor(4.0, 2.0, 1, math.exp(10.0))
    lam_ok = fz.lambda_factor(1.0, 1.0, 1, math.e) == sqrt_two_pi \
        and abs(lam_a - target) <= 4.0 * math.ulp(target)
    spec = fz.local_spectrum(8.0 * math.pi)
    spec_ok = [e.n for e in spec] == [1, 2] \
        and spec[0].omega == math.log(2.0) and spec[1].omega == 0.0
    ok = lam_ok and spec_ok
    assert _verdict(record_criterion, 11, ok,
                    f"normalization off by {abs(lam_a - target):.1e}, "
                    "four-term spectrum bit-exact "
                    f"{[e.omega for e in spec]}")


def test_criterion_12_deterministic_output(acc_cache, tmp_path,
                                           record_criterion):
    outs = [tmp_path / f"sweep{i}.csv" for i in range(3)]
    for out, workers in zip(outs, ("1", "2", "2")):
        rc = cli.main(["factorize", "--sweep", "T=10000:20000:3", "--H",
                       "2", "--k", "1", "--workers", workers, "--out",
                       str(out), "--cache-dir", str(acc_cache)])
        assert rc == 0
    blobs = [out.read_bytes() for out in outs]
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _verdict(record_criterion, 12, ok,
                    "sweep bytes identical across 1 and 2 workers and a "
                    f"rerun ({len(blobs[0])} bytes)")
