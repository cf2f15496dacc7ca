"""Ladder inversion, iterates, prime counting and calibration.

The complement relation carries a systematic drift across the desk range,
so calibration comparisons here always use balanced anchor splits; sparse
or one-sided splits measure the drift, not the fit.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder import ladder as ld
from zetaladder.errors import (CalibrationError, DomainError,
                               PrecisionError, RangeError,
                               TableIntegrityError)
from zetaladder.quadrature import (KEY, adaptive_integrate, cumulative_I,
                                   write_artifact, z2_values)

EULER_C = 0.5772156649015329


def _small_primes(n: int) -> int:
    count = 0
    for m in range(2, n + 1):
        if all(m % p for p in range(2, int(math.isqrt(m)) + 1)):
            count += 1
    return count


class TestConstants:
    def test_euler_constant_value(self):
        assert ld.euler_constant() == pytest.approx(EULER_C, abs=1e-12)

    def test_euler_constant_needs_terms(self):
        with pytest.raises(DomainError):
            ld.euler_constant(4)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ld.LadderConfig(c0=math.inf)

    def test_point_exposes_doubled_value(self):
        pt = ld.LadderPoint(T=10.0, phi1=4.0, residual=0.0)
        assert pt.phi == 8.0


class TestZtildeSq:
    """The ladder's derivative Z~^2(t) = Z^2(t) / ln t."""

    def test_vanishes_at_a_zero(self):
        # refine around the smallest sample just above 1e4; a true zero of
        # Z sits inside the refined window
        ts = np.arange(1.0e4, 1.0e4 + 2.0, 0.01)
        zs = z2_values(ts) / np.log(ts)
        i = int(np.argmin(zs))
        lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, len(ts) - 1)])
        grid = np.linspace(lo, hi, 4001)
        assert float((z2_values(grid) / np.log(grid)).min()) < 1e-4

    def test_window_integral_matches_ladder_increment(self, ladder_cfg,
                                                      smtable):
        lhs = adaptive_integrate(
            lambda ts, dts: z2_values(ts, dts=dts) / np.log(ts), 1.0e4,
            1.0e4 + 100.0).value
        rhs = ld.phi1(1.0e4 + 100.0, ladder_cfg, smtable).phi1 \
            - ld.phi1(1.0e4, ladder_cfg, smtable).phi1
        # the leading-log weight undercounts by a few percent at this height
        assert lhs / rhs == pytest.approx(1.0, abs=0.05)


def _brackets(n: int):
    """(f, a, b) with one sign change in [a, b]: smooth, steep, flat-tailed
    and oscillating roots, like the eta and beta searches."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(n):
        c, r = rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5)
        a, b = r - rng.uniform(0.01, 1.5), r + rng.uniform(0.01, 1.5)
        f = (lambda x, c=c, r=r: math.sin(c * (x - r)),
             lambda x, c=c, r=r: (x - r) ** 3 + 1e-3 * c * (x - r),
             lambda x, c=c, r=r: math.atan(200.0 * c * (x - r)),
             lambda x, c=c, r=r: math.expm1(c * (x - r)) - 0.1 * (x - r),
             lambda x, c=c, r=r: (x - r) + 1e-3 * math.sin(80.0 * c * x)
             - 1e-3 * math.sin(80.0 * c * r))[i % 5]
        out.append((f, a, b))
    return out


class TestBrentq:
    @pytest.mark.parametrize("tol", [dict(xtol=1e-8),
                                     dict(xtol=1e-14, rtol=8.9e-16)])
    def test_matches_reference_bit_for_bit(self, tol):
        so = pytest.importorskip("scipy.optimize")
        for f, a, b in _brackets(200):
            want = so.brentq(f, a, b, **tol)
            got = ld.brentq(f, a, b, **tol)
            assert got == want and type(got) is float, (a, b)

    def test_root_within_tolerance(self):
        root = ld.brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-14,
                         rtol=8.9e-16)
        assert abs(root - math.sqrt(2.0)) <= 1e-14 + 8.9e-16 * root

    def test_endpoint_root_returned(self):
        assert ld.brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert ld.brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_one_signed_bracket_is_range_error(self):
        # exit 2 from the CLI, where scipy's ValueError was a traceback
        with pytest.raises(RangeError, match="one sign"):
            ld.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        assert issubclass(RangeError, DomainError)

    def test_no_convergence_is_precision_error(self):
        # exit 4 from the CLI, where scipy's RuntimeError was a traceback
        with pytest.raises(PrecisionError, match="3 steps") as info:
            ld.brentq(math.atan, -1.0, 3.0, xtol=1e-15, maxiter=3)
        assert -1.0 <= info.value.estimate <= 3.0

    def test_nan_value_is_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            ld.brentq(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0)


class TestInvertProfile:
    def test_batch_matches_each_point_alone(self):
        # c0 near its calibrated value: at c0 = 0 these targets stop on the
        # same step whether the rule is per point or over the whole batch
        cfg = ld.LadderConfig(c0=1428.14)
        rng = np.random.default_rng(11)
        targets = np.concatenate((rng.uniform(1.0e4, 2.0e5, 200),
                                  rng.uniform(2.0e3, 5.0e3, 200)))
        batch = ld.invert_profile(targets, cfg)
        alone = np.array([ld.invert_profile(targets[i:i + 1], cfg)[0]
                          for i in range(targets.size)])
        assert np.array_equal(batch, alone)


class TestPhi1:
    def test_defining_equation_residual(self, ladder_cfg, smtable):
        from zetaladder.quadrature import cumulative_I
        for T in (1.0e4, 3.7e4, 1.0e5):
            pt = ld.phi1(T, ladder_cfg, smtable)
            target = cumulative_I(T, smtable)
            back = ld.moment_profile(pt.phi1, ladder_cfg)
            assert abs(back - target) <= 1e-6 * abs(target)
            assert pt.residual == pytest.approx(back - target, abs=1e-9)

    def test_stays_below_t(self, ladder_cfg, smtable):
        for T in (1.0e4, 1.0e5):
            pt = ld.phi1(T, ladder_cfg, smtable)
            assert 0.0 < pt.phi1 < T

    def test_complement_ratio_at_1e5(self, ladder_cfg, smtable, pi_table):
        T = 1.0e5
        pt = ld.phi1(T, ladder_cfg, smtable)
        ratio = (T - pt.phi1) / ((1.0 - ld.EULER_C)
                                 * ld.pi_count(T, pi_table))
        assert 0.7 <= ratio <= 1.3

    def test_monotone_in_t(self, ladder_cfg, smtable):
        vals = [ld.phi1(float(T), ladder_cfg, smtable).phi1
                for T in np.linspace(1.0e4, 1.1e4, 12)]
        assert all(u <= v for u, v in zip(vals, vals[1:]))

    def test_uncalibrated_small_t_fails(self, ladder_cfg, smtable):
        with pytest.raises(CalibrationError):
            ld.phi1(50.0, ladder_cfg, smtable)

    def test_nonpositive_t_rejected(self, ladder_cfg, smtable):
        with pytest.raises(DomainError):
            ld.phi1(0.5, ladder_cfg, smtable)

    def test_derivative_by_finite_differences(self, ladder_cfg, smtable):
        # FD of phi1 equals the window average of Z^2 / ln up to the
        # leading-log weight truncation; compensating by the profile slope
        # pins the match to the solver tolerance
        rng = np.random.default_rng(11)
        for t in rng.uniform(1.0e4, 1.0e5, 8):
            t = float(t)
            fd = ld.phi1(t + 0.5, ladder_cfg, smtable).phi1 \
                - ld.phi1(t - 0.5, ladder_cfg, smtable).phi1
            wavg = adaptive_integrate(
                lambda u, du: z2_values(u, dts=du) / np.log(u), t - 0.5,
                t + 0.5).value
            pred = math.log(t) / ld.moment_profile_slope(
                ld.phi1(t, ladder_cfg, smtable).phi1, ladder_cfg)
            assert fd / wavg == pytest.approx(pred, abs=1e-3)
            assert fd / wavg == pytest.approx(1.0, abs=0.05)


class TestPhi1Inverse:
    def test_round_trip_batch(self, ladder_cfg, smtable):
        rng = np.random.default_rng(23)
        for x in rng.uniform(1.0e4, 1.0e5, 100):
            x = float(x)
            y = ld.phi1_inverse(x, ladder_cfg, smtable)
            assert y > x
            assert abs(ld.phi1(y, ladder_cfg, smtable).phi1 - x) <= 1e-6 * x

    def test_gap_tracks_prime_count(self, ladder_cfg, smtable, pi_table):
        x = 1.0e5
        y = ld.phi1_inverse(x, ladder_cfg, smtable)
        gap = (y - x) / ((1.0 - ld.EULER_C)
                         * ld.pi_count(x, pi_table))
        assert 0.7 <= gap <= 1.3

    def test_strictly_increasing(self, ladder_cfg, smtable):
        grid = np.linspace(2.0e4, 2.1e4, 9)
        vals = [ld.phi1_inverse(float(x), ladder_cfg, smtable)
                for x in grid]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_floor_rejected(self, ladder_cfg, smtable):
        with pytest.raises(DomainError):
            ld.phi1_inverse(900.0, ladder_cfg, smtable)

    def test_no_preimage_above_x(self, ladder_cfg, smtable):
        x = 2.0e4
        low = ld.LadderConfig(c0=ladder_cfg.c0 - 2.0e4)
        assert cumulative_I(x, smtable) > ld.moment_profile(x, low)
        with pytest.raises(RangeError, match="no preimage above x"):
            ld.phi1_inverse(x, low, smtable)


class TestPhi1Iterates:
    def test_zero_iterations(self, ladder_cfg, smtable):
        assert ld.phi1_iterates(5.0e4, 0, ld.IterateDirection.FORWARD,
                                ladder_cfg, smtable) == [5.0e4]

    def test_chain_length_and_direction(self, ladder_cfg, smtable):
        fwd = ld.phi1_iterates(1.0e5, 2, ld.IterateDirection.FORWARD,
                               ladder_cfg, smtable)
        inv = ld.phi1_iterates(1.0e5, 2, ld.IterateDirection.INVERSE,
                               ladder_cfg, smtable)
        assert len(fwd) == len(inv) == 3
        assert fwd[0] > fwd[1] > fwd[2]
        assert inv[0] < inv[1] < inv[2]

    def test_forward_then_inverse_round_trip(self, ladder_cfg, smtable):
        t = 5.0e4
        down = ld.phi1_iterates(t, 2, ld.IterateDirection.FORWARD,
                                ladder_cfg, smtable)
        back = ld.phi1_iterates(down[-1], 2, ld.IterateDirection.INVERSE,
                                ladder_cfg, smtable)
        assert back[-1] == pytest.approx(t, rel=1e-5)

    def test_inverse_gaps_track_prime_count(self, ladder_cfg, smtable,
                                            pi_table):
        t = 1.0e5
        chain = ld.phi1_iterates(t, 2, ld.IterateDirection.INVERSE,
                                 ladder_cfg, smtable)
        unit = (1.0 - ld.EULER_C) * ld.pi_count(t, pi_table)
        for gap in np.diff(chain):
            assert 0.7 <= gap / unit <= 1.3

    def test_forward_fall_names_failing_index(self, ladder_cfg, smtable):
        with pytest.raises(RangeError) as err:
            ld.phi1_iterates(1100.0, 2, ld.IterateDirection.FORWARD,
                             ladder_cfg, smtable)
        assert "iterate 1 of 2" in str(err.value)

    def test_inverse_below_floor_names_index(self, ladder_cfg, smtable):
        with pytest.raises(RangeError) as err:
            ld.phi1_iterates(900.0, 1, ld.IterateDirection.INVERSE,
                             ladder_cfg, smtable)
        assert "iterate 1 of 1" in str(err.value)

    def test_bad_arguments(self, ladder_cfg, smtable):
        with pytest.raises(DomainError):
            ld.phi1_iterates(1.0e4, -1, ld.IterateDirection.FORWARD,
                             ladder_cfg, smtable)
        with pytest.raises(DomainError):
            ld.phi1_iterates(1.0e4, 1, "forward", ladder_cfg, smtable)


class TestPrimePi:
    def test_small_values(self, pi_table):
        assert ld.pi_count(10, pi_table) == 4
        assert ld.pi_count(100, pi_table) == 25
        assert ld.pi_count(2, pi_table) == 1

    def test_million(self, pi_table):
        assert ld.pi_count(1_000_000, pi_table) == 78498

    def test_floor_semantics(self, pi_table):
        assert ld.pi_count(10.9, pi_table) == ld.pi_count(10, pi_table)

    def test_bounds(self, pi_table):
        with pytest.raises(DomainError):
            ld.pi_count(1, pi_table)
        with pytest.raises(RangeError):
            ld.pi_count(pi_table.limit + 1, pi_table)

    def test_nondecreasing(self, pi_table):
        counts = pi_table.counts[:10_000]
        assert np.all(np.diff(counts) >= 0)

    @given(st.integers(min_value=2, max_value=800))
    @settings(max_examples=30, deadline=None)
    def test_matches_trial_division(self, pi_table, n):
        assert ld.pi_count(n, pi_table) == _small_primes(n)

    def test_build_limit_validation(self):
        with pytest.raises(DomainError):
            ld.PrimePiTable.build(1)


class TestCalibration:
    def test_residuals_shrink_with_more_anchors(self, smtable, pi_table):
        cfg = ld.LadderConfig()

        def rms(anchors):
            offs = ld.calibration_offsets(anchors, cfg, smtable, pi_table)
            c0 = sum(offs) / len(offs)
            return math.sqrt(sum((c0 - v) ** 2 for v in offs) / len(offs))

        assert rms(list(np.geomspace(1e4, 1e5, 10))) \
            < rms(list(np.geomspace(1e4, 1e5, 3)))

    def test_stable_across_disjoint_anchor_sets(self, smtable, pi_table):
        # balanced interleaves of one log grid (indices 0,3,4,7,... vs
        # 1,2,5,6,...): disjoint, same span, same mean log position, so the
        # per-anchor drift of the complement relation cancels instead of
        # being sampled with a one-step phase shift
        cfg = ld.LadderConfig()
        grid = np.geomspace(1e4, 1e5, 24)
        set_a = [float(g) for i, g in enumerate(grid) if i % 4 in (0, 3)]
        set_b = [float(g) for i, g in enumerate(grid) if i % 4 in (1, 2)]
        offs_a = ld.calibration_offsets(set_a, cfg, smtable, pi_table)
        offs_b = ld.calibration_offsets(set_b, cfg, smtable, pi_table)
        c_a = sum(offs_a) / len(offs_a)
        c_b = sum(offs_b) / len(offs_b)
        assert abs(c_a - c_b) / abs(c_a) < 0.05

    def test_offset_c0_breaks_complement_ratio(self, ladder_cfg, smtable,
                                               pi_table):
        cfg_off = ld.LadderConfig(c0=ladder_cfg.c0 + 1e3)
        T = 1.0e4
        pt = ld.phi1(T, cfg_off, smtable)
        ratio = (T - pt.phi1) / ((1.0 - ld.EULER_C)
                                 * ld.pi_count(T, pi_table))
        assert not 0.7 <= ratio <= 1.3

    def test_writes_config(self, smtable):
        cfg = ld.LadderConfig()
        c0 = ld.calibrate_c0(list(np.geomspace(1e4, 1e5, 5)), cfg, smtable)
        assert cfg.c0 == c0 and math.isfinite(c0)

    def test_needs_enough_spread(self, smtable):
        cfg = ld.LadderConfig()
        with pytest.raises(CalibrationError):
            ld.calibrate_c0([1e4, 2e4], cfg, smtable)
        with pytest.raises(CalibrationError):
            ld.calibrate_c0([3e4, 4e4, 5e4], cfg, smtable)

    def test_artifact_round_trip(self, tmp_path, ladder_cfg, smtable):
        path = tmp_path / "calibration.txt"
        anchors = [1.0e4, 3.0e4, 1.0e5]
        ld.save_calibration(path, ladder_cfg, smtable, anchors)
        first, body = path.read_text().split("\n", 1)
        assert first.startswith(
            f"calibration-v2,smtable={smtable.fingerprint},{KEY},sha256=")
        assert body == (f"euler_c={ld.EULER_C!r}\nc0={ladder_cfg.c0!r}\n"
                        "calibrated_at_anchors=10000.0,30000.0,100000.0\n")
        loaded, got_anchors = ld.load_calibration(path)
        assert loaded.c0 == ladder_cfg.c0
        assert got_anchors == anchors

    def test_artifact_cut_short_rejected(self, tmp_path, ladder_cfg,
                                         smtable):
        path = tmp_path / "calibration.txt"
        ld.save_calibration(path, ladder_cfg, smtable, [1.0e4, 3.0e4, 1.0e5])
        path.write_text(path.read_text()[:-3])
        with pytest.raises(TableIntegrityError):
            ld.load_calibration(path)

    @pytest.mark.parametrize("spoil", [
        # one digit of c0 raised by one
        lambda text: re.sub(r"(c0=-?\d+\.\d\d)(\d)",
                            lambda m: m[1] + str((int(m[2]) + 1) % 10),
                            text),
        lambda text: text.replace(KEY, "0123456789abcdef"),
        # the format before the checksum: key=value lines alone
        lambda text: text.split("\n", 1)[1].replace(
            "calibrated_at", "smtable_fingerprint=e0628b52e7bb2520-rs1\n"
            "calibrated_at"),
    ], ids=["c0-digit", "another-key", "previous-format"])
    def test_artifact_damaged_or_foreign_rejected(self, tmp_path, ladder_cfg,
                                                  smtable, spoil):
        path = tmp_path / "calibration.txt"
        ld.save_calibration(path, ladder_cfg, smtable, [1.0e4, 3.0e4, 1.0e5])
        text = path.read_text()
        assert spoil(text) != text
        path.write_text(spoil(text))
        with pytest.raises(TableIntegrityError, match="sha256"):
            ld.load_calibration(path)

    def test_artifact_rejects_foreign_euler_c(self, tmp_path, ladder_cfg):
        # numpy's euler_gamma, one ulp from EULER_C: a fit under it moves
        # c0, so it is refused even under a valid checksum
        path = tmp_path / "calibration.txt"
        assert np.euler_gamma != ld.EULER_C
        write_artifact(path, f"calibration-v2,smtable={KEY}",
                       f"euler_c={np.euler_gamma!r}\nc0={ladder_cfg.c0!r}\n"
                       "calibrated_at_anchors=10000.0\n")
        with pytest.raises(TableIntegrityError, match="euler_c"):
            ld.load_calibration(path)

    def test_artifact_rejects_garbage(self, tmp_path):
        path = tmp_path / "calibration.txt"
        path.write_text("euler_c=not_a_number\nc0=1.0\n")
        with pytest.raises(TableIntegrityError):
            ld.load_calibration(path)
