"""Mean-value points, alpha chains and both sides of the factorization."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder import factorization as fz
from zetaladder.errors import DomainError, TableIntegrityError
from zetaladder.ladder import pi_count, phi1
from zetaladder.quadrature import adaptive_integrate, z2_values, z_values
from zetaladder.special import RSConfig, em_zeta_half, riemann_siegel_z, tau

TWO_PI = 2.0 * math.pi
EIGHT_PI = 8.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


@pytest.fixture(scope="module")
def report_small(fconfig, smtable):
    return fz.factorize(1.0e4, 2.0, 1, fconfig, smtable)


@pytest.fixture(scope="module")
def seq_big(fconfig, smtable):
    return fz.build_alpha_sequence(1.0e5, 2.0, 2, fconfig, smtable)


@pytest.fixture(scope="module")
def job151(fconfig, smtable):
    return fz._build_job(1.0e5, 2.0, 1, fconfig, smtable)


class TestFactorConfig:
    def test_defaults_accepted(self, ladder_cfg):
        cfg = fz.FactorConfig(ladder=ladder_cfg)
        assert cfg.u0_exponent == 0.5001
        assert cfg.max_retries == 8

    @pytest.mark.parametrize("kwargs", [
        {"u0_exponent": 0.4},
        {"u0_exponent": 0.8},
        {"zero_threshold": 0.0},
        {"zero_threshold": 0.5},
        {"max_retries": 0},
        {"scan_step": 0.0},
        {"scan_step": 2.0},
    ])
    def test_validation(self, ladder_cfg, kwargs):
        with pytest.raises(DomainError):
            fz.FactorConfig(ladder=ladder_cfg, **kwargs)


class TestFindEta:
    def test_mean_value_postcondition(self, fconfig, qcfg):
        T, H = 1.0e4, 2.0
        eta = fz.find_eta(T, H, fconfig)
        assert T < eta < T + T ** fconfig.u0_exponent
        w = adaptive_integrate(lambda t, dt: z_values(t, fconfig.rs, dts=dt),
                               eta, eta + H, qcfg).value
        assert 0.9999 <= abs(w) / math.sqrt(TWO_PI * H) <= 1.0001

    def test_below_8pi_rejected(self, fconfig):
        with pytest.raises(DomainError):
            fz.find_eta(20.0, 2.0, fconfig)

    def test_inadmissible_window_rejected(self, fconfig):
        with pytest.raises(DomainError):
            fz.find_eta(1.0e4, 1.0e4, fconfig)
        with pytest.raises(DomainError):
            fz.find_eta(1.0e4, 1.0e-3, fconfig)


class TestIteratedIntegrand:
    """`_LevelMaps.integrand` on the k = 1 job against the forward ladder.

    The level map reads I through its `InverseLevel` chain; `phi1` reads it
    through `cumulative_I`, so these compare two evaluators of I.  At the
    five heights they agree bit for bit; the 1e-10 relative bound leaves
    room for the 1.2e-10 the two I evaluators differ by at most over
    [1e4, 1e5], which moves phi1(t) by ~1e-11 and the integrand by ~1e-10
    relative at most.
    """

    @staticmethod
    def _heights(job):
        _, _, a, b, _, _, _, _ = job
        return [float(t) for t in np.linspace(a, b, 7)[1:-1]]

    def test_sign_carried_by_deepest_factor(self, job151, fconfig, smtable):
        maps = job151[1]
        for t in self._heights(job151):
            val = float(maps.integrand(np.array([t]))[0])
            down = phi1(t, fconfig.ladder, smtable).phi1
            z_down = riemann_siegel_z(down, fconfig.rs).z
            assert math.copysign(1.0, val) == math.copysign(1.0, z_down)

    def test_magnitude_is_weighted_product(self, job151, fconfig, smtable):
        maps = job151[1]
        for t in self._heights(job151):
            val = float(maps.integrand(np.array([t]))[0])
            down = phi1(t, fconfig.ladder, smtable).phi1
            expect = float(z2_values(np.array([t]), fconfig.rs)[0]) \
                / math.log(t) * riemann_siegel_z(down, fconfig.rs).z
            assert val == pytest.approx(expect, rel=1e-10)


class TestFindBeta:
    def test_window_integral_near_nominal_size(self, job151):
        eta, maps, a, b, hk, F, mean, roots = job151
        assert 0.5 <= abs(F) / math.sqrt(TWO_PI * 2.0) <= 1.5

    def test_level_interval_sits_above_window(self, job151):
        eta, maps, a, b, hk, F, mean, roots = job151
        assert a > eta + 2.0
        assert hk == b - a > 0.0
        assert len(roots) >= 1

    def test_mean_value_postcondition(self, job151, fconfig, smtable):
        eta, maps, a, b, hk, F, mean, roots = job151
        beta, hk_pub = fz.find_beta(1.0e5, 2.0, 1, fconfig, smtable)
        assert a <= beta <= b
        assert hk_pub == pytest.approx(hk, rel=1e-12)
        got = float(maps.integrand(np.array([beta]))[0])
        assert abs(got - mean) <= 1e-6 * abs(mean) + 1e-10

    def test_map_up_batch_matches_each_point_alone(self, job151):
        eta, maps, a, b, hk, F, mean, roots = job151
        us = np.linspace(eta, eta + 2.0, 257)[1:-1]
        batch = maps.map_up(1, us)
        alone = np.array([maps.map_up(1, us[i:i + 1])[0]
                          for i in range(us.size)])
        assert np.array_equal(batch, alone)

    def test_bounds_are_map_up_of_the_level_below(self, job151, fconfig,
                                                  smtable):
        eta = job151[0]
        maps = fz._LevelMaps(2.0, 2, eta, fconfig, smtable)
        for r in (1, 2):
            got = maps.map_up(r, np.array(maps.bounds[r - 1]))
            assert got.tolist() == list(maps.bounds[r])

    def test_map_down_undoes_map_up_across_flat_stretches(self, fconfig,
                                                          smtable):
        # the window above T = 10400 maps onto zeros of Z on level 1, where
        # a Newton step from a whole panel once stopped far from the root
        eta = fz.find_eta(1.04e4, 2.0, fconfig)
        maps = fz._LevelMaps(2.0, 1, eta, fconfig, smtable)
        us = np.linspace(eta, eta + 2.0, 20001)[1:-1]
        back = maps.map_down(1, maps.map_up(1, us))
        assert np.abs(back - us).max() <= 1e-6

    def test_order_zero_rejected(self, fconfig, smtable):
        with pytest.raises(DomainError):
            fz.find_beta(1.0e5, 2.0, 0, fconfig, smtable)

    def test_rs_config_must_match_table(self, fconfig, smtable):
        assert smtable.rs_cfg.correction_order == 1
        other = dataclasses.replace(fconfig, rs=RSConfig(correction_order=0))
        with pytest.raises(TableIntegrityError):
            fz.find_beta(1.0e4, 2.0, 1, other, smtable)


class TestAlphaSequence:
    def test_ordering(self, seq_big):
        pts = (seq_big.T,) + seq_big.alphas
        assert all(u < v for u, v in zip(pts, pts[1:]))
        assert seq_big.T < seq_big.eta < seq_big.alphas[0] \
            < seq_big.eta + seq_big.H

    def test_last_alpha_is_beta(self, seq_big):
        assert seq_big.alphas[-1] == seq_big.beta

    def test_chain_links_through_phi1(self, seq_big, fconfig, smtable):
        for r in range(seq_big.k):
            down = phi1(seq_big.alphas[r + 1], fconfig.ladder, smtable).phi1
            assert down == pytest.approx(seq_big.alphas[r], rel=1e-6)

    def test_factors_clear_the_zero_threshold(self, seq_big, fconfig):
        for a in seq_big.alphas:
            assert abs(em_zeta_half(a)) > fconfig.zero_threshold

    def test_gaps_track_prime_count(self, seq_big, fconfig, pi_table):
        unit = [(1.0 - fconfig.ladder.euler_c) * pi_count(a, pi_table)
                for a in seq_big.alphas[:-1]]
        gaps = np.diff(seq_big.alphas)
        for gap, u in zip(gaps, unit):
            assert 0.6 <= gap / u <= 1.4

    def test_span_is_logarithmically_thin(self, seq_big):
        T = seq_big.T
        assert seq_big.Hk < T / math.log(T)
        for a in seq_big.alphas:
            assert 0.99 <= math.log(a) / math.log(T) <= 1.01

    def test_validation_catches_malformed_chains(self):
        with pytest.raises(DomainError):
            fz.AlphaSequence(T=100.0, H=2.0, k=2, eta=101.0, beta=105.0,
                             alphas=(101.5, 105.0), Hk=1.0)
        with pytest.raises(DomainError):
            fz.AlphaSequence(T=100.0, H=2.0, k=1, eta=99.0, beta=105.0,
                             alphas=(101.5, 105.0), Hk=1.0)
        with pytest.raises(DomainError):
            fz.AlphaSequence(T=100.0, H=2.0, k=1, eta=101.0, beta=104.0,
                             alphas=(101.5, 105.0), Hk=1.0)
        with pytest.raises(DomainError):
            fz.AlphaSequence(T=100.0, H=2.0, k=1, eta=101.0, beta=105.0,
                             alphas=(105.0, 101.5), Hk=1.0)


class TestLambdaFactor:
    def test_log_power_example(self):
        lam = fz.lambda_factor(4.0, 2.0, 1, math.exp(10.0))
        assert lam == pytest.approx(10.0 * SQRT_TWO_PI, rel=1e-14)

    def test_unit_example(self):
        assert fz.lambda_factor(1.0, 1.0, 1, math.e) == SQRT_TWO_PI

    def test_doubling_hk_halves_exactly(self):
        a = fz.lambda_factor(3.0, 0.7, 2, 1.0e5)
        b = fz.lambda_factor(3.0, 1.4, 2, 1.0e5)
        assert b == a / 2.0

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 1, 100.0),
        (1.0, 0.0, 1, 100.0),
        (1.0, 1.0, 1, 1.0),
        (1.0, 1.0, 0, 100.0),
    ])
    def test_validation(self, args):
        with pytest.raises(DomainError):
            fz.lambda_factor(*args)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=10.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_positive(self, h, hk, k, t):
        assert fz.lambda_factor(h, hk, k, t) > 0.0


class TestFactorize:
    def test_constant_injection_balances_exactly(self, fconfig, smtable,
                                                 monkeypatch):
        # pin every factor to 4 and the normalization to 4^3; the identity
        # then balances in exact float arithmetic regardless of the chain
        monkeypatch.setattr(fz, "em_zeta_half",
                            lambda x: complex(4.0, 0.0))
        monkeypatch.setattr(fz, "riemann_siegel_z",
                            lambda x, rs: SimpleNamespace(z=4.0))
        monkeypatch.setattr(fz, "lambda_factor",
                            lambda H, Hk, k, T: 64.0)
        rep = fz.factorize(1.0e4, 2.0, 1, fconfig, smtable)
        assert rep.lhs == 4.0
        assert rep.rhs == 4.0
        assert rep.ratio == 1.0
        assert rep.metamorphosis_residual == 0.0

    def test_ratio_is_the_exact_quotient(self, report_small):
        assert report_small.ratio == report_small.lhs / report_small.rhs

    def test_sides_are_order_one(self, report_small):
        assert 0.4 <= report_small.ratio <= 2.5

    def test_metamorphosis_residual_is_small(self, report_small):
        T = report_small.seq.T
        assert report_small.metamorphosis_residual <= 10.0 * T ** -0.25

    def test_lhs_matches_its_definition(self, report_small):
        seq = report_small.seq
        lhs = math.sqrt(report_small.lam / abs(em_zeta_half(seq.alphas[0])))
        assert report_small.lhs == pytest.approx(lhs, rel=1e-12)

    def test_report_dict_schema(self, report_small):
        d = report_small.as_dict()
        assert d["schema"] == "facrep-v1"
        assert set(d) == {"schema", "T", "H", "k", "eta", "beta", "Hk",
                          "alphas", "lambda", "lhs", "rhs", "ratio",
                          "meta_residual"}
        assert d["lambda"] == report_small.lam
        assert len(d["alphas"]) == d["k"] + 1

    def test_csv_round_trip(self, report_small):
        header = fz.FactorizationReport.csv_header(report_small.seq.k)
        row = report_small.csv_row()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["ratio"]) == report_small.ratio
        assert float(cells["beta"]) == report_small.seq.beta
        assert float(cells["alpha_0"]) == report_small.seq.alphas[0]


class TestMultiformG:
    def test_two_point_permutation_exact(self, fconfig):
        a, b = 1.0e4 + 11.0, 1.0e4 + 23.0
        assert fz.multiform_G([a, b], fconfig) \
            == fz.multiform_G([b, a], fconfig)

    def test_three_point_permutation(self, fconfig):
        xs = [1.0e4 + 11.0, 1.0e4 + 23.0, 1.0e4 + 36.0]
        assert fz.multiform_G(xs[::-1], fconfig) \
            == pytest.approx(fz.multiform_G(xs, fconfig), rel=1e-14)

    def test_vanishes_near_a_zero(self, fconfig):
        # bisect the sign change of Z between 30 and 31
        def f(t):
            return riemann_siegel_z(t, fconfig.rs).z

        lo, hi = 30.0, 31.0
        assert f(lo) * f(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert fz.multiform_G([0.5 * (lo + hi), 50.0], fconfig) < 1e-4

    def test_matches_zeta_product_up_to_formula_remainder(self, seq_big,
                                                          fconfig):
        g = fz.multiform_G(list(seq_big.alphas[1:]), fconfig)
        expect = math.prod(abs(em_zeta_half(a)) for a in seq_big.alphas[1:])
        assert g == pytest.approx(expect, rel=1e-3)

    def test_needs_two_heights(self, fconfig):
        with pytest.raises(DomainError):
            fz.multiform_G([1.0e4], fconfig)

    def test_needs_heights_above_8pi(self, fconfig):
        with pytest.raises(DomainError):
            fz.multiform_G([20.0, 1.0e4], fconfig)


class TestLocalSpectrum:
    def test_leading_entry_is_log_tau(self):
        x = 1234.5
        spec = fz.local_spectrum(x)
        assert spec[0].n == 1
        assert spec[0].omega == math.log(tau(x))

    def test_four_term_height(self):
        spec = fz.local_spectrum(EIGHT_PI)
        assert [e.n for e in spec] == [1, 2]
        assert spec[0].omega == math.log(2.0)
        assert spec[1].omega == 0.0

    def test_single_entry_at_2pi(self):
        spec = fz.local_spectrum(TWO_PI)
        assert len(spec) == 1
        assert spec[0].omega == 0.0

    def test_empty_below_2pi(self):
        assert fz.local_spectrum(6.0) == []
        assert fz.local_spectrum(0.0) == []

    @given(st.floats(min_value=10.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_decreasing_and_nonnegative(self, x):
        spec = fz.local_spectrum(x)
        assert len(spec) == int(math.floor(tau(x)))
        omegas = [e.omega for e in spec]
        assert all(u > v for u, v in zip(omegas, omegas[1:]))
        assert omegas[-1] >= 0.0
