"""Quadrature contracts: additivity, nonnegativity, checkpoint integrity.

The classical mean-value comparisons here double as independent checks of
the Z evaluators: the windowed means land on their predicted sizes only
if both quadrature and integrand are right.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder.errors import (DomainError, PrecisionError, RangeError,
                               TableIntegrityError)
from zetaladder.ladder import euler_constant
from zetaladder.quadrature import (Interval, MomentReport, PanelChain,
                                   QuadConfig, SecondMomentTable,
                                   adaptive_integrate, admissible_h_range,
                                   cumulative_I, hl_moment, integrate_z,
                                   integrate_z2, load_table, save_table,
                                   z2_chain, z2_values, z_chain)
from zetaladder.quadrature import _initial_edges, _panel_sums
from zetaladder.special import RSConfig, TWO_PI


class TestInterval:
    def test_width(self):
        assert Interval(2.0, 5.5).width == 3.5

    def test_reversed_rejected(self):
        with pytest.raises(DomainError):
            Interval(5.0, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Interval(0.0, math.nan)
        with pytest.raises(DomainError):
            Interval(-math.inf, 0.0)


class TestQuadConfig:
    def test_defaults_valid(self):
        cfg = QuadConfig()
        assert cfg.abs_tol == 1e-8 and cfg.osc_factor == 0.5

    def test_fingerprint_tracks_settings(self):
        assert QuadConfig().fingerprint \
            != QuadConfig(abs_tol=1e-9).fingerprint
        assert QuadConfig().fingerprint == QuadConfig().fingerprint

    @pytest.mark.parametrize("kw", [{"abs_tol": 0.0}, {"rel_tol": -1e-9},
                                    {"osc_factor": 0.0}, {"osc_factor": 1.5},
                                    {"max_depth": 3}, {"max_depth": 61}])
    def test_invalid_rejected(self, kw):
        with pytest.raises(DomainError):
            QuadConfig(**kw)


class TestAdaptiveIntegrate:
    def test_polynomial_exact(self):
        res = adaptive_integrate(lambda x: x ** 3, 0.0, 1.0, QuadConfig())
        assert res.value == pytest.approx(0.25, abs=1e-13)

    def test_empty_range(self):
        res = adaptive_integrate(lambda x: x, 5.0, 5.0, QuadConfig())
        assert res.value == 0.0 and res.neval == 0

    def test_refines_a_kink(self):
        # sqrt|x - c| has a kink at the irrational c = 1/pi, so no panel
        # edge meets it and acceptance needs several bisection levels
        c = 1.0 / math.pi
        res = adaptive_integrate(lambda x: np.sqrt(np.abs(x - c)), 0.0, 1.0,
                                 QuadConfig())
        exact = (2.0 / 3.0) * (c ** 1.5 + (1.0 - c) ** 1.5)
        assert abs(res.value - exact) <= res.error_bound
        assert (res.value, res.error_bound, res.neval) \
            == (0.4949475606702291, 5.86902981021564e-12, 1530)

    def test_unreachable_tolerance_reported(self):
        # kink at an irrational point, far too little depth for 1e-14
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_depth=4)
        with pytest.raises(PrecisionError) as err:
            adaptive_integrate(lambda x: np.sqrt(np.abs(x - 1 / math.pi)),
                               0.0, 1.0, cfg)
        assert err.value.estimate is not None
        assert err.value.bound > 1e-14


class TestIntegrateZ:
    def test_zero_width(self):
        assert integrate_z(Interval(500.0, 500.0)) == 0.0

    def test_additivity(self, qcfg):
        a, b, c = 1.0e4, 1.0e4 + 37.3, 1.0e4 + 64.0
        whole = integrate_z(Interval(a, c), qcfg)
        parts = integrate_z(Interval(a, b), qcfg) \
            + integrate_z(Interval(b, c), qcfg)
        assert abs(whole - parts) <= 2.0 * qcfg.abs_tol

    def test_low_endpoint_rejected(self):
        with pytest.raises(DomainError):
            integrate_z(Interval(5.0, 20.0))

    def test_windowed_mean_square(self, qcfg):
        # (int_eta^{eta+2} Z)^2 averages to about 2 pi H over many windows
        chain = z_chain(1.0e4, 1.0e4 + 302.5, qcfg)
        etas = np.random.default_rng(5).uniform(1.0e4, 1.0e4 + 300.0, 100)
        vals = chain.integral(etas, etas + 2.0) ** 2 / (TWO_PI * 2.0)
        assert 0.5 <= float(np.mean(vals)) <= 1.5


class TestIntegrateZ2:
    def test_zero_width(self):
        assert integrate_z2(Interval(0.0, 0.0)) == 0.0

    def test_additivity(self, qcfg):
        a, b, c = 1.0e4, 1.0e4 + 37.3, 1.0e4 + 64.0
        whole = integrate_z2(Interval(a, c), qcfg)
        parts = integrate_z2(Interval(a, b), qcfg) \
            + integrate_z2(Interval(b, c), qcfg)
        assert abs(whole - parts) <= 2.0 * qcfg.abs_tol

    def test_negative_endpoint_rejected(self):
        with pytest.raises(DomainError):
            integrate_z2(Interval(-1.0, 5.0))

    def test_classical_mean_value(self, qcfg):
        # I(T) ~ T (ln T + 2c - 1 - ln 2pi); one slow full integral from 0
        val = integrate_z2(Interval(0.0, 1.0e4), qcfg)
        c = euler_constant()
        pred = 1.0e4 * (math.log(1.0e4) + 2.0 * c - 1.0 - math.log(TWO_PI))
        assert val / pred == pytest.approx(1.0, abs=0.02)

    @given(st.floats(min_value=20.0, max_value=300.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, a, w):
        assert integrate_z2(Interval(a, a + w)) >= 0.0

    def test_halving_osc_factor_stays_within_bounds(self):
        for a in (1.0e4, 3.163e4, 9.7e4):
            r1 = adaptive_integrate(z2_values, a, a + 5.0, QuadConfig())
            r2 = adaptive_integrate(z2_values, a, a + 5.0,
                                    QuadConfig(osc_factor=0.25))
            assert abs(r1.value - r2.value) \
                <= r1.error_bound + r2.error_bound


class TestPanelChain:
    def test_prefix_endpoints_and_total(self, qcfg):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0, qcfg)
        assert float(ch.prefix(ch.a)) == pytest.approx(0.0, abs=1e-10)
        assert float(ch.prefix(ch.b)) == pytest.approx(ch.total, abs=1e-9)

    def test_matches_adaptive(self, qcfg):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0, qcfg)
        direct = integrate_z2(Interval(1.0e4 + 1.0, 1.0e4 + 7.0), qcfg)
        assert float(ch.integral(1.0e4 + 1.0, 1.0e4 + 7.0)) \
            == pytest.approx(direct, abs=1e-8)

    def test_slope_is_the_integrand(self, qcfg):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0, qcfg)
        ts = np.linspace(1.0e4 + 0.5, 1.0e4 + 7.5, 400)
        diff = np.abs(ch.slope(ts) - z2_values(ts))
        assert float(diff.max()) <= 1e-8 * (1.0 + float(z2_values(ts).max()))

    def test_prefix_outside_span(self, qcfg):
        ch = z_chain(1.0e4, 1.0e4 + 4.0, qcfg)
        with pytest.raises(RangeError):
            ch.prefix(1.0e4 + 5.0)

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            PanelChain.build(5.0, 5.0, lambda ts: ts)


class TestPanelBatchInvariance:
    """A panel's sum and its Legendre coefficients are bit-identical
    whether the panel is computed alone or among many."""

    A, B = 1.0e4, 1.0e4 + 40.0

    @staticmethod
    def _f(ts):
        # plain IEEE arithmetic, so the node values themselves cannot
        # depend on the batch
        return 1.0 / (1.0 + (ts - 1.00203e4) ** 2) + 1e-3 * ts

    def test_panel_sums(self):
        edges = _initial_edges(self.A, self.B, 0.5)
        assert edges.size > 20
        _, batch = _panel_sums(self._f, edges[:-1], edges[1:])
        alone = np.array([_panel_sums(self._f, edges[k:k + 1],
                                      edges[k + 1:k + 2])[1][0]
                          for k in range(edges.size - 1)])
        assert np.array_equal(alone, batch)

    def test_chain_coefficients(self):
        chain = PanelChain.build(self.A, self.B, self._f)
        for k in range(chain.mids.size):
            one = PanelChain.build(chain.edges[k], chain.edges[k + 1],
                                   self._f)
            assert one.mids.size == 1
            assert np.array_equal(one.coef[:, 0], chain.coef[:, k])


class TestSecondMomentTable:
    def test_worker_count_invisible(self, qcfg, rs_cfg):
        t1 = SecondMomentTable(qcfg, rs_cfg)
        t1.ensure(320.0, workers=1)
        t3 = SecondMomentTable(qcfg, rs_cfg)
        t3.ensure(320.0, workers=3)
        assert t1.checkpoints == t3.checkpoints

    def test_extension_order_invisible(self, qcfg, rs_cfg):
        stepped = SecondMomentTable(qcfg, rs_cfg)
        stepped.ensure(192.0)
        stepped.ensure(320.0)
        direct = SecondMomentTable(qcfg, rs_cfg)
        direct.ensure(320.0)
        assert stepped.checkpoints == direct.checkpoints

    def test_checkpoints_strictly_increasing(self, smtable):
        pts = smtable.checkpoints
        assert all(a[0] < b[0] and a[1] < b[1]
                   for a, b in zip(pts, pts[1:]))

    def test_save_load_roundtrip(self, tmp_path, qcfg, rs_cfg):
        table = SecondMomentTable(qcfg, rs_cfg)
        table.ensure(256.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        text = path.read_text()
        assert text.startswith(f"smtable-v2,{table.fingerprint},")
        loaded = load_table(path, qcfg, rs_cfg)
        assert loaded.checkpoints == table.checkpoints

    def test_load_rejects_wrong_fingerprint(self, tmp_path, qcfg, rs_cfg):
        table = SecondMomentTable(qcfg, rs_cfg)
        table.ensure(128.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        with pytest.raises(TableIntegrityError):
            load_table(path, QuadConfig(abs_tol=1e-9), rs_cfg)
        # checkpoints integrated with the first correction term must not
        # be extended under the bare main sum
        assert rs_cfg.correction_order == 1
        with pytest.raises(TableIntegrityError):
            load_table(path, qcfg, RSConfig(correction_order=0))

    def test_load_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("something-else,deadbeef\n0.0,0.0\n")
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_load_rejects_non_monotone_rows(self, tmp_path, qcfg, rs_cfg):
        table = SecondMomentTable(qcfg, rs_cfg)
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        lines = path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableIntegrityError):
            load_table(path, qcfg, rs_cfg)

    @pytest.mark.parametrize("cut", [
        lambda text: text[:-5],                          # inside a number
        lambda text: text[:text.rindex("\n", 0, -1) + 1],  # a whole row
    ], ids=["in-last-number", "last-row"])
    def test_load_rejects_cut_table(self, tmp_path, qcfg, rs_cfg, cut):
        table = SecondMomentTable(qcfg, rs_cfg)
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        path.write_text(cut(path.read_text()))
        with pytest.raises(TableIntegrityError):
            load_table(path, qcfg, rs_cfg)

    def test_load_rejects_shifted_checkpoint(self, tmp_path, qcfg, rs_cfg):
        table = SecondMomentTable(qcfg, rs_cfg)
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        lines = path.read_text().splitlines()
        _, i_str = lines[3].split(",")
        lines[3] = f"{130.0!r},{i_str}"      # checkpoint 2 belongs at 128
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableIntegrityError):
            load_table(path, qcfg, rs_cfg)


class TestCumulativeI:
    def test_at_zero(self, smtable):
        assert cumulative_I(0.0, smtable) == 0.0

    def test_negative_rejected(self, smtable):
        for T in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                cumulative_I(T, smtable)

    def test_difference_matches_direct_integral(self, smtable, qcfg):
        t1, t2 = 1.0e4 + 3.0, 1.0e4 + 41.5
        diff = cumulative_I(t2, smtable) - cumulative_I(t1, smtable)
        direct = integrate_z2(Interval(t1, t2), qcfg)
        assert abs(diff - direct) <= 2.0 * qcfg.abs_tol

    def test_monotone_in_t(self, smtable):
        vals = [cumulative_I(t, smtable)
                for t in (500.0, 1.0e3, 2.5e3, 1.0e4, 5.0e4)]
        assert all(u < v for u, v in zip(vals, vals[1:]))


class TestHlMoment:
    def test_admissible_range_shape(self):
        lo, hi = admissible_h_range(1.0e4)
        lt = math.log(1.0e4)
        assert lo == pytest.approx(math.log(lt) / lt, rel=1e-12)
        assert hi == pytest.approx(1.0e4 ** (1.0 / math.log(lt)), rel=1e-12)
        assert lo < 1.0 < 2.0 < hi

    def test_h_equal_t_rejected(self):
        with pytest.raises(DomainError) as err:
            hl_moment(1.0e4, 1.0e4)
        assert "admissible" in str(err.value)

    def test_h_too_small_rejected(self):
        with pytest.raises(DomainError):
            hl_moment(1.0e4, 1e-3)

    def test_small_t_rejected(self):
        with pytest.raises(DomainError):
            hl_moment(50.0, 1.0)

    def test_report_fields(self, qcfg, rs_cfg):
        rep = hl_moment(2.0e4, 2.0, qcfg, rs_cfg)
        assert isinstance(rep, MomentReport)
        assert rep.U0 == pytest.approx(2.0e4 ** 0.5001, rel=1e-14)
        assert rep.jbar >= 0.0
        assert rep.ratio == rep.jbar / (TWO_PI * rep.H * rep.U0)
        d = rep.as_dict()
        assert d["schema"] == "moment-v1"
        assert set(d) == {"schema", "T", "H", "U0", "jbar", "ratio"}

    def test_deterministic_across_calls(self, qcfg, rs_cfg):
        r1 = hl_moment(1.0e4, 1.5, qcfg, rs_cfg)
        r2 = hl_moment(1.0e4, 1.5, qcfg, rs_cfg)
        assert r1.jbar == r2.jbar and r1.ratio == r2.ratio
