"""Quadrature contracts: additivity, nonnegativity, checkpoint integrity.

The classical mean-value comparisons here double as independent checks of
the Z evaluators: the windowed means land on their predicted sizes only
if both quadrature and integrand are right.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre as npleg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder import cli, kernels, quadrature, special
from zetaladder.errors import (DomainError, PrecisionError, RangeError,
                               TableIntegrityError)
from zetaladder.ladder import euler_constant
from zetaladder.quadrature import (ABS_TOL, KEY, MAX_DEPTH,
                                   MomentReport, PanelChain, QuadResult,
                                   SecondMomentTable, adaptive_integrate,
                                   adaptive_integrate_many,
                                   admissible_h_range, cumulative_I,
                                   hl_moment, load_table, read_artifact,
                                   save_table, write_artifact, z2_chain,
                                   z2_values, z_chain, z_values)
from zetaladder.quadrature import (_FIRST_LEVEL_PHASE, _GL_W, _GL_X,
                                   _K31_W, _K31_X, _initial_edges,
                                   _panel_freq, _panel_sums, _panel_values,
                                   _rule_sums)
from zetaladder.special import TWO_PI


def _int_z(a, b):
    return adaptive_integrate(z_values, a, b).value


def _int_z2(a, b):
    return adaptive_integrate(z2_values, a, b).value


class TestQuadConfig:
    """The keys derived from the fixed numeric constants."""

    def test_default_table_key_is_frozen(self):
        # every cached table, calibration and moment memo is keyed on this;
        # a numeric change updates it on purpose, with its version bump
        assert KEY == "fa801b3d995487f0"

    def test_default_moment_memo_key_is_frozen(self):
        # moment memo file names are keyed on (T, H) and KEY; replaying a
        # memo needs the same name across versions
        assert cli._moment_cache_key(1e5, 2.0) == "5196fbbf0f710850"

    @pytest.mark.parametrize("module, name", [
        (quadrature, "ABS_TOL"), (quadrature, "REL_TOL"),
        (quadrature, "MAX_DEPTH"), (quadrature, "_CHAIN_PHASE"),
        (quadrature, "U0_EXPONENT"), (kernels, "ANCHORS_PER_UNIT"),
        (kernels, "_TRUNCATION"), (special, "RS_MIN"), (special, "EM_TOL"),
    ])
    def test_key_names_every_numeric_constant(self, module, name):
        # a change to any of these moves cached numbers, so it must rename
        # every artifact; the blob spells each as name=value
        assert f"{name}={getattr(module, name)!r}" in quadrature._KEY_BLOB
        assert KEY == hashlib.sha256(
            quadrature._KEY_BLOB.encode()).hexdigest()[:16]


class TestArtifact:
    """write_artifact / read_artifact: one framing for every cached file."""

    def test_round_trip_and_first_line(self, tmp_path):
        path = tmp_path / "a.txt"
        write_artifact(path, "demo-v1,x=1", "a,b\n1,2\n")
        digest = hashlib.sha256(b"a,b\n1,2\n").hexdigest()
        assert path.read_text() == f"demo-v1,x=1,{KEY},sha256={digest}\n" \
            "a,b\n1,2\n"
        assert read_artifact(path, "demo-v1,x=1") == "a,b\n1,2\n"

    @pytest.mark.parametrize("spoil", [
        lambda text: text.replace("1,2", "1,3"),          # a changed digit
        lambda text: text[:-2],                           # cut short
        lambda text: text.replace(KEY, "0123456789abcdef"),  # another key
        lambda text: text.replace("x=1", "x=2"),          # another header
        lambda text: text.split("\n", 1)[1],              # no first line
    ], ids=["digit", "cut", "key", "header", "headless"])
    def test_refuses_any_change(self, tmp_path, spoil):
        path = tmp_path / "a.txt"
        write_artifact(path, "demo-v1,x=1", "a,b\n1,2\n")
        path.write_text(spoil(path.read_text()))
        with pytest.raises(TableIntegrityError):
            read_artifact(path, "demo-v1,x=1")


class TestAdaptiveIntegrate:
    def test_polynomial_exact(self):
        res = adaptive_integrate(lambda x, _: x ** 3, 0.0, 1.0)
        assert res.value == pytest.approx(0.25, abs=1e-13)

    def test_empty_range(self):
        res = adaptive_integrate(lambda x, _: x, 5.0, 5.0)
        assert res.value == 0.0 and res.neval == 0

    def test_refines_a_kink(self):
        # sqrt|x - c| has a kink at the irrational c = 1/pi, so no panel
        # edge meets it and acceptance needs several bisection levels
        c = 1.0 / math.pi
        res = adaptive_integrate(lambda x, _: np.sqrt(np.abs(x - c)), 0.0,
                                 1.0)
        exact = (2.0 / 3.0) * (c ** 1.5 + (1.0 - c) ** 1.5)
        assert abs(res.value - exact) <= res.error_bound
        assert (res.value, res.error_bound, res.neval) \
            == (0.4949475606702341, 3.840395348452095e-12, 1519)

    def test_smooth_integrand_takes_one_pass(self):
        # every first-level panel of a cubic is accepted at 31 nodes
        res = adaptive_integrate(lambda x, _: x ** 3, 0.0, 3.0)
        panels = _initial_edges(0.0, 3.0, _FIRST_LEVEL_PHASE).size - 1
        assert res.neval == 31 * panels

    def test_tau_integer_crossing(self):
        # Riemann-Siegel Z^2 jumps where tau = sqrt(t / 2pi) passes 37; the
        # reference integrates each side on its own, GL15 on an 8-way split
        # of its panels (1-, 2-, 4- and 8-way splits agree to ~1e-10)
        a, b = 8592.0, 8608.0
        edges = _initial_edges(a, b, 0.5)
        c = edges[np.argmin(np.abs(edges - TWO_PI * 37 ** 2))]
        assert abs(c - TWO_PI * 37 ** 2) <= 1e-9
        parts = []
        for lo, hi in ((a, c), (c, b)):
            e = _initial_edges(lo, hi, 0.5)
            fine = e[:-1, None] + np.diff(e)[:, None] * (np.arange(9) / 8.0)
            parts.extend(_panel_sums(z2_values, fine[:, :-1].ravel(),
                                     fine[:, 1:].ravel())[1].tolist())
        res = adaptive_integrate(z2_values, a, b)
        assert abs(res.value - math.fsum(parts)) <= res.error_bound + 1e-10

    def test_unreachable_tolerance_reported(self):
        # an integrable 1/sqrt singularity at an irrational point: halving
        # the panel next to it only halves that panel's error, so MAX_DEPTH
        # levels leave the bound far above the target (a sqrt kink or a
        # jump converges within them)
        with pytest.raises(PrecisionError) as err:
            adaptive_integrate(
                lambda x, _: 1.0 / np.sqrt(np.abs(x - 1 / math.pi)), 0.0,
                1.0)
        assert err.value.estimate is not None
        assert err.value.bound > 100.0 * ABS_TOL
        assert f"max_depth={MAX_DEPTH}" in str(err.value)


def _kink(x, _):
    # a kink at the irrational 1/pi, which no panel edge meets
    return np.sqrt(np.abs(x - 1.0 / math.pi))


def _singular(x, _):
    # an integrable 1/sqrt singularity at 1/pi, past MAX_DEPTH's reach
    return 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi))


class TestAdaptiveIntegrateMany:
    """Many intervals in one adaptive loop, each integrated bit for bit as
    on its own."""

    @pytest.mark.parametrize("fvec, cuts", [
        # strides across RS_MIN = 8pi and the tau-integer edges 2 pi k^2
        (z2_values, [64.0 * k for k in range(11)]),
        # unequal widths, so the per-panel budgets differ between intervals
        (z2_values, [1e4, 1e4 + 3.0, 1e4 + 64.0, 1e4 + 200.0]),
        # bisection in the middle interval alone
        (_kink, [0.0, 0.25, 0.5, 1.0]),
    ])
    def test_each_interval_as_alone(self, fvec, cuts):
        many = adaptive_integrate_many(fvec, cuts)
        alone = [adaptive_integrate(fvec, a, b)
                 for a, b in zip(cuts, cuts[1:])]
        assert len(many) == len(cuts) - 1
        for got, want in zip(many, alone):
            assert (got.value, got.error_bound, got.neval) \
                == (want.value, want.error_bound, want.neval)

    def test_kink_refines_its_own_interval_alone(self):
        cuts = [0.0, 0.25, 0.5, 1.0]
        res = adaptive_integrate_many(_kink, cuts)
        first = [(_initial_edges(a, b, _FIRST_LEVEL_PHASE).size - 1) * 31
                 for a, b in zip(cuts, cuts[1:])]
        assert [r.neval == n for r, n in zip(res, first)] \
            == [True, False, True]

    def test_empty_intervals_integrate_to_zero(self):
        res = adaptive_integrate_many(lambda x, _: x, [0.0, 1.0, 1.0, 2.0])
        assert res[1] == QuadResult(0.0, 0.0, 0)
        assert res[0].value == pytest.approx(0.5, abs=1e-15)
        assert res[2].value == pytest.approx(1.5, abs=1e-15)
        assert adaptive_integrate_many(lambda x, _: x, [3.0]) == []

    def test_unreachable_tolerance_names_its_interval(self):
        # the last interval is worth 1e9, so a REL_TOL check against the
        # sum of all intervals would excuse the singular one
        def fvec(x, dx):
            return _singular(x, dx) + np.where(x > 1.0, 1e9, 0.0)

        with pytest.raises(PrecisionError) as alone:
            adaptive_integrate(fvec, 0.25, 0.5)
        with pytest.raises(PrecisionError) as err:
            adaptive_integrate_many(fvec, [0.0, 0.25, 0.5, 1.0, 2.0])
        assert "[0.25, 0.5]" in str(err.value)
        assert (err.value.estimate, err.value.bound) \
            == (alone.value.estimate, alone.value.bound)
        assert err.value.bound > 100.0 * ABS_TOL


def _split_sums(lo, hi, ways=16):
    """K31 sums of Z^2 over the panels [lo, hi], each the exact sum of its
    ways-way split, all nodes exact."""
    e = lo[:, None] + (hi - lo)[:, None] * (np.arange(ways + 1) / ways)
    vals, hws = _panel_values(z2_values, e[:, :-1].ravel(), e[:, 1:].ravel(),
                              _K31_X)
    sub = _rule_sums(vals, _K31_W, hws).reshape(lo.size, ways)
    return np.array([math.fsum(r) for r in sub.tolist()])


class TestWidePanels:
    """First-level panels `_FIRST_LEVEL_PHASE` radians wide with exact
    nodes: against 16-way splits of themselves, they are right to
    roundoff, so strides pass at the first level with honest bounds."""

    def test_panel_matches_its_exact_split(self):
        # a node rounded to the ulp of t (1.2e-10 here) moves Z^2 by ~1e-9
        # relative, which the split does not share with the whole panel
        e = _initial_edges(1.0e6, 1.0e6 + 8.0, _FIRST_LEVEL_PHASE)
        vals, hws = _panel_values(z2_values, e[:-1], e[1:], _K31_X)
        whole = _rule_sums(vals, _K31_W, hws)
        scale = np.abs(vals).max(axis=1) * np.diff(e)
        assert np.all(np.abs(whole - _split_sums(e[:-1], e[1:]))
                      <= 1e-14 * scale)

    @pytest.mark.parametrize("a, b", [(1.2e4, 1.2e4 + 64.0),
                                      (1.0e5, 1.0e5 + 64.0),
                                      (1.0e6, 1.0e6 + 64.0),
                                      (8576.0, 8640.0)])
    def test_stride_within_bound_of_exact_reference(self, a, b):
        # [8576, 8640] crosses tau = 37 at 2 pi 37^2
        e = _initial_edges(a, b, _FIRST_LEVEL_PHASE)
        res = adaptive_integrate(z2_values, a, b)
        ref = math.fsum(_split_sums(e[:-1], e[1:]).tolist())
        assert abs(res.value - ref) \
            <= res.error_bound + 4.0 * np.spacing(res.value)
        # every first-level panel passes at its 31 nodes
        assert res.neval == 31 * (e.size - 1)

    def test_no_numpy_ma(self):
        # numpy.ma costs 13 ms to import, inside every timed command;
        # np.unique loads it on its first call
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys\n"
                  "from zetaladder.quadrature import (SecondMomentTable,\n"
                  "                                   hl_moment)\n"
                  "SecondMomentTable().ensure(64.0)\n"
                  "hl_moment(1.0e4, 1.5)\n"
                  "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestKronrodRule:
    """The G15/K31 pair behind `adaptive_integrate`."""

    def test_k31_exact_through_degree_46(self):
        for d in range(47):
            got = float(np.dot(_K31_W, npleg.legval(_K31_X, [0] * d + [1])))
            assert abs(got - (2.0 if d == 0 else 0.0)) <= 1e-15, d

    def test_g15_exact_through_degree_29(self):
        for d in range(30):
            got = float(np.dot(_GL_W, npleg.legval(_GL_X, [0] * d + [1])))
            assert abs(got - (2.0 if d == 0 else 0.0)) <= 1e-15, d

    def test_nodes_contain_the_gauss_nodes(self):
        assert np.all(np.diff(_K31_X) > 0)
        assert set(npleg.leggauss(15)[0].tolist()) <= set(_K31_X.tolist())
        assert np.array_equal(_K31_X[1::2], _GL_X)
        # QUADPACK's xgk(1)
        assert _K31_X[-1] == pytest.approx(0.998002298693397060285, abs=1e-16)

    def test_weights_positive(self):
        assert np.all(_K31_W > 0) and np.all(_GL_W > 0)
        assert _K31_W.size == 31 and _GL_W.size == 15


class TestInitialEdges:
    @pytest.mark.parametrize("a, b", [(0.0, 200.0), (1.2e4, 1.3e4),
                                      (1.0e6, 1.0e6 + 500.0)])
    def test_phase_bound_and_tau_integer_cuts(self, a, b):
        e = _initial_edges(a, b, 0.5)
        assert e[0] == a and e[-1] == b and np.all(np.diff(e) > 0)
        assert np.all(np.diff(e) * _panel_freq(e[1:]) <= 0.5)
        # every t = 2 pi k^2 inside, to the edge grid
        ks = np.arange(2, int(math.sqrt(b / TWO_PI)) + 2)
        cuts = TWO_PI * (ks * ks)
        cuts = cuts[(cuts > a) & (cuts < b)]
        assert cuts.size
        gaps = np.abs(e[:, None] - cuts[None, :]).min(axis=0)
        assert np.all(gaps <= 1e-13 * b)
        # interior midpoints are exact: their sums do not round
        inner = e[1:-1]
        assert np.all((inner[1:] + inner[:-1]) - inner[1:] == inner[:-1])

    def test_narrow_panels(self):
        # 1.7e-5 wide at 1e6, where the grid shrinks from 2^-24 to 2^-31
        e = _initial_edges(1.0e6, 1.0e6 + 0.1, 1e-4)
        assert e.size > 5900 and np.all(np.diff(e) > 0)
        assert np.all(np.diff(e) * _panel_freq(e[1:]) <= 1e-4)
        # narrower than that grid allows: a finer grid, never a bad count
        e = _initial_edges(1.0e6, 1.0e6 + 1e-3, 1e-7)
        assert e.size > 59000 and np.all(np.diff(e) > 0)

    def test_rs_min_is_an_edge(self):
        e = _initial_edges(20.0, 30.0, 0.5)
        assert np.abs(e - 4.0 * TWO_PI).min() <= 1e-13 * 30.0


class TestIntegrateZ:
    def test_zero_width(self):
        assert _int_z(500.0, 500.0) == 0.0

    def test_additivity(self):
        a, b, c = 1.0e4, 1.0e4 + 37.3, 1.0e4 + 64.0
        whole = _int_z(a, c)
        parts = _int_z(a, b) + _int_z(b, c)
        assert abs(whole - parts) <= 2.0 * ABS_TOL

    def test_windowed_mean_square(self):
        # (int_eta^{eta+2} Z)^2 averages to about 2 pi H over many windows
        chain = z_chain(1.0e4, 1.0e4 + 302.5)
        etas = np.random.default_rng(5).uniform(1.0e4, 1.0e4 + 300.0, 100)
        vals = chain.integral(etas, etas + 2.0) ** 2 / (TWO_PI * 2.0)
        assert 0.5 <= float(np.mean(vals)) <= 1.5


class TestIntegrateZ2:
    def test_zero_width(self):
        assert _int_z2(0.0, 0.0) == 0.0

    def test_additivity(self):
        a, b, c = 1.0e4, 1.0e4 + 37.3, 1.0e4 + 64.0
        whole = _int_z2(a, c)
        parts = _int_z2(a, b) + _int_z2(b, c)
        assert abs(whole - parts) <= 2.0 * ABS_TOL

    def test_classical_mean_value(self):
        # I(T) ~ T (ln T + 2c - 1 - ln 2pi); one slow full integral from 0
        val = _int_z2(0.0, 1.0e4)
        c = euler_constant()
        pred = 1.0e4 * (math.log(1.0e4) + 2.0 * c - 1.0 - math.log(TWO_PI))
        assert val / pred == pytest.approx(1.0, abs=0.02)

    @given(st.floats(min_value=20.0, max_value=300.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, a, w):
        assert _int_z2(a, a + w) >= 0.0

    def test_chain_stays_within_bounds(self):
        # chains land within 1e-11 of the adaptive integral, past its bound
        # (their nodes are rounded to floats: up to 1.1e-12 off at 9.7e4)
        for a in (1.0e4, 3.163e4, 9.7e4):
            ref = adaptive_integrate(z2_values, a, a + 5.0)
            total = z2_chain(a, a + 5.0).total
            assert abs(total - ref.value) <= ref.error_bound + 1e-11


class TestPanelChain:
    def test_prefix_endpoints_and_total(self):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0)
        assert float(ch.prefix(ch.a)) == pytest.approx(0.0, abs=1e-10)
        assert float(ch.prefix(ch.b)) == pytest.approx(ch.total, abs=1e-9)

    def test_matches_adaptive(self):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0)
        direct = _int_z2(1.0e4 + 1.0, 1.0e4 + 7.0)
        assert float(ch.integral(1.0e4 + 1.0, 1.0e4 + 7.0)) \
            == pytest.approx(direct, abs=1e-8)

    def test_slope_is_the_integrand(self):
        ch = z2_chain(1.0e4, 1.0e4 + 8.0)
        ts = np.linspace(1.0e4 + 0.5, 1.0e4 + 7.5, 400)
        diff = np.abs(ch.slope(ts) - z2_values(ts))
        assert float(diff.max()) <= 1e-8 * (1.0 + float(z2_values(ts).max()))

    def test_prefix_outside_span(self):
        ch = z_chain(1.0e4, 1.0e4 + 4.0)
        with pytest.raises(RangeError):
            ch.prefix(1.0e4 + 5.0)

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            PanelChain.build(5.0, 5.0, lambda ts: ts)

    def test_prefix_sums_are_compensated(self):
        # thousands of panels far up the line: at every edge past a, the
        # prefix is the correctly rounded sum of the panel totals to 1 ulp
        ch = PanelChain.build(1.0e6, 1.0e6 + 2000.0,
                              lambda ts: 1.5 + np.cos(3.0 * ts))
        totals = npleg.legval(1.0, ch.coef).tolist()
        assert len(totals) > 3000
        run, want = Fraction(0), []
        for x in totals:
            # math.fsum of totals[:k+1], without its quadratic cost
            run += Fraction(x)
            want.append(float(run))
        got = ch.prefix(ch.edges[1:])
        assert np.all(np.abs(got - want) <= np.spacing(want))


class TestPanelBatchInvariance:
    """A panel's sum and its Legendre coefficients are bit-identical
    whether the panel is computed alone or among many."""

    A, B = 1.0e4, 1.0e4 + 40.0

    @staticmethod
    def _f(ts, dts=0.0):
        # plain IEEE arithmetic, so the node values themselves cannot
        # depend on the batch
        return 1.0 / (1.0 + ((ts - 1.00203e4) + dts) ** 2) + 1e-3 * ts

    def test_panel_sums(self):
        edges = _initial_edges(self.A, self.B, 0.5)
        assert edges.size > 20
        _, batch = _panel_sums(self._f, edges[:-1], edges[1:])
        alone = np.array([_panel_sums(self._f, edges[k:k + 1],
                                      edges[k + 1:k + 2])[1][0]
                          for k in range(edges.size - 1)])
        assert np.array_equal(alone, batch)

    def test_kronrod_sums(self):
        edges = _initial_edges(self.A, self.B, 0.5)

        def sums(lo, hi):
            vals, hws = _panel_values(self._f, lo, hi, _K31_X)
            return _rule_sums(vals, _K31_W, hws)

        batch = sums(edges[:-1], edges[1:])
        alone = np.array([sums(edges[k:k + 1], edges[k + 1:k + 2])[0]
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
    def test_concurrent_ensure_matches_serial(self):
        # the sweep's threads extend one shared table; the lock makes the
        # second caller wait and then find the checkpoints already there
        serial = SecondMomentTable()
        serial.ensure(320.0)
        shared = SecondMomentTable()
        start = threading.Barrier(2)

        def extend():
            start.wait(timeout=30)
            shared.ensure(320.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(extend) for _ in range(2)]:
                fut.result()
        assert shared.checkpoints == serial.checkpoints
        assert len(serial.checkpoints) == 6

    def test_extension_order_invisible(self):
        # steps of 3, 2, 2 and 3 strides, which split and shift the passes
        # of the direct build's four strides each
        stepped = SecondMomentTable()
        for t in (192.0, 320.0, 448.0, 640.0):
            stepped.ensure(t)
        direct = SecondMomentTable()
        direct.ensure(640.0)
        assert stepped.checkpoints == direct.checkpoints
        assert len(direct.checkpoints) == 11

    def test_saved_bytes_are_frozen(self, tmp_path):
        # the table integrated one stride per call wrote these bytes; passes
        # of several strides must not move a bit of any checkpoint
        table = SecondMomentTable()
        table.ensure(1024.0)
        save_table(table, tmp_path / "t.csv")
        first, body = (tmp_path / "t.csv").read_bytes().split(b"\n", 1)
        digest = ("c05b8798ee0eed7b01d59ac5bbcb2a7d"
                  "a78721701aff2c28f3bd9f9b927770e7")
        assert hashlib.sha256(body).hexdigest() == digest
        assert first.decode() == ("smtable-v3,stride=64.0,tolerance=1e-08,"
                                  f"{KEY},sha256={digest}")

    def test_failed_pass_appends_nothing(self, monkeypatch):
        table = SecondMomentTable()
        table.ensure(128.0)
        before = table.checkpoints

        def fail(*_):
            raise PrecisionError("refused")

        monkeypatch.setattr(quadrature, "adaptive_integrate_many", fail)
        with pytest.raises(PrecisionError):
            table.ensure(640.0)
        assert table.checkpoints == before

    def test_checkpoints_strictly_increasing(self, smtable):
        pts = smtable.checkpoints
        assert all(a[0] < b[0] and a[1] < b[1]
                   for a, b in zip(pts, pts[1:]))

    def test_save_load_roundtrip(self, tmp_path):
        table = SecondMomentTable()
        table.ensure(256.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        text = path.read_text()
        assert text.startswith(f"smtable-v3,stride=64.0,tolerance=1e-08,"
                               f"{table.fingerprint},sha256=")
        assert table.fingerprint == KEY
        loaded = load_table(path)
        assert loaded.checkpoints == table.checkpoints
        assert loaded.top == table.top == 256.0
        assert loaded.value_at(200.0) == table.checkpoints[3]

    def test_load_rejects_wrong_fingerprint(self, tmp_path):
        table = SecondMomentTable()
        table.ensure(128.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        header, rest = path.read_text().split("\n", 1)
        assert KEY in header
        path.write_text(header.replace(KEY, "0123456789abcdef")
                        + "\n" + rest)
        with pytest.raises(TableIntegrityError, match="0123456789abcdef"):
            load_table(path)

    def test_load_rejects_a_changed_digit(self, tmp_path):
        # one digit of I(256) = 994.6887624730477 raised by one
        table = SecondMomentTable()
        table.ensure(256.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        text = path.read_text()
        row = f"256.0,{table.checkpoints[4][1]!r}\n"
        assert row in text
        path.write_text(text.replace(
            row, row[:13] + str((int(row[13]) + 1) % 10) + row[14:]))
        with pytest.raises(TableIntegrityError, match="sha256"):
            load_table(path)

    def test_load_rejects_the_previous_format(self, tmp_path):
        table = SecondMomentTable()
        table.ensure(256.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("smtable-v2,e0628b52e7bb2520-rs1,stride=64.0,"
                        "tolerance=1e-08,rows=5\n" + body)
        with pytest.raises(TableIntegrityError, match="smtable-v2"):
            load_table(path)

    def test_load_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("something-else,deadbeef\n0.0,0.0\n")
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_load_rejects_non_monotone_rows(self, tmp_path):
        table = SecondMomentTable()
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        rows = path.read_text().splitlines()[1:]
        # I values swapped under a valid checksum, so the order check fires
        (t1, i1), (t2, i2) = rows[1].split(","), rows[2].split(",")
        rows[1:3] = [f"{t1},{i2}", f"{t2},{i1}"]
        write_artifact(path, quadrature._TABLE_HEADER,
                       "\n".join(rows) + "\n")
        with pytest.raises(TableIntegrityError, match="never falling"):
            load_table(path)

    @pytest.mark.parametrize("cut", [
        lambda text: text[:-5],                          # inside a number
        lambda text: text[:text.rindex("\n", 0, -1) + 1],  # a whole row
    ], ids=["in-last-number", "last-row"])
    def test_load_rejects_cut_table(self, tmp_path, cut):
        table = SecondMomentTable()
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        path.write_text(cut(path.read_text()))
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_load_rejects_shifted_checkpoint(self, tmp_path):
        table = SecondMomentTable()
        table.ensure(192.0)
        path = tmp_path / "table.csv"
        save_table(table, path)
        rows = path.read_text().splitlines()[1:]
        _, i_str = rows[2].split(",")
        rows[2] = f"{130.0!r},{i_str}"      # checkpoint 2 belongs at 128
        # under a valid checksum, so the grid check fires
        write_artifact(path, quadrature._TABLE_HEADER,
                       "\n".join(rows) + "\n")
        with pytest.raises(TableIntegrityError, match="stride grid"):
            load_table(path)


class TestCumulativeI:
    def test_at_zero(self, smtable):
        assert cumulative_I(0.0, smtable) == 0.0

    def test_negative_rejected(self, smtable):
        for T in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                cumulative_I(T, smtable)

    def test_difference_matches_direct_integral(self, smtable):
        t1, t2 = 1.0e4 + 3.0, 1.0e4 + 41.5
        diff = cumulative_I(t2, smtable) - cumulative_I(t1, smtable)
        direct = _int_z2(t1, t2)
        assert abs(diff - direct) <= 2.0 * ABS_TOL

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

    def test_report_fields(self):
        rep = hl_moment(2.0e4, 2.0)
        assert isinstance(rep, MomentReport)
        assert rep.U0 == pytest.approx(2.0e4 ** 0.5001, rel=1e-14)
        assert rep.jbar >= 0.0
        assert rep.ratio == rep.jbar / (TWO_PI * rep.H * rep.U0)
        d = rep.as_dict()
        assert d["schema"] == "moment-v1"
        assert set(d) == {"schema", "T", "H", "U0", "jbar", "ratio"}

    def test_deterministic_across_calls(self):
        r1 = hl_moment(1.0e4, 1.5)
        r2 = hl_moment(1.0e4, 1.5)
        assert r1.jbar == r2.jbar and r1.ratio == r2.ratio

    @pytest.mark.parametrize("h", [0.3, 0.5])
    def test_windowed_square_of_polynomial_chain_exact(self, h):
        # on each panel the integrand is 1 + P_14 of the panel's own
        # coordinate x, so the chain is exact and its prefix is
        # t - a0 + hw Q(x) with Q = (P_15 - P_13)/29, zero at both panel
        # ends.  The window W(t) = P(t + h) - P(t) changes formula at edges
        # and at edges - h, and on a piece it has a full degree-15 term:
        # GL15 misses W^2 there, GL16 does not.
        a0, b0 = 1.0, 5.0
        edges = _initial_edges(a0, b0, 0.5)
        leg14 = npleg.Legendre.basis(14)

        def f(ts):
            i = np.searchsorted(edges, ts, side="right") - 1
            hw = 0.5 * (edges[i + 1] - edges[i])
            return 1.0 + leg14((ts - edges[i]) / hw - 1.0)

        chain = PanelChain.build(a0, b0, f)
        assert np.array_equal(chain.edges, edges)
        a, b = 1.1, b0 - h
        got = chain.windowed_sq_integral(a, b, h)

        # the same integral in exact rationals, piece by piece, with
        # polynomials as ascending coefficient lists in z = t - u
        leg = [[Fraction(1)], [Fraction(0), Fraction(1)]]
        for n in range(1, 15):
            nxt = [Fraction(0)] + [(2 * n + 1) * c for c in leg[n]]
            for m, c in enumerate(leg[n - 1]):
                nxt[m] -= n * c
            leg.append([c / (n + 1) for c in nxt])
        q = [(c - (leg[13][m] if m < 14 else 0)) / 29
             for m, c in enumerate(leg[15])]

        def mul(p, r):
            out = [Fraction(0)] * (len(p) + len(r) - 1)
            for m, c in enumerate(p):
                for n, d in enumerate(r):
                    out[m + n] += c * d
            return out

        fe, fh = [Fraction(e) for e in edges], Fraction(h)

        def prefix_poly(u, shift):
            # hw_k Q(x_k(u + shift + z)) on the panel k holding u + shift
            t = u + shift
            k = max(m for m in range(len(fe) - 1) if fe[m] <= t)
            hw = (fe[k + 1] - fe[k]) / 2
            lin = [(t - fe[k]) / hw - 1, 1 / hw]
            out = [Fraction(0)]
            for c in reversed(q):
                out = mul(out, lin)
                out[0] += c
            return [hw * c for c in out]

        fa, fb = Fraction(a), Fraction(b)
        brk = sorted({fa, fb} | {e for e in fe if fa < e < fb}
                     | {e - fh for e in fe if fa < e - fh < fb})
        want = Fraction(0)
        for u, v in zip(brk, brk[1:]):
            w = [p - r for p, r in zip(prefix_poly(u, fh),
                                       prefix_poly(u, Fraction(0)))]
            w[0] += fh
            want += sum(c * (v - u) ** (m + 1) / (m + 1)
                        for m, c in enumerate(mul(w, w)))
        assert abs(got - float(want)) <= 1e-13 * float(want)
        for bad in ((a, b0, h), (a, b, -h), (a0 - h, b, h)):
            with pytest.raises(RangeError):
                chain.windowed_sq_integral(*bad)

    @pytest.mark.parametrize("T", [2.0e4, 2.0e5])
    def test_windowed_square_matches_adaptive_outer_integral(self, T):
        # the adaptive integral of the squared prefix difference is the
        # reference: the same chain, integrated to its tolerance
        h, u0 = 2.0, T ** 0.5001
        chain = z_chain(T, T + u0 + h)
        ref = adaptive_integrate(
            lambda ts, _: chain.integral(ts, ts + h) ** 2, T, T + u0)
        got = chain.windowed_sq_integral(T, T + u0, h)
        assert abs(got - ref.value) <= 1e-11 * ref.value
        assert hl_moment(T, h).jbar == got
