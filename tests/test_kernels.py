"""Backend selection and cross-backend agreement for the main-sum kernel."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from zetaladder import _tables, _zkern_py, kernels
from zetaladder.errors import RangeError
from zetaladder.special import riemann_siegel_z_values

TWO_PI = kernels.TWO_PI

# Frozen from 200-bit mpmath evaluations; the suite never imports mpmath.
# ln n, to 40 digits
LN_REF = {
    2: "0.6931471805599453094172321214581765680755",
    3: "1.098612288668109691395245236922525704647",
    7: "1.945910149055313305105352743443179729637",
    10: "2.302585092994045684017991454684364207601",
    64: "4.158883083359671856503392728749059408453",
    65: "4.174387269895637110654246774791506244331",
    97: "4.574710978503382822116721621703961713809",
    127: "4.844187086458591273047440807716292394874",
    128: "4.852030263919617165920624850207235976529",
    129: "4.859812404361672114868087750268372740207",
    1000: "6.907755278982137052053974364053092622803",
    4097: "8.318010277546871075715945936583942270605",
    10007: "9.211040127090456077999702743102603158226",
    65535: "11.09033963005364594459733350278309533138",
    99991: "11.51283546091998540368627620484148768702",
    131072: "11.78350206951907026009294606478900165728",
    250000: "12.42921619684438348527348448518983210946",
    333333: "12.71689726929566441237936990785012620746",
    499979: "13.12232137652230409791276646748673711813",
    500000: "13.12236337740432879469071660664800867753",
}
# 2 sum_{n <= floor(tau)} n^{-1/2} cos(theta - t ln n) at (t, theta)
MAIN_SUM_REF = {
    (12000.0, 0.5): "-0.324473965892499305145198522405",
    (12345.678, 3.0): "-0.985497144061877623498144188918",
    (100000.0, 5.9): "8.23420374917576856762432856824",
    (100003.25, 1.25): "2.82981549892942355610467588082",
    (1000000.0, 2.0): "-3.82301744589577586092840483077",
    (999983.5, 4.75): "5.65031958069760080838911629899",
}


def _reference(ts, thetas, order):
    nmax = int(np.sqrt(float(ts.max()) / TWO_PI)) + 1
    out = np.empty_like(ts)
    _zkern_py.z_main_sum(ts, thetas, _tables.ln_n(nmax),
                         _tables.ln_n_lo(nmax), _tables.rsqrt_n(nmax),
                         order, out)
    return out


class TestBackendSelection:
    def test_name_is_known(self):
        assert kernels.backend_name() in ("cython", "python")

    def test_compiled_backend_active_when_available(self):
        pytest.importorskip("zetaladder._zkern")
        if os.environ.get("ZL_PURE_PY", "") in ("", "0"):
            assert kernels.backend_name() == "cython"

    def test_pure_python_env_selects_fallback(self, tmp_path):
        ts = [100.0, 1000.0, 10000.0, 99123.456]
        script = (
            "import json, numpy as np\n"
            "from zetaladder import kernels\n"
            "from zetaladder.special import riemann_siegel_z_values\n"
            f"zs = riemann_siegel_z_values(np.array({ts!r}))\n"
            "print(json.dumps({'backend': kernels.backend_name(),"
            " 'zs': zs.tolist()}))\n")
        env = dict(os.environ, ZL_PURE_PY="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        payload = json.loads(proc.stdout)
        assert payload["backend"] == "python"
        here = riemann_siegel_z_values(np.array(ts))
        assert np.max(np.abs(np.array(payload["zs"]) - here)) <= 2e-12


def _exact(digits: str) -> Fraction:
    return Fraction(Decimal(digits))


class TestPhaseTables:
    def test_ln_table_is_double_double(self):
        top = max(LN_REF)
        hi, lo = _tables.ln_n(top), _tables.ln_n_lo(top)
        for n, digits in LN_REF.items():
            want = _exact(digits)
            err = Fraction(float(hi[n - 1])) + Fraction(float(lo[n - 1]))
            err -= want
            assert abs(err) <= want / 2 ** 104, n

    def test_grown_table_equals_one_build(self):
        tab = _tables._build(0, 1024)
        for n in (5000, 70000):
            tab = _tables._extend(tab, n)
        assert tab[0].shape == (70000,)
        for grown, built in zip(tab, _tables._build(0, 70000)):
            assert np.array_equal(grown, built)
        # doubling: one entry past the end grows the table to twice its size
        assert _tables._extend(tab, 70001)[0].shape == (140000,)

    def test_concurrent_growth_reads_whole_tables(self, monkeypatch):
        # the sweep's pool threads grow and read the shared tables at once
        ref = _tables._build(0, 40000)
        monkeypatch.setattr(_tables, "_tab", _tables._build(0, 1024))
        bad = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for n in rng.integers(1, 40000, 30):
                hi, lo = _tables.ln_n_turns(int(n))
                if not (np.array_equal(hi, ref[2][:n])
                        and np.array_equal(lo, ref[3][:n])
                        and np.array_equal(_tables.rsqrt_n(int(n)),
                                           ref[4][:n])):
                    bad.append(int(n))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert bad == []

    def test_main_sum_frozen(self):
        ts = np.array([t for t, _ in MAIN_SUM_REF])
        thetas = np.array([th for _, th in MAIN_SUM_REF])
        got = kernels.z_main_sum(ts, thetas, 0)
        for g, digits in zip(got.tolist(), MAIN_SUM_REF.values()):
            assert abs(Fraction(g) - _exact(digits)) <= Fraction(5e-15)


class TestZMainSum:
    @pytest.mark.parametrize("order", [0, 1])
    def test_matches_numpy_fallback(self, order):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.uniform(50.0, 2.0e5, 300))
        # place a few points at the removable psi singularity tau mod 1 = 1/4
        near = TWO_PI * (np.arange(5.0, 15.0) + 0.25) ** 2
        ts = np.concatenate([ts, near])
        thetas = rng.uniform(0.0, TWO_PI, ts.shape[0])
        got = kernels.z_main_sum(ts, thetas, order)
        ref = _reference(ts, thetas, order)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 2e-12

    @pytest.mark.parametrize("order", [0, 1])
    def test_fallback_batch_invariant(self, order):
        # six points in each of twelve floor(tau) groups: every point must
        # come out bit for bit as it does when evaluated alone
        rng = np.random.default_rng(11)
        k = np.repeat(np.arange(3.0, 180.0, 16.0), 6)
        ts = TWO_PI * (k + rng.uniform(0.0, 1.0, k.size)) ** 2
        thetas = rng.uniform(0.0, TWO_PI, ts.size)
        batch = _reference(ts, thetas, order)
        alone = np.array([_reference(ts[i:i + 1], thetas[i:i + 1], order)[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)

    def test_fallback_wide_blocks_match_points_alone(self):
        # 600 points with floor(tau) = 126: the batch sums numpy row blocks
        # (two of them), each point alone sums on Python floats
        rng = np.random.default_rng(13)
        ts = TWO_PI * (126.0 + rng.uniform(0.0, 1.0, 600)) ** 2
        thetas = rng.uniform(0.0, TWO_PI, ts.size)
        batch = _reference(ts, thetas, 0)
        alone = np.array([_reference(ts[i:i + 1], thetas[i:i + 1], 0)[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(1e3, 1e5, 64)
        thetas = rng.uniform(0.0, TWO_PI, 64)
        a = kernels.z_main_sum(ts, thetas, 1)
        b = kernels.z_main_sum(ts, thetas, 1)
        assert np.array_equal(a, b)

    def test_empty_input(self):
        out = kernels.z_main_sum(np.array([]), np.array([]), 1)
        assert out.shape == (0,)

    def test_tiny_t_gives_empty_sum(self):
        # below 2pi the truncation length is zero and order 0 returns 0
        out = kernels.z_main_sum(np.array([1.0]), np.array([0.3]), 0)
        assert out[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.z_main_sum(np.zeros(3), np.zeros(2), 1)

    def test_phase_reduction_range_guard(self):
        with pytest.raises(RangeError):
            kernels.z_main_sum(np.array([6.0e7]), np.array([0.0]), 1)
