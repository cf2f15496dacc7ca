"""The main-sum kernel against frozen high-precision values, and the phase
and power tables it reads."""

from __future__ import annotations

import math
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from zetaladder import _tables, kernels
from zetaladder.errors import RangeError
from zetaladder.quadrature import adaptive_integrate, z2_values
from zetaladder.special import riemann_siegel_z_values

TWO_PI = kernels.TWO_PI
TWO_PI_EXACT = Fraction(Decimal("6.283185307179586476925286766559005768394"))

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
# 2 sum_{n <= floor(tau)} n^{-1/2} cos(theta - t ln n) at (t, theta); the
# last twelve sit 1/8, 3/8 and (on the anchor-cell edges, the largest
# offset) 1/2 from their anchors
MAIN_SUM_REF = {
    (12000.0, 0.5): "-0.324473965892499305145198522405",
    (12345.678, 3.0): "-0.985497144061877623498144188918",
    (100000.0, 5.9): "8.23420374917576856762432856824",
    (100003.25, 1.25): "2.82981549892942355610467588082",
    (1000000.0, 2.0): "-3.82301744589577586092840483077",
    (999983.5, 4.75): "5.65031958069760080838911629899",
    (12000.125, 1.5): "-1.12855132812075600457299185448",
    (12000.375, 1.5): "-3.26935785603523467360495526457",
    (100000.125, 4.0): "-3.09333814268460599714133083148",
    (100000.375, 4.0): "-5.3771740659292067899039647796",
    (1000000.125, 0.25): "3.47783652931093864316954106466",
    (1000000.375, 0.25): "2.84980520685343951452611503137",
    (12000.5, 1.5): "-4.00478307471058767691495470553",
    (12001.5, 1.5): "3.28714576816833756543105191054",
    (100000.5, 4.0): "-5.21950071025673863875544318317",
    (100001.5, 4.0): "-2.94586377457780580320801993964",
    (1000000.5, 0.25): "1.64517352233847535964805568115",
    (1000001.5, 0.25): "0.213787178369877354273374079062",
}
# the main sum at theta = 2 in the anchor cell [12163.5, 12164.5] that
# holds tau = 44 (t = 12164.2467546...): floor(tau) is 43 for the first two
# points and 44 for the last two
CROSSING_REF = {
    12164.126: "-7.95203245278669296061859537682",
    12164.246753699677: "-8.28838815439486900241704060716",
    12164.246755699678: "-8.07812712442547391782145900332",
    12164.374: "-7.88881772684094522285772735999",
}
# the correction term (-1)^(N-1) psi(p) / sqrt(tau), N = floor(tau),
# p = frac(tau), psi = cos(2pi(p^2 - p - 1/16)) / cos(2pi p), at t with
# tau = k + 1/4 or k + 3/4 (-1e-4, +0, +1e-4), k = 44 and 126, where psi is
# 0/0 at the middle point
PSI_REF = {
    12302.81392441219: "-0.0751797243792043565241962133989",
    12302.869530539328: "-0.075164602800283039382798143624",
    12302.925136792132: "-0.0751494886740709638845715288594",
    12582.415042263152: "-0.0747286477572791108232182343556",
    12582.47127670882: "-0.0747435092751935139545978434248",
    12582.527511280154: "-0.0747583781368719264478342258242",
    100147.92465985093: "-0.0445083356553610063011117987934",
    100148.08331021713: "-0.0444994159489982906769469368674",
    100148.24196070897: "-0.0444905006416235099534500069317",
    100942.74697289063: "-0.0444026965639350251346433552657",
    100942.90625157535: "-0.0444115591684328300182210338525",
    100943.06553038572: "-0.0444204261491883896429639305743",
}
# main sum plus correction term at (t, theta); the last two sit 1e-4 from
# p = 1/4 and 3/4
ORDER1_REF = {
    (12000.0, 0.5): "-0.25527495492464202378097844103",
    (100000.0, 5.9): "8.17934171181120119909308242966",
    (1000000.0, 2.0): "-3.86276247622851574716757877933",
    (12302.925136792132, 1.0): "-1.76391537808377260504524109484",
    (100942.74697289063, 4.0): "0.0743678095699320369222359587166",
}


def _exact(digits: str) -> Fraction:
    return Fraction(Decimal(digits))


def _centred_equal(got, ref, k):
    """A centred-power table read equals the first k rows of a reference
    build, centre included."""
    return got[0] == ref[0] and np.array_equal(got[1], ref[1][:k])


def _z(ts, thetas, correction, dts=None):
    """The main sum, plus the first correction term if correction is 1."""
    out = kernels.z_main_sum(ts, thetas, dts)
    return out + kernels.rs_correction(ts) if correction else out


class TestPhaseTables:
    def test_ln_table_is_double_double(self):
        hi, lo = _tables.ln_dd(np.array([float(n) for n in LN_REF]))
        for h, l, (n, digits) in zip(hi.tolist(), lo.tolist(), LN_REF.items()):
            want = _exact(digits)
            err = Fraction(h) + Fraction(l) - want
            assert abs(err) <= want / 2 ** 104, n

    def test_turns_table_is_double_double(self):
        hi, lo = _tables.ln_n_turns(max(LN_REF))
        for n, digits in LN_REF.items():
            want = _exact(digits) / TWO_PI_EXACT
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
        # (ln m - c)^j / j!: an entry does not depend on the table's order
        build = _tables.centred_powers
        c, powers = build(20, 3000)
        assert np.array_equal(powers[:7], build(7, 3000)[1])
        assert build(7, 3000)[0] == c

    def test_centred_powers_match_exact(self):
        # c = (ln 1000) / 2, and (ln m - c)^j / j! within the roundoff of
        # x = ln m - c (1e-15) carried through x^j / j!, plus j roundings
        c, powers = _tables.centred_powers(24, 1000)
        want_c = _exact(LN_REF[1000]) / 2
        assert abs(Fraction(c) - want_c) <= want_c / 2 ** 52
        for m in (n for n in LN_REF if n <= 1000):
            x = _exact(LN_REF[m]) - Fraction(c)
            for j in range(1, 24):
                want = x ** j / math.factorial(j)
                err = abs(Fraction(float(powers[j, m - 1])) - want)
                slope = abs(x) ** (j - 1) / math.factorial(j - 1)
                assert err <= Fraction(1e-15) * slope \
                    + j * abs(want) / 2 ** 52, (m, j)

    def test_concurrent_growth_reads_whole_tables(self, monkeypatch):
        # the sweep's pool threads grow and read the shared tables at once
        ref = _tables._build(0, 40000)
        ms = (1, 2, 43, 178, 399, 1023, 1025, 1500, 2047, 2049, 2500, 3000)
        ref_pow = {m: _tables.centred_powers(24, m) for m in ms}
        monkeypatch.setattr(_tables, "_tab", _tables._build(0, 1024))
        bad = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for n, k, m in zip(rng.integers(1, 40000, 30),
                               rng.integers(1, 25, 30),
                               rng.choice(ms, 30)):
                hi, lo = _tables.ln_n_turns(int(n))
                if not (np.array_equal(hi, ref[0][:n])
                        and np.array_equal(lo, ref[1][:n])
                        and np.array_equal(_tables.rsqrt_n(int(n)),
                                           ref[2][:n])
                        and _centred_equal(_tables.centred_powers(int(k),
                                                                  int(m)),
                                           ref_pow[m], k)):
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

    def test_centred_cache_is_bounded_and_read_only(self):
        # a table build to 1e6 visits every nv up to 399 in one process; the
        # kernel keeps the centred powers as its signed product blocks
        for nv in range(1, 400):
            _, blocks = kernels._signed_blocks(nv)
        assert kernels._signed_blocks.cache_info().currsize <= 16
        assert not blocks.flags.writeable

    def test_main_sum_frozen(self):
        ts = np.array([t for t, _ in MAIN_SUM_REF])
        thetas = np.array([th for _, th in MAIN_SUM_REF])
        got = kernels.z_main_sum(ts, thetas)
        for g, digits in zip(got.tolist(), MAIN_SUM_REF.values()):
            assert abs(Fraction(g) - _exact(digits)) <= Fraction(5e-15)


class TestZMainSum:
    def test_order_one_frozen(self):
        ts = np.array([t for t, _ in ORDER1_REF])
        thetas = np.array([th for _, th in ORDER1_REF])
        got = kernels.z_main_sum(ts, thetas) + kernels.rs_correction(ts)
        for g, digits in zip(got.tolist(), ORDER1_REF.values()):
            assert abs(Fraction(g) - _exact(digits)) <= Fraction(5e-15)

    @pytest.mark.parametrize("p0", [0.25, 0.75])
    def test_correction_term_at_removable_singularity(self, p0):
        # psi's 0/0 at p = p0 must not cost accuracy 1e-4 away from it
        ts = np.array([t for t in PSI_REF
                       if abs(math.sqrt(t / TWO_PI) % 1.0 - p0) < 1e-3])
        assert ts.size == 6
        got = kernels.rs_correction(ts)
        for t, g in zip(ts.tolist(), got.tolist()):
            err = Fraction(g) - _exact(PSI_REF[t])
            assert abs(err) <= Fraction(1e-14), t

    @pytest.mark.parametrize("p0", [0.25, 0.75])
    def test_z_continuous_where_psi_is_zero_over_zero(self, p0):
        # grids of step 1e-4 across the two heights near tau = 44 + p0 where
        # |cos 2pi p| = 1e-3: smooth Z changes its second differences by
        # ~1e-10 per step there, and a step in Z would show at its size
        eps = math.asin(1e-3) / TWO_PI
        for side in (-1.0, 1.0):
            t0 = TWO_PI * (44.0 + p0 + side * eps) ** 2
            z = riemann_siegel_z_values(t0 + 1e-4 * np.arange(-20, 21))
            assert np.abs(np.diff(z, 3)).max() <= 1e-8, side

    @pytest.mark.parametrize("correction", [0, 1])
    def test_fallback_batch_invariant(self, correction):
        # six points in each of twelve floor(tau) groups: every point must
        # come out bit for bit as it does when evaluated alone
        rng = np.random.default_rng(11)
        k = np.repeat(np.arange(3.0, 180.0, 16.0), 6)
        ts = TWO_PI * (k + rng.uniform(0.0, 1.0, k.size)) ** 2
        thetas = rng.uniform(0.0, TWO_PI, ts.size)
        batch = _z(ts, thetas, correction)
        alone = np.array([_z(ts[i:i + 1], thetas[i:i + 1], correction)[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)

    @pytest.mark.parametrize("correction", [0, 1])
    def test_batch_invariant_with_remainders(self, correction):
        # exact remainders of half an ulp or less, across twelve floor(tau)
        # groups: each point's bits depend on its own (t, dt, theta) alone
        rng = np.random.default_rng(23)
        k = np.repeat(np.arange(3.0, 400.0, 36.0), 6)
        ts = TWO_PI * (k + rng.uniform(0.0, 1.0, k.size)) ** 2
        dts = rng.uniform(-0.5, 0.5, ts.size) * np.spacing(ts)
        thetas = rng.uniform(0.0, TWO_PI, ts.size)
        batch = _z(ts, thetas, correction, dts)
        alone = np.array([_z(ts[i:i + 1], thetas[i:i + 1], correction,
                             dts[i:i + 1])[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)
        assert not np.array_equal(batch, _z(ts, thetas, correction))

    def test_fallback_wide_blocks_match_points_alone(self):
        # 600 points with floor(tau) = 126, over some 6,000 anchors: the
        # batch forms its moments in many anchor blocks, each point alone
        # in one
        rng = np.random.default_rng(13)
        ts = TWO_PI * (126.0 + rng.uniform(0.0, 1.0, 600)) ** 2
        thetas = rng.uniform(0.0, TWO_PI, ts.size)
        batch = kernels.z_main_sum(ts, thetas)
        alone = np.array([kernels.z_main_sum(ts[i:i + 1], thetas[i:i + 1])[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)

    def test_anchor_cell_spanning_integer_tau(self):
        # 10,000 shuffled points in the one anchor cell that holds tau = 44,
        # with the four frozen points among them: the cell's two groups
        # (floor(tau) = 43 and 44) each fill more than one block of points,
        # and every point matches itself alone and the 200-bit main sum
        rng = np.random.default_rng(17)
        ref = np.array(list(CROSSING_REF))
        ts = rng.permutation(np.concatenate(
            (ref, rng.uniform(12163.5, 12164.5, 9996))))
        assert np.array_equal(kernels.anchors(ts), np.full(ts.size, 12164.0))
        thetas = np.full(ts.size, 2.0)
        for correction in (0, 1):
            batch = _z(ts, thetas, correction)
            picks = np.concatenate((np.flatnonzero(np.isin(ts, ref)),
                                    np.arange(0, ts.size, 50)))
            for i in picks.tolist():
                alone = _z(ts[i:i + 1], thetas[i:i + 1], correction)
                assert alone[0] == batch[i], (correction, ts[i])
            if correction == 0:
                got = dict(zip(ts.tolist(), batch.tolist()))
                for t, digits in CROSSING_REF.items():
                    err = Fraction(got[t]) - _exact(digits)
                    assert abs(err) <= Fraction(5e-15), t

    @pytest.mark.parametrize("height", [12000.0, 100000.0, 1000000.0])
    def test_z_continuous_across_anchor_edges(self, height):
        # grids of step 1e-4 across the cell edges 1/2 and 3/2 above height,
        # where the anchor of the moments changes: smooth Z has third
        # differences up to ~3e-9 there, and a step in Z would show at its
        # size
        for edge in (0.5, 1.5):
            ts = height + edge + 1e-4 * np.arange(-20, 21)
            assert np.unique(kernels.anchors(ts)).size == 2
            z = riemann_siegel_z_values(ts)
            assert np.abs(np.diff(z, 3)).max() <= 1e-8, edge

    def test_one_moment_row_per_unit_of_t(self, monkeypatch):
        # a 64-unit table segment at 1.2e4 forms its moments once per
        # integer anchor in [a, a + 64]: 65 rows (quarter-unit anchors made
        # 257), whatever the number of kernel calls
        rows = []
        moments = kernels._moments

        def counting(a, powers):
            rows.append(a.size)
            return moments(a, powers)

        monkeypatch.setattr(kernels, "_moments", counting)
        a = 64.0 * 188
        adaptive_integrate(z2_values, a, a + 64.0)
        assert 0 < sum(rows) <= 65

    @pytest.mark.parametrize("nv", [43, 126, 398])
    def test_moments_do_not_depend_on_tile_position(self, nv):
        # an anchor's moments are the same bits alone and with its cosine
        # row at tile positions 0, 13, 40 and 63 among random neighbours,
        # and a row's product is the same alone (one row, 63 of padding)
        # as among 200: every BLAS call has one shape.  Unpadded, one row
        # would be a vector product, summed in another order.
        rng = np.random.default_rng(nv)
        _, blocks = kernels._signed_blocks(nv)
        lo, hi = TWO_PI * nv ** 2, TWO_PI * (nv + 1) ** 2
        a = np.rint(rng.uniform(lo, hi, 1))
        alone = kernels._moments(a, blocks)[:, :, 0]
        rows = rng.standard_normal((200, blocks.shape[0] * kernels._NBLK))
        full = kernels._tile_product(rows, blocks)
        for pos in (0, 13, 40, 63):
            batch = np.rint(rng.uniform(lo, hi, 150))
            batch[pos] = a[0]
            got = kernels._moments(batch, blocks)[:, :, pos]
            assert np.array_equal(got, alone), pos
            row = kernels._tile_product(rows[pos:pos + 1], blocks)
            assert np.array_equal(row[0], full[pos]), pos

    def test_backend_names_numpy_and_its_blas(self, monkeypatch):
        numpy_part = f"numpy {np.__version__}, "
        assert kernels.backend_name().startswith(numpy_part)
        monkeypatch.setattr(np.__config__, "CONFIG", {})
        assert kernels.backend_name() == numpy_part + "unknown"

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(1e3, 1e5, 64)
        thetas = rng.uniform(0.0, TWO_PI, 64)
        a = _z(ts, thetas, 1)
        b = _z(ts, thetas, 1)
        assert np.array_equal(a, b)

    def test_empty_input(self):
        out = _z(np.array([]), np.array([]), 1)
        assert out.shape == (0,)

    def test_tiny_t_gives_empty_sum(self):
        # below 2pi the truncation length is zero and the main sum is 0
        out = kernels.z_main_sum(np.array([1.0]), np.array([0.3]))
        assert out[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernels.z_main_sum(np.zeros(3), np.zeros(2))

    def test_phase_reduction_range_guard(self):
        with pytest.raises(RangeError):
            kernels.z_main_sum(np.array([6.0e7]), np.array([0.0]))
