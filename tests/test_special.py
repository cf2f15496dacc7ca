"""Pointwise special-function checks against frozen oracle values.

Reference numbers were computed independently with mpmath at 30 digits
and frozen here; the suite never imports mpmath at run time.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaladder import special
from zetaladder.errors import DomainError
from zetaladder.quadrature import (QuadConfig, _panel_freq,
                                   adaptive_integrate, z2_values, z_values)
from zetaladder.special import (RS_MIN, CriticalPoint, RSConfig, TWO_PI,
                                em_zeta_half, riemann_siegel_z,
                                riemann_siegel_z_values, tau, theta, z_phase)

# mpmath mp.dps=30: zeta(0.5), |zeta(0.5+100j)|, theta and Z at spot heights
ZETA_HALF = -1.4603545088095868
THETA_REF = {
    50.0: 26.46136607016141,
    100.0: 87.97216523178722,
    1000.0: 2034.5464280380315,
}
Z_REF = {
    50.0: -0.340735005955025,
    100.0: 2.6926970566644637,
    1000.0: 0.9977946375215866,
    10000.0: -0.34139472423120854,
}
# theta(t) mod 2pi at 200 bits (mpmath siegeltheta), to 30 digits; the
# heights ending in .125 and .375 sit 1/8 from their anchors
THETA_MOD_REF = {
    1.0: "4.51563735436729608862307026729",
    5.5: "2.7781768238338607887536704163",
    14.134725: "4.5545150030623097740030758168",
    20.0: "1.18689480844448404481275654949",
    25.132741228718345: "4.46244803495647329656251602673",
    50.0: "1.32862484144306373975380734554",
    100.0: "0.00757093127300894852911438192261",
    1000.5: "0.0619205441632620333910962965705",
    12000.0: "1.85963918213190092236538785352",
    100000.0: "4.89591864238817406130945534968",
    314159.25: "2.39631906035623944810701501543",
    1000000.0: "1.5979149177270622465431291794",
    12000.125: "2.331813561531069170949887265",
    12000.375: "3.27616427342728052140904816836",
    100000.125: "5.50060920636045255246989151645",
    100000.375: "0.426805261500032435612047518115",
    1000000.125: "2.34651701485549251840058711738",
    1000000.375: "3.84372123254984915586824957422",
}
TWO_PI_EXACT = Fraction(Decimal("6.283185307179586476925286766559005768394"))
# Z by the first-order Riemann-Siegel formula (main sum plus the first
# correction term) at the double-double heights hi + lo, lo about half an
# ulp of hi: 200-bit mpmath (siegeltheta, the main sum and psi), to 30
# digits.  Z at hi alone is 2.7e-10 to 7.8e-10 away from each.
Z_DD_REF = {
    (1000000.3, 4.773028194904327e-11): "-3.4127083268425071340121783363",
    (999999.871, -5.471520125865936e-11): "-1.03420625888294591279153707557",
    (1000003.1416, 3.3760443329811094e-11): "2.68367024113484593790680699316",
}
GAMMA_1 = 14.134725141734695
# C in the Riemann-Siegel remainder envelope C * t^(-1/4) that the checks
# against the oracle allow
RS_BAND_C = 2.0


def oracle_z(t: float) -> float:
    """Real part of the rotated zeta oracle; equals Z up to the remainder."""
    return (z_phase(t) * em_zeta_half(t)).real


class TestTau:
    def test_unit_height(self):
        assert tau(TWO_PI) == 1.0

    def test_four_periods(self):
        assert tau(8.0 * math.pi) == 2.0

    def test_zero(self):
        assert tau(0.0) == 0.0

    def test_negative_rejected(self):
        for t in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                tau(t)

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_monotone_and_square(self, t):
        v = tau(t)
        assert v >= 0.0
        assert math.isclose(v * v * TWO_PI, t, rel_tol=1e-12, abs_tol=1e-300)


class TestTheta:
    @pytest.mark.parametrize("t", sorted(THETA_REF))
    def test_frozen_values(self, t):
        assert theta(t) == pytest.approx(
            THETA_REF[t], abs=5e-12 * max(1.0, abs(THETA_REF[t])))

    def test_finite_difference_slope_at_two_pi_e(self):
        t, h = TWO_PI * math.e, 1e-4
        fd = (theta(t + h) - theta(t - h)) / (2.0 * h)
        assert fd == pytest.approx(0.5, abs=1e-3)

    def test_derivative_matches_fd_along_range(self):
        # the panel sizing's frequency is theta' from 8pi on
        h = 1e-3
        for t in np.geomspace(RS_MIN, 1e5, 25):
            fd = (theta(t + h) - theta(t - h)) / (2.0 * h)
            assert abs(fd - _panel_freq(t)) <= max(1e-6, 1.0 / t)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta(0.0)
        with pytest.raises(DomainError):
            theta(-5.0)


def _theta_mod_errors(below_rs_min: bool):
    ts = [t for t in THETA_MOD_REF if (t < RS_MIN) == below_rs_min]
    got = special._theta_reduced(np.array(ts))
    for t, g in zip(ts, got.tolist()):
        d = abs(Fraction(g) - Fraction(Decimal(THETA_MOD_REF[t])))
        yield t, min(d, TWO_PI_EXACT - d)


class TestThetaReduced:
    def test_asymptotic_series_range(self):
        for t, err in _theta_mod_errors(below_rs_min=False):
            assert err <= Fraction(2e-15), t

    def test_stirling_range(self):
        for t, err in _theta_mod_errors(below_rs_min=True):
            assert err <= Fraction(1e-14), t


class TestRSConfig:
    def test_bad_correction_order(self):
        with pytest.raises(DomainError):
            RSConfig(correction_order=2)


class TestRiemannSiegelZ:
    @pytest.mark.parametrize("t", sorted(Z_REF))
    def test_frozen_values(self, t):
        # the first correction term leaves a remainder well under t^(-3/4)
        point = riemann_siegel_z(t)
        assert abs(point.z - Z_REF[t]) <= t ** -0.75

    def test_critical_point_fields(self):
        p = riemann_siegel_z(100.0)
        assert isinstance(p, CriticalPoint)
        assert p.t == 100.0
        assert p.zeta_abs == abs(p.z)
        assert p.theta == pytest.approx(THETA_REF[100.0], abs=1e-9)

    def test_against_oracle_random_sample(self):
        cfg = RSConfig()
        rng = np.random.default_rng(42)
        for t in rng.uniform(50.0, 5000.0, 200):
            diff = abs(riemann_siegel_z(float(t), cfg).z - oracle_z(float(t)))
            assert diff <= RS_BAND_C * t ** -0.25

    def test_first_zero_bisection(self):
        # bracket the first sign change of the oracle and bisect it down
        a, b = 14.0, 14.2
        assert oracle_z(a) * oracle_z(b) < 0.0
        for _ in range(60):
            m = 0.5 * (a + b)
            if oracle_z(a) * oracle_z(m) <= 0.0:
                b = m
            else:
                a = m
        root = 0.5 * (a + b)
        assert root == pytest.approx(GAMMA_1, abs=1e-6)
        # the asymptotic Z is small there but only to its remainder bound
        assert abs(riemann_siegel_z(root).z) <= 2.0 * root ** -0.25

    def test_sign_change_count_10_100(self):
        ts = np.arange(10.0, 100.0 + 1e-9, 0.01)
        zs = riemann_siegel_z_values(ts)
        flips = np.count_nonzero(np.signbit(zs[:-1]) != np.signbit(zs[1:]))
        assert int(flips) == 29

    def test_vector_path_matches_scalar(self):
        ts = np.linspace(60.0, 61.0, 7)
        vec = riemann_siegel_z_values(ts)
        for t, v in zip(ts, vec):
            assert riemann_siegel_z(float(t)).z == v

    def test_point_bit_equal_to_one_point_calls(self):
        # the scalar call evaluates theta once for both fields; each must
        # keep the bits of its own one-point evaluator, on both sides of 8pi
        rng = np.random.default_rng(7)
        ts = np.concatenate((rng.uniform(TWO_PI, RS_MIN, 40),
                             RS_MIN + np.array([-1e-9, 0.0, 1e-9]),
                             np.geomspace(RS_MIN, 1e6, 157)
                             * rng.uniform(0.999, 1.0, 157)))
        for t in ts.tolist():
            point = riemann_siegel_z(t)
            assert point.z == riemann_siegel_z_values(np.array([t]))[0]
            assert point.theta == theta(t)

    def test_below_two_pi_refused(self):
        for bad in (6.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                riemann_siegel_z(bad)
            with pytest.raises(DomainError):
                riemann_siegel_z_values(np.array([bad]))
            with pytest.raises(DomainError):
                riemann_siegel_z_values(np.array([bad, 100.0]))
            with pytest.raises(DomainError):
                riemann_siegel_z_values(np.array([100.0, bad]))

    def test_order_zero_still_inside_band(self):
        cfg0 = RSConfig(correction_order=0)
        for t in (100.0, 1000.0, 10000.0):
            d = abs(riemann_siegel_z(t, cfg0).z - oracle_z(t))
            assert d <= RS_BAND_C * t ** -0.25


class TestRemainders:
    """Heights given as a float t plus an exact remainder dt (dts=)."""

    TS = np.array([7.5, 20.0, RS_MIN, 100.0, 12000.125, 1.0e5 + 0.3,
                   1.0e6 + 0.7])

    def test_zero_remainder_is_bit_equal(self):
        zero = np.zeros_like(self.TS)
        assert np.array_equal(z_values(self.TS, dts=zero), z_values(self.TS))
        ts = self.TS[self.TS >= RS_MIN]
        assert np.array_equal(
            riemann_siegel_z_values(ts, dts=np.zeros_like(ts)),
            riemann_siegel_z_values(ts))

    def test_double_double_heights_frozen(self):
        for (hi, lo), digits in Z_DD_REF.items():
            ref = Fraction(Decimal(digits))
            got = z_values(np.array([hi]), dts=np.array([lo]))[0]
            assert abs(Fraction(got) - ref) <= Fraction(2e-14), hi
            # without its remainder the height is a different one
            rounded = z_values(np.array([hi]))[0]
            assert abs(Fraction(rounded) - ref) > Fraction(2e-10), hi

    def test_batch_invariant(self):
        rng = np.random.default_rng(19)
        ts = np.concatenate((rng.uniform(10.0, 100.0, 20),
                             np.geomspace(100.0, 1e6, 80)
                             * rng.uniform(0.999, 1.0, 80)))
        dts = rng.uniform(-0.5, 0.5, ts.size) * np.spacing(ts)
        batch = z_values(ts, dts=dts)
        alone = np.array([z_values(ts[i:i + 1], dts=dts[i:i + 1])[0]
                          for i in range(ts.size)])
        assert np.array_equal(alone, batch)

    def test_bare_evaluator_refused_as_integrand(self):
        # adaptive_integrate calls fvec(t, dt); bare, dt would bind to
        # rs_cfg, below 8pi as above it
        for a in (10.0, 1.0e4):
            with pytest.raises(TypeError):
                adaptive_integrate(z2_values, a, a + 1.0, QuadConfig())


class TestEmZetaHalf:
    def test_at_zero(self):
        v = em_zeta_half(0.0)
        assert v.real == pytest.approx(ZETA_HALF, abs=1e-12)
        assert v.imag == 0.0

    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_modulus_matches_z(self, t):
        cfg = RSConfig()
        d = abs(abs(em_zeta_half(t)) - abs(riemann_siegel_z(t, cfg).z))
        assert d <= RS_BAND_C * t ** -0.25

    def test_rotation_is_real_at_500(self):
        assert abs((z_phase(500.0) * em_zeta_half(500.0)).imag) <= 1e-8

    def test_rotation_is_real_over_range(self):
        for t in np.geomspace(10.0, 1e6, 100):
            assert abs((z_phase(float(t)) * em_zeta_half(float(t))).imag) \
                <= 1e-8

    def test_negative_rejected(self):
        for t in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                em_zeta_half(t)

    def test_phase_is_unimodular(self):
        for t in (10.0, 123.4, 9999.0, 7.5e5):
            assert abs(abs(z_phase(t)) - 1.0) <= 1e-15
