"""Critical-line special functions.

Two independent evaluation routes live here and are kept independent on
purpose.  `riemann_siegel_z_values` is the production evaluator: main sum to
floor(sqrt(t/2pi)) terms plus the first correction term, with a remainder
that decays like t^(-3/4).
`em_zeta_half` is the oracle: Euler-Maclaurin evaluation of zeta(1/2 + it)
with an explicit remainder bound, truncated far beyond the asymptotic knee so
the absolute error stays below 1e-10 up to t = 1e6.  Everything downstream
that cross-checks the two relies on them sharing no code beyond the phase
tables.

Each quantity has one evaluator, vectorized: theta comes from `_theta_dd`,
the phase factor from `z_phases`, Z from `riemann_siegel_z_values` and
zeta from `em_zeta_half`, whose main sum runs in blocks with fixed edges
in n.  `theta`, `z_phase` and the float forms of `riemann_siegel_z` and
`em_zeta_half` are one-point calls, so a height gives the same bits
alone, in a batch, or through either interface.

Phases are the precision bottleneck: t * ln n reaches ~1e7 rad while the
reality identity Z(t) = e^{i theta(t)} zeta(1/2+it) is tested at the 1e-8
level.  Phase products are formed in double-double float64 from the `_tables`
ln n / 2pi table and reduced mod 1 turn.  theta for t >= 8pi comes from its
asymptotic series: the leading (t/2)(ln(t/2pi) - 1) is formed in
double-double once per unit anchor a (`kernels.anchors`, the anchors of the
main-sum moments), and each t = a + delta adds the exact increment of
that term from a to t, about theta'(a) delta, in float64; a height given
as t plus an exact remainder dt (a quadrature node) has delta = (t - a) + dt
here and in the kernel.  The sum is reduced mod 2pi.  theta mod 2pi is then
within ~1e-15 rad of its true value up to t = 1e6 (~1e-14 below 8pi, where
a complex128 Stirling series is used), and nothing depends on the
platform's long double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _tables, kernels
from .errors import DomainError, PrecisionError

TWO_PI = 2.0 * math.pi

RS_MIN = 4.0 * TWO_PI  # below this, integrands evaluate through the oracle

_LN_PI = math.log(math.pi)
# ln(2pi) + 1 as a double-double
_LN_2PI_E = _tables.dd_add(*_tables.LN_TWO_PI_DD, 1.0, 0.0)

# B_{2k} / ((2k)(2k-1)) for the Stirling series, k = 1..5 (B2..B10); enough
# for < 1e-14 truncation once |z| >= 12.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0)

# theta(t) = (t/2)(ln(t/2pi) - 1) - pi/8 + sum_k c_k t^(1-2k), k = 1..5; the
# next term is below 4e-19 at t = 8pi
_THETA_SERIES = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0,
                 127.0 / 430080.0, 511.0 / 1216512.0)

# B_{2k} / (2k)! for Euler-Maclaurin, k = 1..13, from the exact rationals.
_B2K = (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), \
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), \
    (-236364091, 2730), (8553103, 6)
_B2K_FACT = tuple(p / (q * math.factorial(2 * k))
                  for k, (p, q) in enumerate(_B2K, start=1))

EM_TOL = 1e-10  # the oracle's remainder bound
_EM_EDGES = (0, 64, 128, 256, 512, 1024, 2048, 4096)  # its first blocks

# Z's form, one part of every cached artifact's key: the main sum plus the
# first correction term C0 from RS_MIN up, the oracle below
VERSION = f"z-main+c0,RS_MIN={RS_MIN!r},EM_TOL={EM_TOL!r}"


@dataclass(frozen=True)
class CriticalPoint:
    """One evaluated point on the critical line, or arrays of them."""

    t: float
    z: float
    theta: float


def tau(t: float) -> float:
    """Truncation length sqrt(t / 2pi) of the main sum."""
    if not 0 <= t < math.inf:
        raise DomainError(f"tau needs finite t >= 0, got {t}")
    return math.sqrt(t / TWO_PI)


def _theta_lead(ts: np.ndarray):
    """(t/2)(ln(t/2pi) - 1) - pi/8 as a double-double (hi, lo), t > 0, and
    ln(t/2pi) - 1 rounded to float64."""
    hi, lo = _tables.ln_dd(ts)
    ell, lo = _tables.dd_add(hi, lo, -_LN_2PI_E[0], -_LN_2PI_E[1])
    hi, lo = _tables.dd_mul(ell, lo, 0.5 * ts, 0.0)
    return (*_tables.dd_add(hi, lo, -_tables.PI_DD[0] / 8,
                            -_tables.PI_DD[1] / 8), ell)


def _theta_stirling(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im ln Gamma(1/4 + it/2) - (t/2) ln pi in complex128, for
    t where theta is O(1): shift z right until |z| >= 12 (at most twelve
    times), then Stirling through B10 (the real 0.5 ln 2pi drops out)."""
    z = 0.25 + 0.5j * ts
    acc = np.zeros(ts.shape, dtype=np.complex128)
    for _ in range(12):
        small = np.abs(z) < 12.0
        if not small.any():
            break
        acc[small] += np.log(z[small])
        z[small] += 1.0
    w = 1.0 / z
    w2 = w * w
    ser = np.full(ts.shape, _STIRLING[4], dtype=np.complex128)
    for c in (_STIRLING[3], _STIRLING[2], _STIRLING[1], _STIRLING[0]):
        ser = c + w2 * ser
    lg = (z - 0.5) * np.log(z) - z + w * ser - acc
    return lg.imag - 0.5 * ts * _LN_PI


def _theta_dd(ts: np.ndarray, dts: np.ndarray = None):
    """Unreduced theta(t) = hi + lo for an array of t > 0: the asymptotic
    series for t >= 8pi, Stirling (lo = 0) below.

    From 8pi on, the double-double leading term is taken once per anchor a
    (`kernels.anchors`), and t = a + delta adds its exact increment
    (t/2) ln(1 + delta/a) + (delta/2)(ln(a/2pi) - 1), within ~5e-16 rad
    since |delta| <= 1/2, and the series sum_k c_k t^(1-2k) at t itself.
    At t = a this is the direct evaluation, bit for bit.  An exact
    remainder dt of each t joins delta as (t - a) + dt, as in the kernel;
    below 8pi it is ignored."""
    ts = np.asarray(ts, dtype=np.float64)
    hi, lo = np.empty_like(ts), np.zeros_like(ts)
    big = ts >= RS_MIN
    if big.any():
        tb = ts[big]
        perm = np.argsort(tb, kind="stable")
        a_s = kernels.anchors(tb[perm])
        new = kernels.run_starts(a_s)
        at = np.empty(tb.size, dtype=np.intp)
        at[perm] = np.cumsum(new) - 1
        a = a_s[new]
        lead_hi, lead_lo, ell = _theta_lead(a)
        a = a[at]
        d = tb - a
        if dts is not None:
            d += np.asarray(dts, dtype=np.float64)[big]
        w = 1.0 / tb
        w2 = w * w
        ser = _THETA_SERIES[4]
        for c in _THETA_SERIES[3::-1]:
            ser = c + w2 * ser
        inc = 0.5 * tb * np.log1p(d / a) + 0.5 * d * ell[at] + w * ser
        hi[big], lo[big] = _tables.dd_add(lead_hi[at], lead_lo[at], inc, 0.0)
    if not big.all():
        hi[~big] = _theta_stirling(ts[~big])
    return hi, lo


def _mod_2pi(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(hi + lo) mod 2pi as float64, reduced in double-double."""
    k = np.floor(hi / TWO_PI)
    p, pe = _tables.two_prod(k, _tables.TWO_PI_DD[0])
    r = (((hi - p) - pe) + lo) - k * _tables.TWO_PI_DD[1]
    return np.mod(r, TWO_PI)


def _theta_reduced(ts: np.ndarray, dts: np.ndarray = None) -> np.ndarray:
    """theta(t) mod 2pi as float64, the phase the main-sum kernel takes."""
    return _mod_2pi(*_theta_dd(ts, dts))


def theta(t: float) -> float:
    """Riemann-Siegel phase function Im ln Gamma(1/4 + it/2) - (t/2) ln pi:
    its asymptotic series for t >= 8pi, to float64 roundoff, and a Stirling
    series below."""
    if not t > 0:
        raise DomainError(f"theta needs t > 0, got {t}")
    return float(_theta_dd(np.array([t]))[0][0])


def z_phases(ts: np.ndarray) -> np.ndarray:
    """e^{i theta(t)} for an array of t >= 0, with the phase reduced mod 2pi
    in double-double, so that z_phases(t) * zeta(1/2+it) is real to ~1e-12
    even at t ~ 1e6."""
    return np.exp(1j * _theta_reduced(np.asarray(ts, dtype=np.float64)))


def z_phase(t: float) -> complex:
    """e^{i theta(t)} at one height: the one-point call of z_phases."""
    return complex(z_phases(np.array([t]))[0])


def _heights(ts, low: float = TWO_PI, name: str = "riemann_siegel_z"):
    """ts as float64, refused unless every t is finite and >= low."""
    ts = np.asarray(ts, dtype=np.float64)
    ok = np.isfinite(ts) & (ts >= low)
    if not ok.all():
        raise DomainError(f"{name} needs finite t >= {low:.6g}, got "
                          f"{float(ts[~ok][0])}")
    return ts


def riemann_siegel_z_values(ts: np.ndarray,
                            dts: np.ndarray = None) -> np.ndarray:
    """Z(t) for an array of finite t >= 2pi by the Riemann-Siegel formula:
    the main sum plus the first correction term.

    Below 2pi the main sum is empty and the oracle is the only supported
    evaluator.  dts, if given, are exact remainders: Z is taken at
    ts + dts, unrounded.  A point's value does not depend on the other
    points in the call.
    """
    ts = _heights(ts)
    return (kernels.z_main_sum(ts, _theta_reduced(ts, dts), dts)
            + kernels.rs_correction(ts))


def riemann_siegel_z(t) -> CriticalPoint:
    """Z(t) and the unreduced theta(t), from one theta evaluation: floats
    for a float t, arrays of t's shape for an array.  Z is bit-equal to
    riemann_siegel_z_values and theta to theta(t)."""
    ts = _heights(np.ravel(t))
    hi, lo = _theta_dd(ts)
    z = kernels.z_main_sum(ts, _mod_2pi(hi, lo)) + kernels.rs_correction(ts)
    if np.ndim(t) == 0:
        return CriticalPoint(t=t, z=float(z[0]), theta=float(hi[0]))
    return CriticalPoint(*(a.reshape(np.shape(t)) for a in (ts, z, hi)))


def em_zeta_half(t):
    """zeta(1/2 + it) by Euler-Maclaurin with an explicit remainder bound:
    a complex for a float t, a complex128 array of t's shape for an array.

    The cutoff N = max(24, ceil(3t/2pi)) sits past the asymptotic knee, so
    twelve Bernoulli terms bound the remainder by EM_TOL up to t = 1e6 (N
    is doubled where not; past t ~ 2.4e7, where the phases lose exactness,
    the call is refused).  The terms n < N are summed in blocks with fixed
    edges in n, each by np.add.reduce along its row, zero past a point's
    own N, in ascending order: a point's value depends on its t alone, and
    is within 4e-15 max(1, |zeta|) of the exact sum up to t = 1e6."""
    ts = _heights(t, 0.0, "em_zeta_half")
    flat = ts.ravel()
    n = np.maximum(24.0, np.ceil(3.0 * flat / TWO_PI))
    # the remainder is below |B26/26!| |s(s+1)...(s+25)| n^(-25.5) / 25.5,
    # s = 1/2 + it, and doubling n divides that by 2^25.5
    bound = np.sqrt(n) * (abs(_B2K_FACT[12]) / 25.5)
    for j in range(26):
        bound *= np.hypot(0.5 + j, flat) / n
    n = np.where(bound > EM_TOL, 2.0 * n, n)
    bound = np.where(bound > EM_TOL, bound / 2.0 ** 25.5, bound)
    ok = (bound <= EM_TOL) & (flat * np.log(n) < 4.0e8)  # turns() exact
    if not ok.all():
        raise PrecisionError(
            f"em_zeta_half: remainder bound {EM_TOL} or exact phases out of "
            f"reach at t = {flat[~ok][0]}", bound=float(bound.max()))
    order = np.argsort(n, kind="stable")
    t_s, n_s = flat[order], n[order]
    terms = n_s.astype(np.intp) - 1         # the main sum's length per point
    edges = _EM_EDGES + tuple(range(8192, terms.max(initial=0) + 4096, 4096))
    hi, lo = _tables.ln_n_turns(edges[-1] + 1)      # n = N for the tail
    amps = _tables.rsqrt_n(edges[-1])
    re, im = np.zeros(flat.size), np.zeros(flat.size)
    for e, f in zip(edges, edges[1:]):
        first = int(np.searchsorted(terms, e, side="right"))
        rows = max(1, kernels._CHUNK_FLOATS // (f - e))
        idx = np.arange(e, f)
        for i in range(first, terms.size, rows):
            p = slice(i, i + rows)
            ph = TWO_PI * _tables.turns(t_s[p, None], hi[e:f], lo[e:f])
            amp = np.where(idx < terms[p, None], amps[e:f], 0.0)
            re[p] += np.add.reduce(amp * np.cos(ph), axis=1)
            im[p] -= np.add.reduce(amp * np.sin(ph), axis=1)
    # the tail N^{-s} (1/2 + N/(s - 1) + sum_k B_2k/(2k)! v_k), with
    # v_k = s(s+1)...(s+2k) / N^(2k+1), in elementwise complex arithmetic
    s = 0.5 + 1j * t_s
    v, tail = s / n_s, 0.5 + n_s / (s - 1.0)
    for k in range(12):
        tail += _B2K_FACT[k] * v
        v *= (s + (2 * k + 1)) * (s + (2 * k + 2)) / (n_s * n_s)
    ph = TWO_PI * _tables.turns(t_s, hi[terms], lo[terms])
    out = np.empty(flat.size, dtype=np.complex128)
    out[order] = (re + 1j * im) + (np.cos(ph) - 1j * np.sin(ph)) * tail \
        / np.sqrt(n_s)
    return complex(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)
