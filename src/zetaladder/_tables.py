"""Shared term tables for the Dirichlet-type sums, in double-double float64.

Both the Riemann-Siegel kernel and the Euler-Maclaurin oracle spend their time
on sums over n of n^{-1/2} * trig(t * ln n).  At t ~ 1e6 the phase t * ln n
reaches ~1e7 rad, so a float64 ln n (53 bits) would leave ~1e-9 rad after
reduction.  The tables therefore hold ln n / 2pi as a true double-double
hi + lo (about 106 bits), the product of `ln_dd`'s double-double ln n
(|error| <= 2^-104 ln n) and 1/2pi, built from error-free float64 transforms
(Veltkamp's split, Knuth's two-sum and Dekker's two-product; Dekker, Numer.
Math. 18, 1971), next to float64 1/sqrt(n).  Nothing depends on the
platform's long double.  `turns` forms t * ln n / 2pi mod 1 against the table
to ~1e-16 turns; the tables are grown on demand.  The kernel's Taylor moments
read one more table per truncation length n, the powers of ln m - c centred
at c = (ln n) / 2, which the kernel keeps in its own small cache.
"""

from __future__ import annotations

import threading

import numpy as np

# double-double constants, from a 200-bit evaluation
PI_DD = (3.141592653589793, 1.2246467991473532e-16)
TWO_PI_DD = (6.283185307179586, 2.4492935982947064e-16)
INV_TWO_PI_DD = (0.15915494309189535, -9.839338337591243e-18)
LN_TWO_PI_DD = (1.8378770664093456, -7.756588316134483e-17)

_SPLITTER = 134217729.0  # 2^27 + 1


def split(a):
    """Veltkamp split: a = hi + lo with each part at most 26 bits wide."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a, b):
    """p + e = a * b exactly, p = fl(a * b) (Dekker)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(ah, al, bh, bl):
    """(ah + al) + (bh + bl) as a normalized double-double."""
    s, e = two_sum(ah, bh)
    e = e + (al + bl)
    hi = s + e
    return hi, e - (hi - s)


def dd_mul(ah, al, bh, bl):
    """(ah + al) * (bh + bl) as a normalized double-double."""
    p, e = two_prod(ah, bh)
    e = e + (ah * bl + al * bh)
    hi = p + e
    return hi, e - (hi - p)


def _dd_div(num, den_hi, den_lo):
    """num / (den_hi + den_lo) as a double-double, num a float64."""
    q = num / den_hi
    p, pe = two_prod(q, den_hi)
    return q, (((num - p) - pe) - q * den_lo) / den_hi


# 1/(2k+1) as double-doubles, the atanh series coefficients
_ODD = [_dd_div(1.0, 2.0 * k + 1.0, 0.0) for k in range(40)]


def _ln_ratio_dd(num, den_hi, den_lo, terms: int, dd_terms: int):
    """ln((den + num) / (den - num)) = 2 atanh(u), u = num / den, as
    2u sum_{k<terms} v^k / (2k+1), v = u^2, by Horner in v: the terms from
    k = dd_terms on in float64, the first dd_terms in double-double."""
    u_hi, u_lo = _dd_div(num, den_hi, den_lo)
    v_hi, v_lo = dd_mul(u_hi, u_lo, u_hi, u_lo)
    s_hi = 0.0
    for k in range(terms - 1, dd_terms - 1, -1):
        s_hi = _ODD[k][0] + v_hi * s_hi
    s_lo = 0.0
    for k in range(dd_terms - 1, -1, -1):
        s_hi, s_lo = dd_mul(s_hi, s_lo, v_hi, v_lo)
        s_hi, s_lo = dd_add(s_hi, s_lo, *_ODD[k])
    return dd_mul(s_hi, s_lo, 2.0 * u_hi, 2.0 * u_lo)


# ln(1 + j/64) = 2 atanh(j / (128 + j)), j = 0..64; |u| <= 1/3 needs 40 terms
_J = np.arange(65, dtype=np.float64)
_LNC_HI, _LNC_LO = _ln_ratio_dd(_J, 128.0 + _J, 0.0, 40, 40)
_LN2_HI, _LN2_LO = float(_LNC_HI[64]), float(_LNC_LO[64])


def ln_dd(x):
    """ln x for an array of finite x > 0, as a double-double (hi, lo).

    x = 2^e m with m in [1, 2) and c = 1 + j/64 the nearest table point, so
    ln x = e ln 2 + ln c + 2 atanh(u), u = (m - c) / (m + c), |u| <= 1/256.
    Seven series terms reach 2^-112; those past u^5, below 2^-50 in size,
    need only float64."""
    m, e = np.frexp(np.asarray(x, dtype=np.float64))
    m, e = 2.0 * m, (e - 1).astype(np.float64)
    j = np.rint((m - 1.0) * 64.0)
    c = 1.0 + j / 64.0
    den_hi, den_lo = two_sum(m, c)
    r_hi, r_lo = _ln_ratio_dd(m - c, den_hi, den_lo, 7, 3)
    ji = j.astype(np.int64)
    hi, lo = dd_add(_LNC_HI[ji], _LNC_LO[ji], r_hi, r_lo)
    p, pe = two_prod(e, _LN2_HI)
    return dd_add(p, pe + e * _LN2_LO, hi, lo)


def turns(t, hi, lo):
    """t * (hi + lo) mod 1, in about [-1/2, 1/2], for float64 t and a
    double-double multiplier; the arguments broadcast to an array.

    With t = th + tl and hi = bh + bl split to 26 bits, th * bh is exact and
    loses only whole turns.  The rest, th * (bl + lo) + tl * hi, is below
    2^-25 t hi in size (tl * lo, below 2^-78 t hi, is dropped), so for
    t * hi < 2^26 the result is within ~1e-16 turns."""
    th, tl = split(t)
    bh, bl = split(hi)
    r = th * bh
    tmp = np.rint(r)
    r -= tmp
    r += np.multiply(th, bl + lo, out=tmp)
    r += np.multiply(tl, hi, out=tmp)
    return r


_lock = threading.Lock()


def _build(lo: int, hi: int):
    """The three tables' entries for n = lo+1..hi."""
    ns = np.arange(lo + 1, hi + 1, dtype=np.float64)
    ln_hi, ln_lo = np.empty(hi - lo), np.empty(hi - lo)
    for i in range(0, hi - lo, 1 << 15):
        # blocks that stay in cache: three times faster than one pass at 1e6
        blk = slice(i, i + (1 << 15))
        ln_hi[blk], ln_lo[blk] = ln_dd(ns[blk])
    lt_hi, lt_lo = dd_mul(ln_hi, ln_lo, *INV_TWO_PI_DD)
    return lt_hi, lt_lo, 1.0 / np.sqrt(ns)


def _extend(tab, n: int):
    """tab grown to cover 1..max(n, twice its size), computing only the new
    entries: each one depends on its own n alone, so the result is bit for
    bit the one-pass build."""
    size = tab[0].shape[0]
    new = _build(size, max(n, 2 * size))
    return tuple(np.concatenate(pair) for pair in zip(tab, new))


# ln n / 2pi hi, lo; 1/sqrt(n): index k holds n = k + 1
_tab = _build(0, 1024)


def ensure(n: int) -> None:
    """Grow the tables to cover 1..n."""
    global _tab
    if n <= _tab[0].shape[0]:
        return
    with _lock:
        if n > _tab[0].shape[0]:
            _tab = _extend(_tab, n)


def ln_n_turns(n: int):
    """ln(1..n) / 2pi as a double-double (hi, lo), the multiplier of t in
    the phases, in turns."""
    ensure(n)
    return _tab[0][:n], _tab[1][:n]


def rsqrt_n(n: int) -> np.ndarray:
    """float64 1/sqrt(1..n)."""
    ensure(n)
    return _tab[2][:n]


def centred_powers(k: int, n: int):
    """The centre c = (ln n) / 2 and a (k, n) table of (ln m - c)^j / j!
    for j < k and m = 1..n, each entry the product of (ln m - c) / i over
    i = 1..j in ascending i, with ln m the double-double ln m / 2pi times
    2pi.  An entry depends on its j, m and n alone, so a cache may drop and
    rebuild a table without changing a bit."""
    ln_hi, ln_lo = dd_mul(*ln_n_turns(n), *TWO_PI_DD)
    c = 0.5 * float(ln_hi[-1])
    steps = np.empty((k, n))
    steps[0] = 1.0
    steps[1:] = ((ln_hi - c) + ln_lo) / np.arange(1.0, k)[:, None]
    return c, np.cumprod(steps, axis=0)
