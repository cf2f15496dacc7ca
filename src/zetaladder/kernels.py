"""The Riemann-Siegel main-sum kernel: centred Taylor moments at unit anchors.

The main sum at height t is 2 Re(e^{i theta} S(t)) with
S(t) = sum_{n <= nv} n^{-1/2} e^{-i t ln n} and nv = floor(sqrt(t / 2pi));
Z is the main sum plus the first correction term, `rs_correction`.
Each t is written as a + delta, with the anchor a = rint(G t) / G (G = 1
anchor per unit of t), so delta is exact and |delta| <= 1/(2G).  With the
centre c = (ln nv) / 2 of the ln n range,
e^{-i delta ln n} = e^{-i delta c} e^{-i delta (ln n - c)}, and

    S(a + delta) = e^{-i delta c} sum_{k < K} M_k (-i delta)^k,
    M_k = sum_n n^{-1/2} e^{-i a ln n} (ln n - c)^k / k!,

the local expansion of Odlyzko and Schoenhage ("Fast algorithms for multiple
evaluations of the Riemann zeta function", Trans. AMS 309, 1988), centred
in ln n.  The moments cost one pass over n per (nv, anchor) group,
shared by every point of the group; a point then costs K terms instead of
nv.  Since |ln n - c| <= c, K(nv) is the smallest order whose first omitted
term, bounded by (ln nv / 4G)^K / K! * 2 sqrt(nv), is below 1e-17.  The
factor e^{-i delta c} costs no rotation: it joins the phase as
theta' = theta - delta c before the cos and sin each point takes.

The phase a ln n / 2pi is formed by Dekker's two-product against the
double-double ln n / 2pi table and reduced mod 1 (`_tables.turns`), so each
cos and sin argument carries ~1e-15 rad of error at any t the kernel accepts;
the main sum lands within ~5e-15 of a 200-bit evaluation at t = 1.2e4, 1e5
and 1e6, at the cell edges |delta| = 1/2 included.  Thetas arrive reduced
mod 2pi.  A height may also arrive as a float t plus an exact remainder dt,
the form a quadrature node takes when it must not be rounded to the ulp of
t; dt then joins delta.

Anchors, orders and centres come from t alone.  The moments are summed along
the contiguous n axis and the Taylor terms along the contiguous k axis, both
in an order fixed by the row length, and the scratch arrays are cut into
blocks of about `_CHUNK_FLOATS` floats.  So a point's value depends only on
its own t, remainder and theta, never on the other points in its call, and
scalar and batched evaluation agree bit for bit.  No BLAS product is used:
its summation order depends on the shape of the call.
"""

from __future__ import annotations

import math

import numpy as np

from . import _tables
from .errors import RangeError

TWO_PI = 6.283185307179586476925286766559

ANCHORS_PER_UNIT = 1.0
_TRUNCATION = 1e-17
# the kernel's numeric form, one part of every cached artifact's key
VERSION = (f"kernel-centred-v1,ANCHORS_PER_UNIT={ANCHORS_PER_UNIT!r},"
           f"_TRUNCATION={_TRUNCATION!r}")
_CHUNK_FLOATS = 1 << 16
_RE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_IM_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance;
    numpy is the only one."""
    return "python"


def anchors(ts: np.ndarray) -> np.ndarray:
    """The anchor rint(G t) / G of each t.  G is a power of two, so the
    anchor is exact and t - anchor, at most 1/(2G) in size, is too; a t
    on a cell edge goes to the even multiple of 1/G."""
    return np.rint(ANCHORS_PER_UNIT * ts) / ANCHORS_PER_UNIT


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """True where a run of equal rows of the sorted key arrays starts.
    Not np.unique: numpy 2 loads numpy.ma for it, 15 ms on a first call."""
    new = np.zeros(keys[0].shape, dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _taylor_order(nv: int) -> int:
    """Smallest K with (ln nv / 4G)^K / K! * 2 sqrt(nv) below 1e-17: the
    bound on the first omitted term, since |delta (ln n - c)| <= ln nv / 4G
    and sum_n n^{-1/2} <= 2 sqrt(nv)."""
    x = math.log(nv) / (4.0 * ANCHORS_PER_UNIT)
    term, k = 2.0 * math.sqrt(nv), 0
    while term >= _TRUNCATION:
        k += 1
        term *= x / k
    return k


def _psi(p: np.ndarray) -> np.ndarray:
    """First Riemann-Siegel correction coefficient
    cos(2pi(p^2 - p - 1/16)) / cos(2pi p) for p = frac(tau) in [0, 1).

    The ratio is 0/0 at p = 1/4 and 3/4.  With eps = p - 1/4 on the first
    half-period and p - 3/4 on the second (both exact where eps is small),
    it is sin(pi eps (1 -+ 2 eps)) / sin(2 pi eps) by exact algebra, and 1/2
    at eps = 0, so no point of [0, 1) divides by a cancelled difference."""
    first = p < 0.5
    eps = np.where(first, p - 0.25, p - 0.75)
    num = np.sin(np.pi * eps * np.where(first, 1.0 - 2.0 * eps,
                                        1.0 + 2.0 * eps))
    den = np.sin(TWO_PI * eps)
    zero = den == 0.0
    return np.where(zero, 0.5, num / np.where(zero, 1.0, den))


def _moments(a: np.ndarray, powers: np.ndarray):
    """Real and imaginary parts (m, K) of (-i)^k M_k at the m anchors a,
    with M_k = sum_{n <= nv} n^{-1/2} e^{-i a ln n} (ln n - c)^k / k!, from
    the (K, nv) table `powers` of (ln n - c)^k / k!."""
    k, nv = powers.shape
    lt_hi, lt_lo = _tables.ln_n_turns(nv)
    ang = TWO_PI * _tables.turns(a[:, None], lt_hi, lt_lo)
    c = np.empty((a.size, 2, 1, nv))
    rsqrt = _tables.rsqrt_n(nv)
    np.multiply(np.cos(ang), rsqrt, out=c[:, 0, 0])
    np.multiply(np.sin(ang), rsqrt, out=c[:, 1, 0])
    # C_k and S_k (m, 2, K), each summed along the contiguous n axis
    cs = np.multiply(c, powers).sum(axis=-1)
    # M_k = C_k - i S_k, and (-i)^k cycles through 1, -i, -1, i, so
    # (-i)^k M_k = (C, -S), (-S, -C), (-C, S), (S, C) by k mod 4
    ks = np.arange(k)
    odd = ks % 2
    return (cs[:, odd, ks] * _RE_SIGN[ks % 4],
            cs[:, 1 - odd, ks] * _IM_SIGN[ks % 4])


def z_main_sum(ts: np.ndarray, thetas: np.ndarray,
               dts: np.ndarray = None) -> np.ndarray:
    """Riemann-Siegel main sum for an array of t >= 0.  thetas must already
    be reduced mod 2pi; callers validate domain, and t below 2pi
    contributes an empty sum.

    dts, if given, holds exact remainders: the heights are ts + dts, each
    an unevaluated sum like a double-double.  A remainder joins the exact
    offset from the anchor, delta = (t - a) + dt, so the moments see it to
    ~1e-17."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    if ts.shape != thetas.shape or (dts is not None
                                    and np.shape(dts) != ts.shape):
        raise ValueError("ts, thetas and dts must have matching shapes")
    out = np.empty_like(ts)
    if ts.size == 0:
        return out
    t_top = float(ts.max())
    # the exact phase split (`_tables.turns`) needs t * ln n / 2pi < 2^26
    n_top = int(np.sqrt(t_top / TWO_PI)) + 1
    if t_top * math.log(n_top + 1) >= 4.0e8:
        raise RangeError(
            f"t = {t_top:.3e} exceeds the exact-phase-reduction range")
    nmax = np.floor(np.sqrt(ts / TWO_PI)).astype(np.int64)

    # points sorted by t fall in runs of equal (nv, anchor), and the runs
    # of one nv are contiguous
    perm = np.argsort(ts, kind="stable")
    t_s = ts[perm]
    a_s = anchors(t_s)
    nv_s = nmax[perm]
    new = run_starts(nv_s, a_s)
    group = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    bounds = starts.tolist() + [t_s.size]
    delta = t_s - a_s
    if dts is not None:
        delta += np.asarray(dts, dtype=np.float64)[perm]
    th = thetas[perm]
    z = np.zeros(t_s.size)
    g_nv = nv_s[starts]
    blocks = np.append(np.flatnonzero(run_starts(g_nv)), starts.size).tolist()
    for b0, b1 in zip(blocks[:-1], blocks[1:]):
        nv = int(g_nv[b0])
        if nv == 0:
            continue
        centre, powers = _tables.centred_powers(_taylor_order(nv), nv)
        k = powers.shape[0]
        per = max(1, _CHUNK_FLOATS // (2 * k * nv))
        rows = max(1, _CHUNK_FLOATS // (2 * k))
        for c0 in range(b0, b1, per):
            c1 = min(b1, c0 + per)
            re, im = _moments(a_s[starts[c0:c1]], powers)
            for p0 in range(bounds[c0], bounds[c1], rows):
                p = slice(p0, min(bounds[c1], p0 + rows))
                g = group[p] - c0
                # delta^k, k < K, by repeated products along the row
                dk = np.empty((g.size, k))
                dk[:] = delta[p, None]
                dk[:, 0] = 1.0
                np.cumprod(dk, axis=1, out=dk)
                s_re = (re[g] * dk).sum(axis=1)
                s_im = (im[g] * dk).sum(axis=1)
                # theta' = theta - delta c carries the factor e^{-i delta c}
                ph = th[p] - centre * delta[p]
                z[p] = 2.0 * (np.cos(ph) * s_re - np.sin(ph) * s_im)
    out[perm] = z
    return out


def rs_correction(ts: np.ndarray) -> np.ndarray:
    """First Riemann-Siegel correction term (-1)^(nv-1) psi(p) tau^(-1/2),
    with tau = sqrt(t/2pi), nv = floor(tau) and p = tau - nv, for an array
    of t >= 0.  It reads t alone: over a quadrature remainder of ~1e-10 it
    varies by ~1e-14."""
    tau = np.sqrt(np.asarray(ts, dtype=np.float64) / TWO_PI)
    nmax = np.floor(tau)
    sign = np.where(nmax % 2 == 1, 1.0, -1.0)
    return sign * _psi(tau - nmax) / np.sqrt(np.maximum(tau, 1e-300))
