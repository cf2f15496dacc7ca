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

Anchors, orders and centres come from t alone.  The moments are a matrix
product, and BLAS picks a product's summation order from the shape of its
call, so that shape is fixed in advance: n runs in blocks of `_NBLK` (the
powers are zero past nv), the rows are padded with zeros to tiles of
`_TILE`, each (tile, block) pair is one (_TILE, _NBLK) x (_NBLK, K)
product, and the block partials are added in ascending order
(`_tile_product`).  Short blocks keep each sequential sum short: one
product over all n at once missed the 5e-15 bound above.  The Taylor sum
is taken by Horner in delta, to the largest order in the call: a point's
extra leading coefficients are zero, which Horner passes through exactly.
Scratch arrays hold about `_CHUNK_FLOATS` floats.  So a point's value
depends only on its own t, remainder and theta (and on the BLAS build,
which `backend_name` names), never on the other points in its call, and
scalar and batched evaluation agree bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _tables
from .errors import RangeError

TWO_PI = 6.283185307179586476925286766559

ANCHORS_PER_UNIT = 1.0
_TRUNCATION = 1e-17
# moments by fixed-shape products: n in blocks of _NBLK, rows in tiles of
# _TILE
_NBLK = 8
_TILE = 64
# the kernel's numeric form, one part of every cached artifact's key
VERSION = (f"kernel-gemm-horner-v2,ANCHORS_PER_UNIT={ANCHORS_PER_UNIT!r},"
           f"_TRUNCATION={_TRUNCATION!r},_NBLK={_NBLK!r},_TILE={_TILE!r}")
_CHUNK_FLOATS = 1 << 16
# sigma_k = (-1)^floor(k/2) by k mod 4
_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def backend_name() -> str:
    """numpy's version and the BLAS that computes the moment products, as
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0", read from
    numpy.__config__.CONFIG; "unknown" stands for a BLAS that numpy does
    not name with its version.  A point's bits depend on its own t and
    on this pair."""
    config = getattr(getattr(np, "__config__", None), "CONFIG", None) or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name, version = blas.get("name"), blas.get("version")
    lib = f"{name} {version}" if name and version else "unknown"
    return f"numpy {np.__version__}, {lib}"


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


@functools.lru_cache(maxsize=16)
def _signed_blocks(nv: int):
    """The centre c and the read-only (nb, _NBLK, K) right-hand blocks of
    the moment product: row n of the stacked blocks holds
    sigma_k (ln n - c)^k / k!, sigma_k = (-1)^floor(k/2), for n <= nv, and
    zeros past nv up to nb * _NBLK.  Negation is exact, so the signs cost
    no bit, and a dropped entry is rebuilt bit for bit; the cache keeps
    the last 16, the truncation lengths a batch of nearby heights visits."""
    centre, powers = _tables.centred_powers(_taylor_order(nv), nv)
    k = powers.shape[0]
    nb = -(-nv // _NBLK)
    blocks = np.zeros((nb * _NBLK, k))
    np.multiply(powers.T, _SIGN[np.arange(k) % 4], out=blocks[:nv])
    blocks.flags.writeable = False
    return centre, blocks.reshape(nb, _NBLK, k)


def _tile_product(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """rows (r, nb * _NBLK) times the stacked `blocks` (nb, _NBLK, K), as
    (r, K).  The rows are padded with zeros to whole tiles of _TILE, each
    (tile, block) pair is one (_TILE, _NBLK) x (_NBLK, K) matmul, whatever
    r is, and the block partials are added in ascending block order; so a
    row's product depends on that row alone.  Unpadded, a single row would
    be a vector product, which BLAS sums in another order."""
    r, n = rows.shape
    nb, _, k = blocks.shape
    tiles = -(-r // _TILE)
    padded = np.empty((tiles * _TILE, n))
    padded[:r] = rows
    padded[r:] = 0.0
    # (nb, tiles, _TILE, _NBLK) @ (nb, 1, _NBLK, K), one call per pair,
    # into block-major partials (numpy would order them like the rows)
    padded = padded.reshape(tiles, _TILE, nb, _NBLK).transpose(2, 0, 1, 3)
    part = np.empty((nb, tiles, _TILE, k))
    np.matmul(padded, blocks[:, None], out=part)
    return np.add.reduce(part.reshape(nb, -1, k)[:, :r], axis=0)


def _moments(a: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The (K, 2, m) real and imaginary parts of (-i)^k M_k at the m
    anchors a, with M_k = sum_{n <= nv} n^{-1/2} e^{-i a ln n}
    (ln n - c)^k / k!, from `_signed_blocks`: the rows
    n^{-1/2} cos(a ln n), then the rows n^{-1/2} sin(a ln n), times the
    blocks by `_tile_product`."""
    nb, _, k = blocks.shape
    m, n = a.size, nb * _NBLK
    lt_hi, lt_lo = _tables.ln_n_turns(n)
    ang = TWO_PI * _tables.turns(a[:, None], lt_hi, lt_lo)
    rsqrt = _tables.rsqrt_n(n)
    rows = np.empty((2 * m, n))
    np.multiply(np.cos(ang), rsqrt, out=rows[:m])
    np.multiply(np.sin(ang), rsqrt, out=rows[m:])
    cs = _tile_product(rows, blocks)
    # sigma_k C_k and sigma_k S_k, with M_k = C_k - i S_k; (-i)^k M_k is
    # (C, -S), (-S, -C), (-C, S), (S, C) by k mod 4, so its real part is
    # sigma_k C_k at even k and sigma_k S_k at odd k, and its imaginary
    # part -sigma_k S_k at even k and sigma_k C_k at odd k
    c, s = cs[:m].T, cs[m:].T
    out = np.empty((k, 2, m))
    out[0::2, 0] = c[0::2]
    out[1::2, 0] = s[1::2]
    np.negative(s[0::2], out=out[0::2, 1])
    out[1::2, 1] = c[1::2]
    return out


def _coefficients(a: np.ndarray, nv: np.ndarray, k: int):
    """Centres (m,) and Taylor coefficients (k, 2, m) of the m anchor
    groups with anchors a and truncation lengths nv (ascending, all
    positive), each group's own order followed by zeros up to k.  Horner
    passes a leading zero through exactly, so the padding moves no bit."""
    centres = np.empty(a.size)
    coef = np.zeros((k, 2, a.size))
    runs = np.append(np.flatnonzero(run_starts(nv)), a.size).tolist()
    for r0, r1 in zip(runs[:-1], runs[1:]):
        centres[r0:r1], blocks = _signed_blocks(int(nv[r0]))
        per = max(1, _CHUNK_FLOATS // (2 * blocks.shape[0] * _NBLK))
        for c0 in range(r0, r1, per):
            c1 = min(r1, c0 + per)
            coef[:blocks.shape[2], :, c0:c1] = _moments(a[c0:c1], blocks)
    return centres, coef


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
    out = np.zeros_like(ts)
    if ts.size == 0:
        return out
    t_top = float(ts.max())
    # the exact phase split (`_tables.turns`) needs t * ln n / 2pi < 2^26
    n_top = int(np.sqrt(t_top / TWO_PI)) + 1
    if t_top * math.log(n_top + 1) >= 4.0e8:
        raise RangeError(
            f"t = {t_top:.3e} exceeds the exact-phase-reduction range")
    nmax = np.floor(np.sqrt(ts / TWO_PI)).astype(np.int64)
    if nmax.max() == 0:
        return out

    # points sorted by t fall in runs of equal (nv, anchor), and the runs
    # of one nv are contiguous; those with nv = 0 come first and stay 0
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
    # the largest order of the call, and the anchor groups per window of
    # coefficients and points per Horner block
    k = _taylor_order(int(g_nv[-1]))
    per = max(1, _CHUNK_FLOATS // (2 * k))
    for w0 in range(int(np.searchsorted(g_nv, 1)), starts.size, per):
        w1 = min(starts.size, w0 + per)
        centres, coef = _coefficients(a_s[starts[w0:w1]], g_nv[w0:w1], k)
        for p0 in range(bounds[w0], bounds[w1], per):
            p = slice(p0, min(bounds[w1], p0 + per))
            g = group[p] - w0
            d = delta[p]
            # the Taylor sum in delta by Horner, the real parts and then the
            # imaginary parts in one flat row: take, unlike fancy indexing,
            # gathers C-contiguous, and operands of one shape skip numpy's
            # broadcasting, which doubles the cost of a step
            terms = coef.take(g, axis=2).reshape(k, -1)
            dd = np.concatenate((d, d))
            s = terms[-1]
            for j in range(k - 2, -1, -1):
                s *= dd
                s += terms[j]
            # theta' = theta - delta c carries the factor e^{-i delta c}
            ph = th[p] - centres[g] * d
            z[p] = 2.0 * (np.cos(ph) * s[:d.size] - np.sin(ph) * s[d.size:])
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
