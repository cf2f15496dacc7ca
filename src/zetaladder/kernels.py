"""The Riemann-Siegel main-sum kernel, in numpy.

Thetas arrive reduced mod 2pi.  The phase t * ln n / 2pi is formed by
Dekker's two-product against the double-double ln n / 2pi table and reduced
mod 1 (`_tables.turns`), so the cos argument carries ~1e-15 rad of error at
any t the kernel accepts.  With the Kahan-compensated sum below, the main sum
lands within ~3e-15 of a 200-bit evaluation at t = 1.2e4, 1e5 and 1e6.

Points are grouped by the truncation length nv = floor(tau) and laid out
terms by points: blocks of rows n by up to 4096 points, each block's scratch
near 512 KB.  The rows are summed by an explicit Kahan loop in ascending n,
so a point's value depends only on its own t and theta, never on the other
points in its call, and scalar and batched evaluation agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import _tables
from .errors import RangeError

TWO_PI = 6.283185307179586476925286766559

_CHUNK_FLOATS = 1 << 16
_COLS = 4096
_PY_COLS = 16


def backend_name() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance;
    numpy is the only one."""
    return "python"


def _kahan_rows(terms: np.ndarray, acc: np.ndarray, comp: np.ndarray):
    """Add the rows of terms, in order, to the Kahan sums acc + comp (one
    per column) and return the new (acc, comp); terms is overwritten.
    Narrow blocks run the same IEEE operations on Python floats, which give
    the same bits without a numpy call per row."""
    if terms.shape[1] <= _PY_COLS:
        for j in range(terms.shape[1]):
            a, c = float(acc[j]), float(comp[j])
            for x in terms[:, j].tolist():
                y = x - c
                s = a + y
                c = (s - a) - y
                a = s
            acc[j], comp[j] = a, c
        return acc, comp
    s = np.empty_like(acc)
    for y in terms:
        y -= comp
        np.add(acc, y, out=s)
        np.subtract(s, acc, out=comp)
        comp -= y
        acc, s = s, acc
    return acc, comp


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


def z_main_sum(ts: np.ndarray, thetas: np.ndarray, order: int) -> np.ndarray:
    """Riemann-Siegel main sum (plus first correction if order == 1) for an
    array of t >= 0.  thetas must already be reduced mod 2pi; callers
    validate domain, and t below 2pi contributes an empty sum."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    if ts.shape != thetas.shape:
        raise ValueError("ts and thetas must have matching shapes")
    out = np.empty_like(ts)
    if ts.size == 0:
        return out
    t_top = float(ts.max())
    # the exact phase split (`_tables.turns`) needs t * ln n / 2pi < 2^26
    n_top = int(np.sqrt(t_top / TWO_PI)) + 1
    if t_top * math.log(n_top + 1) >= 4.0e8:
        raise RangeError(
            f"t = {t_top:.3e} exceeds the exact-phase-reduction range")
    tau = np.sqrt(ts / TWO_PI)
    nmax = np.floor(tau).astype(np.int64)
    top = int(nmax.max(initial=1))
    lt_hi, lt_lo = _tables.ln_n_turns(top)
    rsqrt_n = _tables.rsqrt_n(top)
    # not np.unique: numpy 2 loads numpy.ma for it, 15 ms on a first call
    for nv in sorted(set(nmax.tolist())):
        idx = np.nonzero(nmax == nv)[0]
        if nv == 0:
            out[idx] = 0.0
            continue
        cols = min(idx.shape[0], _COLS)
        rows = max(1, _CHUNK_FLOATS // cols)
        buf = np.empty((2, min(rows, nv) * cols))
        for c0 in range(0, idx.shape[0], cols):
            sel = idx[c0:c0 + cols]
            t, th = ts[sel], thetas[sel]
            acc, comp = np.zeros(sel.shape[0]), np.zeros(sel.shape[0])
            for r0 in range(0, nv, rows):
                r1 = min(nv, r0 + rows)
                size = (r1 - r0) * sel.shape[0]
                phase = buf[0, :size].reshape(r1 - r0, sel.shape[0])
                _tables.turns(t, lt_hi[r0:r1, None], lt_lo[r0:r1, None],
                              out=phase, tmp=buf[1, :size].reshape(phase.shape))
                phase *= -TWO_PI
                phase += th
                np.cos(phase, out=phase)
                phase *= rsqrt_n[r0:r1, None]
                acc, comp = _kahan_rows(phase, acc, comp)
            out[sel] = 2.0 * acc
    if order == 1:
        sign = np.where(nmax % 2 == 1, 1.0, -1.0)
        out += sign * _psi(tau - nmax) / np.sqrt(np.maximum(tau, 1e-300))
    return out
