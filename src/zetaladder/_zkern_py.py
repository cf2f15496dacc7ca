"""Pure numpy fallback for the Riemann-Siegel main-sum kernel.

Matches the compiled kernel's contract: thetas arrive reduced mod 2pi.  The
phase t * ln n / 2pi is formed by Dekker's two-product against the
double-double ln n / 2pi table and reduced mod 1 (`_tables.turns`), so the
cos argument carries ~1e-15 rad of error at any t the kernel accepts.  With
the Kahan-compensated sum below, the main sum lands within ~3e-15 of a
200-bit evaluation at t = 1.2e4, 1e5 and 1e6.

Points are grouped by the truncation length nv = floor(tau) and laid out
terms by points: blocks of rows n by up to 4096 points, each block's scratch
near 512 KB.  The rows are summed by an explicit Kahan loop in ascending n,
so a point's value depends only on its own t and theta, never on the other
points in its call, and scalar and batched evaluation agree bit for bit.  It
is not bit-identical to the compiled loop; the two agree to ~1e-12 and the
benchmark asserts it.
"""

from __future__ import annotations

import numpy as np

from . import _tables

TWO_PI = 6.283185307179586476925286766559

_CHUNK_FLOATS = 1 << 16
_COLS = 4096
_PY_COLS = 16


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


def z_main_sum(ts: np.ndarray, thetas: np.ndarray, ln_n: np.ndarray,
               ln_n_lo: np.ndarray, rsqrt_n: np.ndarray, order: int,
               out: np.ndarray) -> int:
    # ln_n and ln_n_lo are unused here: the phases come from the same
    # double-double table over 2pi (ln_n_turns), whose reduction mod 1 is
    # exact
    tau = np.sqrt(ts / TWO_PI)
    nmax = np.floor(tau).astype(np.int64)
    lt_hi, lt_lo = _tables.ln_n_turns(int(nmax.max(initial=1)))
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
        p = tau - nmax
        den = np.cos(TWO_PI * p)
        arg = TWO_PI * (p * p - p - 0.0625)
        near = np.abs(den) < 1e-3
        safe_den = np.where(near, 1.0, den)
        psi = np.cos(arg) / safe_den
        if near.any():
            psi = np.where(near,
                           (2.0 * p - 1.0) * np.sin(arg) / np.sin(TWO_PI * p),
                           psi)
        sign = np.where(nmax % 2 == 1, 1.0, -1.0)
        out += sign * psi / np.sqrt(np.maximum(tau, 1e-300))
    return 0
