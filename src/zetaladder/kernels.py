"""Backend selection for the main-sum kernel.

The compiled extension is preferred; the numpy implementation is the fallback
when the extension was not built, and can be forced with ZL_PURE_PY=1 (the
benchmark and the backend-equivalence test use that).
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import _tables
from . import _zkern_py
from .errors import RangeError

if os.environ.get("ZL_PURE_PY", "") not in ("", "0"):
    _impl = _zkern_py
    BACKEND = "python"
else:
    try:
        from . import _zkern as _impl  # type: ignore[no-redef]
        BACKEND = "cython"
    except ImportError:
        _impl = _zkern_py
        BACKEND = "python"

TWO_PI = _zkern_py.TWO_PI


def backend_name() -> str:
    return BACKEND


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
    nmax = int(np.sqrt(t_top / TWO_PI)) + 1
    # the exact phase splits need t * ln n / 2pi below 2^27 (compiled
    # kernel, mod 2pi) and 2^26 (numpy kernel, mod 1)
    if t_top * math.log(nmax + 1) >= 4.0e8:
        raise RangeError(
            f"t = {t_top:.3e} exceeds the exact-phase-reduction range")
    _impl.z_main_sum(ts, thetas, _tables.ln_n(nmax), _tables.ln_n_lo(nmax),
                     _tables.rsqrt_n(nmax), int(order), out)
    return out
