"""Oscillation-aware quadrature for Z and Z^2.

Z(t) oscillates with local frequency theta'(t) ~ (1/2) ln(t/2pi), so every
integral here is cut into Gauss-Legendre 15-point panels whose width keeps
the phase advance per panel below osc_factor radians.  On such panels the
integrand is polynomial-tame and GL15 is accurate to roundoff.  Adaptive
bisection supplies the error control: level by level, the halves of every
pending panel are evaluated in one vectorized sweep and compared with the
whole panel (the h-refinement estimate), and accepted contributions are
summed exactly.  Which panels are accepted depends only on the inputs and
a panel's sum only on its own nodes, so results never depend on batch
shape or scheduling.

Three consumers sit on top of the same panel machinery:

- integrate_z / integrate_z2: plain adaptive integrals with tolerances.
- PanelChain: a fixed panel grid whose per-panel Legendre interpolants are
  integrated in closed form, giving a cheap prefix integral t -> int_a^t.
  The windowed moment reuses it so the inner and outer integrals share one
  set of Z evaluations instead of re-evaluating O(U0 * H) times.
- SecondMomentTable: checkpoints of I(T) = int_0^T Z^2 at a fixed stride,
  extended append-only (single writer) and persisted as `smtable-v2` files
  keyed by `table_key`: the QuadConfig fingerprint plus the Riemann-Siegel
  correction order, written whole (`write_atomic`) and refused on load
  when damaged.

Below t = 8pi the Riemann-Siegel route is too short to trust, so integrands
switch to the Euler-Maclaurin oracle there (for Z^2 that needs no phase at
all since Z^2 = |zeta(1/2+it)|^2).
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum
from typing import Callable, List, Tuple

import numpy as np
from numpy.polynomial import legendre as npleg

from . import special
from .errors import (DomainError, PrecisionError, RangeError,
                     TableIntegrityError)
from .special import RS_MIN, RSConfig, TWO_PI

# acceptance floor, relative to the panel's value scale.  Z^2 carries genuine
# broadband micro-structure at ~1e-11 relative amplitude (still present in a
# 25-digit reference evaluation, so it is signal, not kernel roundoff), but
# resolving it multiplies cost several-fold while moving 64-wide integrals by
# well under 1e-9.  Panels whose refinement estimate is below this floor are
# accepted with their estimate recorded, keeping the reported bound honest.
_NOISE_FLOOR = 1e-10

_GL_X, _GL_W = npleg.leggauss(15)
# projection of nodal values onto Legendre coefficients (exact for deg <= 14)
_GL_PROJ = (0.5 * (2.0 * np.arange(15) + 1.0))[:, None] \
    * (npleg.legvander(_GL_X, 14).T * _GL_W[None, :])


def _legendre_project(vals: np.ndarray) -> np.ndarray:
    """Legendre coefficients (15, P) of the node values vals (P, 15) of P
    panels.  Accumulated node by node in a fixed order, so a panel's
    coefficients depend only on its own values; a BLAS product would pick
    its summation order from the number of panels in the call."""
    coef = _GL_PROJ[:, :1] * vals[:, 0]
    for j in range(1, vals.shape[1]):
        coef += _GL_PROJ[:, j:j + 1] * vals[:, j]
    return coef


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("interval endpoints must be finite")
        if self.b < self.a:
            raise DomainError(f"interval needs a <= b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_depth: int = 24
    osc_factor: float = 0.5

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if not (0 < self.osc_factor <= 1.0):
            raise DomainError("osc_factor must lie in (0, 1]")
        if not (4 <= self.max_depth <= 60):
            raise DomainError("max_depth must lie in [4, 60]")

    @property
    def fingerprint(self) -> str:
        """Short stable hash identifying results produced under this config
        (panel rule version included so cached tables invalidate on change)."""
        blob = (f"panelgl15-v2|abs={self.abs_tol!r}|rel={self.rel_tol!r}"
                f"|depth={self.max_depth}|osc={self.osc_factor!r}")
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def table_key(cfg: QuadConfig, rs_cfg: RSConfig) -> str:
    """Key of a checkpoint table and of everything fit against it: the
    quadrature fingerprint plus the correction order of the Z^2 integrand,
    which together fix every checkpoint value."""
    return f"{cfg.fingerprint}-rs{rs_cfg.correction_order}"


def _panel_freq(t: float) -> float:
    # theta' floored at its 8pi value; below 8pi the oracle integrand varies
    # on unit scales anyway
    return 0.5 * math.log(max(t, RS_MIN) / TWO_PI)


def _initial_edges(a: float, b: float, osc_factor: float) -> np.ndarray:
    """Panel edges with width * theta'(right edge) <= osc_factor (theta' is
    nondecreasing, so sizing against a lookahead point is conservative)."""
    edges = [a]
    t = a
    while t < b:
        w = osc_factor / _panel_freq(t + osc_factor / _panel_freq(t))
        t = min(b, t + w)
        edges.append(t)
    return np.asarray(edges)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    neval: int


def _panel_sums(fvec, lo: np.ndarray,
                hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GL15 node values (P, 15) and sums (P,) of the panels [lo, hi]."""
    mids = 0.5 * (lo + hi)
    hws = 0.5 * (hi - lo)
    nodes = mids[:, None] + hws[:, None] * _GL_X[None, :]
    vals = np.asarray(fvec(nodes.ravel()), dtype=np.float64)
    vals = vals.reshape(nodes.shape)
    # summed row by row along the contiguous axis, in an order fixed by the
    # row length alone, so a panel's sum does not depend on the batch
    return vals, np.add.reduce(vals * _GL_W, axis=1) * hws


def adaptive_integrate(fvec: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float, cfg: QuadConfig) -> QuadResult:
    """Deterministic adaptive integration of a vectorized integrand.

    Bisects level by level, starting from the phase-bounded panels.  Each
    pass evaluates the two halves of every pending panel in one vectorized
    call and accepts a panel when its h-refinement estimate |halves -
    whole| meets its width-proportional budget or the noise floor, or when
    the panel sits at max_depth; the halves of the others are the next
    level.  The common case ends after one pass: a phase-bounded panel is
    already converged and its halves only certify it.  Value and bound are
    exact sums, so the order in which panels are accepted does not matter.
    """
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    edges = _initial_edges(a, b, cfg.osc_factor)
    lo, hi = edges[:-1], edges[1:]
    _, whole = _panel_sums(fvec, lo, hi)
    neval = 15 * whole.size
    inv_total = 1.0 / (b - a)
    parts: List[float] = []
    errs: List[float] = []
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        vals, halves = _panel_sums(fvec, np.column_stack((lo, mid)).ravel(),
                                   np.column_stack((mid, hi)).ravel())
        neval += 15 * halves.size
        halves = halves.reshape(-1, 2)
        fine = halves[:, 0] + halves[:, 1]
        est = np.abs(fine - whole)
        if depth == 0:
            s0 = fsum(fine.tolist())
        widths = hi - lo
        # panel budgets come from abs_tol alone: additivity contracts
        # compare decompositions in abs_tol units, so the looser rel_tol
        # allowance must not leak into per-panel acceptance.  rel_tol only
        # relaxes the final achievability check below.
        budgets = cfg.abs_tol * widths * inv_total
        # noise floor: integrand values carry ~1e-13 of phase roundoff at
        # the top of the supported t range, so |fine - whole| stops meaning
        # anything below ~1e-12 * scale and bisection would drill to
        # max_depth for nothing.  Panels accepted by the floor still report
        # their est, so the returned bound (and the PrecisionError check
        # against it) stays honest.
        floors = _NOISE_FLOOR * np.abs(vals).reshape(lo.size, 30).max(
            axis=1) * widths
        done = (est <= budgets) | (est <= floors) | (depth >= cfg.max_depth)
        parts.extend(halves[done].ravel().tolist())
        errs.extend(est[done].tolist())
        keep = ~done
        lo = np.column_stack((lo[keep], mid[keep])).ravel()
        hi = np.column_stack((mid[keep], hi[keep])).ravel()
        whole = halves[keep].ravel()
        depth += 1

    value = fsum(parts)
    bound = fsum(errs)
    target = max(cfg.abs_tol, cfg.rel_tol * abs(s0))
    if bound > target * (1.0 + 1e-9):
        raise PrecisionError(
            f"tolerance {target:.3e} not reachable (error bound {bound:.3e}"
            f" at max_depth={cfg.max_depth})",
            estimate=value, bound=bound)
    return QuadResult(value, bound, neval)


def z_values(ts: np.ndarray, rs_cfg: RSConfig = RSConfig()) -> np.ndarray:
    """Signed Z on arrays: Riemann-Siegel for t >= 8pi, oracle below."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    hi = ts >= RS_MIN
    if hi.any():
        out[hi] = special.riemann_siegel_z_values(ts[hi], rs_cfg)
    if (~hi).any():
        for i in np.nonzero(~hi)[0]:
            t = float(ts[i])
            out[i] = (special.z_phase(t) * special.em_zeta_half(t)).real
    return out


def z2_values(ts: np.ndarray, rs_cfg: RSConfig = RSConfig()) -> np.ndarray:
    """Z^2 on arrays; below 8pi uses |zeta|^2, which needs no phase."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    hi = ts >= RS_MIN
    if hi.any():
        out[hi] = special.riemann_siegel_z_values(ts[hi], rs_cfg) ** 2
    if (~hi).any():
        for i in np.nonzero(~hi)[0]:
            out[i] = abs(special.em_zeta_half(float(ts[i]))) ** 2
    return out


def integrate_z(iv: Interval, cfg: QuadConfig = QuadConfig(),
                rs_cfg: RSConfig = RSConfig()) -> float:
    """Adaptive integral of Z over [a, b], a >= 10."""
    if iv.a < 10.0:
        raise DomainError(f"integrate_z needs a >= 10, got {iv.a}")
    return adaptive_integrate(lambda ts: z_values(ts, rs_cfg), iv.a, iv.b,
                              cfg).value


def integrate_z2(iv: Interval, cfg: QuadConfig = QuadConfig(),
                 rs_cfg: RSConfig = RSConfig()) -> float:
    """Adaptive integral of Z^2 over [a, b], a >= 0."""
    if iv.a < 0.0:
        raise DomainError(f"integrate_z2 needs a >= 0, got {iv.a}")
    return adaptive_integrate(lambda ts: z2_values(ts, rs_cfg), iv.a, iv.b,
                              cfg).value


class PanelChain:
    """Fixed panel grid over [a, b] with a closed-form prefix integral.

    Node values are projected onto Legendre series per panel (exact through
    degree 14, i.e. to roundoff for phase-bounded panels) and integrated
    termwise; prefix sums across panels are carried in longdouble so the
    chain can span ~1e6 units without losing the 1e-10 tail.
    """

    __slots__ = ("a", "b", "edges", "mids", "hws", "coef", "cum", "_dcoef")

    def __init__(self, a, b, edges, mids, hws, coef, cum):
        self.a = a
        self.b = b
        self.edges = edges
        self.mids = mids
        self.hws = hws
        self.coef = coef
        self.cum = cum
        self._dcoef = None

    @classmethod
    def build(cls, a: float, b: float, fvec, osc_factor: float = 0.5
              ) -> "PanelChain":
        if not b > a:
            raise DomainError("PanelChain needs b > a")
        edges = _initial_edges(a, b, osc_factor)
        vals, _ = _panel_sums(fvec, edges[:-1], edges[1:])
        mids = 0.5 * (edges[:-1] + edges[1:])
        hws = 0.5 * np.diff(edges)
        coef = npleg.legint(_legendre_project(vals), lbnd=-1) * hws[None, :]
        totals = npleg.legval(1.0, coef)
        cum = np.concatenate(([np.longdouble(0.0)],
                              np.cumsum(totals.astype(np.longdouble))))
        return cls(float(a), float(b), edges, mids, hws, coef, cum)

    def _locate(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Panel index of each t, clipped to the span, and its position in
        that panel's [-1, 1]."""
        tc = np.clip(t, self.a, self.b)
        idx = np.clip(np.searchsorted(self.edges, tc, side="right") - 1, 0,
                      self.mids.size - 1)
        return idx, (tc - self.mids[idx]) / self.hws[idx]

    def prefix(self, t) -> np.ndarray:
        """Vectorized int_a^t of the interpolated integrand."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and (t.min() < self.a - 1e-9 or t.max() > self.b + 1e-9):
            raise RangeError("prefix query outside the chain span")
        idx, x = self._locate(t)
        inner = npleg.legval(x, self.coef[:, idx], tensor=False)
        return (self.cum[idx] + inner).astype(np.float64)

    def integral(self, u, v) -> np.ndarray:
        return self.prefix(v) - self.prefix(u)

    def slope(self, t) -> np.ndarray:
        """Derivative of prefix: the interpolated integrand itself."""
        if self._dcoef is None:
            self._dcoef = npleg.legder(self.coef)
        idx, x = self._locate(np.asarray(t, dtype=np.float64))
        inner = npleg.legval(x, self._dcoef[:, idx], tensor=False)
        return inner / self.hws[idx]

    @property
    def total(self) -> float:
        return float(self.cum[-1])


def z_chain(a: float, b: float, cfg: QuadConfig = QuadConfig(),
            rs_cfg: RSConfig = RSConfig()) -> PanelChain:
    return PanelChain.build(a, b, lambda ts: z_values(ts, rs_cfg),
                            cfg.osc_factor)


def z2_chain(a: float, b: float, cfg: QuadConfig = QuadConfig(),
             rs_cfg: RSConfig = RSConfig()) -> PanelChain:
    return PanelChain.build(a, b, lambda ts: z2_values(ts, rs_cfg),
                            cfg.osc_factor)


class SecondMomentTable:
    """Append-only checkpoints of I(T) = int_0^T Z^2 at a fixed stride.

    Checkpoint values depend only on the stride grid and the configs, never
    on which caller triggered the extension, so concurrent use just needs
    the single-writer lock around extension.
    """

    STRIDE = 64.0

    def __init__(self, cfg: QuadConfig = QuadConfig(),
                 rs_cfg: RSConfig = RSConfig()):
        self.cfg = cfg
        self.rs_cfg = rs_cfg
        self.tolerance = cfg.abs_tol
        self.fingerprint = table_key(cfg, rs_cfg)
        self._ts: List[float] = [0.0]
        self._is: List[float] = [0.0]
        self._lock = threading.Lock()

    @property
    def top(self) -> float:
        return self._ts[-1]

    @property
    def checkpoints(self) -> List[Tuple[float, float]]:
        return list(zip(self._ts, self._is))

    def ensure(self, t: float, workers: int = 0) -> None:
        """Extend checkpoints so the last one is within one stride below t.

        Segments are independent integrals, so they may be evaluated by a
        thread pool; the fold into running totals stays in ascending order,
        which keeps the checkpoint values bit-identical for any worker count.
        """
        with self._lock:
            n_seg = int((t - self._ts[-1]) // self.STRIDE)
            if n_seg <= 0:
                return
            base = self._ts[-1]
            los = [base + i * self.STRIDE for i in range(n_seg)]

            def seg_value(lo: float) -> float:
                return adaptive_integrate(
                    lambda ts: z2_values(ts, self.rs_cfg), lo,
                    lo + self.STRIDE, self.cfg).value

            if workers <= 0:
                workers = min(8, os.cpu_count() or 1)
            if workers > 1 and n_seg > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    vals = list(pool.map(seg_value, los))
            else:
                vals = [seg_value(lo) for lo in los]
            for lo, v in zip(los, vals):
                self._ts.append(lo + self.STRIDE)
                self._is.append(self._is[-1] + v)

    def value_at(self, t: float) -> Tuple[float, float]:
        """Largest checkpoint (t_i, I_i) with t_i <= t."""
        i = int(t // self.STRIDE)
        i = min(i, len(self._ts) - 1)
        return self._ts[i], self._is[i]


def cumulative_I(T: float, table: SecondMomentTable) -> float:
    """I(T) = int_0^T Z^2 through the checkpoint table, under its configs."""
    if not 0 <= T < math.inf:
        raise DomainError(f"cumulative_I needs finite T >= 0, got {T}")
    if T == 0.0:
        return 0.0
    table.ensure(T)
    t0, i0 = table.value_at(T)
    if t0 == T:
        return i0
    part = adaptive_integrate(lambda ts: z2_values(ts, table.rs_cfg), t0, T,
                              table.cfg)
    return i0 + part.value


def write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into
    place, so readers find the old file or the whole new one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _table_header(table: SecondMomentTable, rows: int) -> str:
    return (f"smtable-v2,{table.fingerprint},stride={table.STRIDE!r},"
            f"tolerance={table.tolerance!r},rows={rows}")


def save_table(table: SecondMomentTable, path) -> None:
    lines = [_table_header(table, len(table._ts))]
    for t, i in zip(table._ts, table._is):
        lines.append(f"{t!r},{i!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_table(path, cfg: QuadConfig = QuadConfig(),
               rs_cfg: RSConfig = RSConfig()) -> SecondMomentTable:
    """The table save_table wrote to path under these configs.

    TableIntegrityError unless the file is whole: newline-terminated, with
    the header save_table writes (tag, key, stride, tolerance and the row
    count), checkpoint k at k strides (value_at finds checkpoints by
    index) and I nondecreasing from I(0) = 0.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise TableIntegrityError(f"{path}: cut short (no final newline)")
    header, *rows = text.splitlines()
    table = SecondMomentTable(cfg, rs_cfg)
    want = _table_header(table, len(rows))
    if header != want:
        raise TableIntegrityError(f"{path}: header {header!r} is not "
                                  f"{want!r}")
    pts = [tuple(map(float, ln.split(","))) for ln in rows]
    table._ts = [t for t, _ in pts]
    table._is = [i for _, i in pts]
    if table._ts != [k * table.STRIDE for k in range(len(pts))]:
        raise TableIntegrityError(f"{path}: checkpoints off the stride grid")
    if not pts or table._is[0] != 0.0 \
            or any(b < a for a, b in zip(table._is, table._is[1:])):
        raise TableIntegrityError(f"{path}: I must start at 0, never falling")
    return table


@dataclass(frozen=True)
class MomentReport:
    """Windowed second-moment integral and its comparison value 2 pi H U0."""

    T: float
    H: float
    U0: float
    jbar: float
    ratio: float

    def as_dict(self) -> dict:
        return {"schema": "moment-v1", "T": self.T, "H": self.H,
                "U0": self.U0, "jbar": self.jbar, "ratio": self.ratio}


def admissible_h_range(T: float) -> Tuple[float, float]:
    """Open admissibility window (lnln T / ln T, T^{1/lnln T}) for H."""
    if T <= math.e:
        raise DomainError(f"admissible_h_range needs T > e, got {T}")
    lt = math.log(T)
    llt = math.log(lt)
    if llt <= 0:
        raise DomainError(f"T too small for an admissible window: {T}")
    return llt / lt, T ** (1.0 / llt)


def hl_moment(T: float, H: float, cfg: QuadConfig = QuadConfig(),
              rs_cfg: RSConfig = RSConfig(),
              u0_exponent: float = 0.5001) -> MomentReport:
    """Mean square of the windowed integral int_t^{t+H} Z over [T, T+U0].

    U0 = T^u0_exponent; the expected value of the mean square is 2 pi H, so
    ratio -> 1 as T grows for admissible H.  The chain antiderivative makes
    the inner window a difference of prefix integrals, so Z is evaluated
    once per grid node no matter how the outer points fall.
    """
    if T < 100.0:
        raise DomainError(f"hl_moment needs T >= 100, got {T}")
    lo, hi = admissible_h_range(T)
    if not (lo < H < hi):
        raise DomainError(
            f"H={H} not admissible at T={T}: need {lo:.6g} < H < {hi:.6g}")
    u0 = T ** u0_exponent
    chain = z_chain(T, T + u0 + H, cfg, rs_cfg)

    def windowed_sq(ts: np.ndarray) -> np.ndarray:
        return chain.integral(ts, ts + H) ** 2

    res = adaptive_integrate(windowed_sq, T, T + u0, cfg)
    jbar = res.value
    return MomentReport(T=T, H=H, U0=u0, jbar=jbar,
                       ratio=jbar / (TWO_PI * H * u0))
