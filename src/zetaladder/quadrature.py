"""Oscillation-aware quadrature for Z and Z^2.

Z(t) oscillates with local frequency theta'(t) ~ (1/2) ln(t/2pi), so every
integral here is cut into panels whose width bounds the phase advance per
panel, with an edge wherever tau = sqrt(t/2pi) passes an integer (the
Riemann-Siegel Z^2 jumps there).  On such panels the integrand is
polynomial-tame and Gauss-Legendre 15 is accurate to roundoff.

Adaptive integration supplies the error control with the embedded
Gauss-Kronrod 15/31 pair: level by level, every pending panel is evaluated
at its 31 Kronrod nodes in one vectorized sweep, its value is the K31 sum
and its estimate |K31 - G15|; a panel over budget is bisected and each
half gets its own 31 nodes.  First-level panels advance the phase of Z by
at most 6 radians, where G15 is exact to roundoff on Z^2, so the common
stride passes at the first level.  Each node is passed to the integrand
as a float t plus its exact remainder dt (fvec(t, dt)): a node rounded to
the ulp of t (1.2e-10 at 1e6) would change Z^2 by ~1e-9 relative, an error
that the shared nodes hide from |K31 - G15| on wide panels.  Accepted
contributions are summed exactly.  Which panels are accepted depends only
on the inputs and a panel's sums only on its own nodes, so results never
depend on batch shape or scheduling.

Two consumers sit on top of the same panel machinery:

- PanelChain: a fixed grid of panels `_CHAIN_PHASE` radians wide, nodes
  rounded to floats (fvec(t)), whose per-panel Legendre interpolants are
  integrated in closed form, giving a cheap prefix integral t -> int_a^t.
  The windowed moment reads both of its integrals off one Z chain: the
  inner window is a difference of prefixes, and the outer integral of its
  square is a piecewise polynomial that GL16 integrates exactly
  (`PanelChain.windowed_sq_integral`), with no further Z evaluations and
  no adaptivity.
- SecondMomentTable: checkpoints of I(T) = int_0^T Z^2 at a fixed stride,
  extended append-only (single writer) and persisted as `smtable-v2` files
  keyed by `table_key`: the QuadConfig fingerprint plus the Riemann-Siegel
  correction order, written whole (`write_atomic`) and refused on load
  when damaged.

Below t = 8pi the Riemann-Siegel route is too short to trust, so Z switches
to the rotated Euler-Maclaurin oracle there; Z^2 is the square of that Z
on both sides of 8pi.
"""

from __future__ import annotations

import contextlib
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

from . import _tables, kernels, special
from .errors import (DomainError, PrecisionError, RangeError,
                     TableIntegrityError)
from .special import RS_MIN, RSConfig, TWO_PI

_GL_X = npleg.leggauss(15)[0]
# The Gauss-Kronrod 15/31 pair (QUADPACK's qk31; Piessens et al. 1983), to
# 25 digits: the Stieltjes polynomial E_16 solved in exact rationals, its
# roots and the weights in 60-digit arithmetic (mpmath), offline; literals,
# so the import solves for nothing.  Kronrod nodes x > 0 in QUADPACK's
# order (its xgk(1), xgk(3), ...):
_KR_XPOS = np.array([
    0.9980022986933970602851728, 0.967739075679139134257348,
    0.8972645323440819008825097, 0.7904185014424659329676493,
    0.6509967412974169705337359, 0.4850818636402396806936557,
    0.29918000715316881216678, 0.1011420669187174990270742])
# K31 weights of the nodes in ascending order from -1 to 0
_K31_WNEG = np.array([
    0.005377479872923348987792051, 0.01500794732931612253837476,
    0.025460847326715320186874, 0.03534636079137584622203795,
    0.0445897513247648766082273, 0.05348152469092808726534315,
    0.06200956780067064028513923, 0.06985412131872825870952008,
    0.07684968075772037889443278, 0.08308050282313302103828925,
    0.08856444305621177064727544, 0.09312659817082532122548687,
    0.09664272698362367850517991, 0.09917359872179195933239317,
    0.1007698455238755950449467, 0.1013300070147915490173748])
# G15 weights of the nodes in ascending order from -1 to 0
_GL_WNEG = np.array([
    0.03075324199611726835462839, 0.07036604748810812470926742,
    0.1071592204671719350118695, 0.1395706779261543144478048,
    0.1662692058169939335532009, 0.1861610000155622110268006,
    0.1984314853271115764561183, 0.2025782419255612728806202])
_GL_W = np.concatenate((_GL_WNEG, _GL_WNEG[-2::-1]))
# the 31 nodes ascending; Kronrod and Gauss nodes interlace, so the Gauss
# nodes (numpy's leggauss, as `_panel_sums` uses) sit at the odd places
_K31_X = np.empty(31)
_K31_X[0::2] = np.concatenate((-_KR_XPOS, _KR_XPOS[::-1]))
_K31_X[1::2] = _GL_X
_K31_W = np.concatenate((_K31_WNEG, _K31_WNEG[-2::-1]))
# exact through degree 31: the square of a chain's degree-15 prefix
_GL16_X, _GL16_W = npleg.leggauss(16)
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


# Phase advance of Z across a first-level panel of `adaptive_integrate`, in
# radians: Z^2 then varies like cos(w x), w <= 6, in the panel's [-1, 1],
# and G15 integrates cos(6x) to 2.5e-16 (7.7e-15 at w = 8).  So a panel
# fails its budget only where Z^2 is not smooth, and the K31 - G15
# difference is roundoff where it is (Trefethen, Approximation Theory and
# Approximation Practice, 2013, ch. 19).
_FIRST_LEVEL_PHASE = 6.0
# Phase advance of Z across a `PanelChain` panel, in radians.  Chains are
# not adaptive, so their width sets their accuracy.
_CHAIN_PHASE = 0.5


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of `adaptive_integrate`.

    abs_tol splits over the interval in per-panel budgets; rel_tol only
    relaxes the final achievability check; max_depth caps bisection.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_depth: int = 24

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if not (4 <= self.max_depth <= 60):
            raise DomainError("max_depth must lie in [4, 60]")

    @property
    def fingerprint(self) -> str:
        """Short stable hash identifying results produced under this config
        (panel rule version and chain width included so cached tables
        invalidate on change)."""
        blob = (f"panelgk31-v7|abs={self.abs_tol!r}|rel={self.rel_tol!r}"
                f"|depth={self.max_depth}|osc={_CHAIN_PHASE!r}")
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def table_key(cfg: QuadConfig, rs_cfg: RSConfig) -> str:
    """Key of a checkpoint table and of everything fit against it: the
    quadrature fingerprint plus the correction order of the Z^2 integrand,
    which together fix every checkpoint value."""
    return f"{cfg.fingerprint}-rs{rs_cfg.correction_order}"


def _panel_freq(t):
    # theta' floored at its 8pi value; below 8pi the oracle integrand varies
    # on unit scales anyway
    return 0.5 * np.log(np.maximum(t, RS_MIN) / TWO_PI)


def _initial_edges(a: float, b: float, phase: float) -> np.ndarray:
    """Panel edges over [a, b] with width * theta'(right edge) <= phase.

    [a, b] is cut into blocks of at most 64 units and at every t = 2 pi k^2
    (k >= 2) inside it, where tau passes an integer and the Riemann-Siegel
    Z^2 jumps (k = 2 is RS_MIN, the switch from the oracle).  Each block
    gets equal panels sized by theta' at its right end, which bounds every
    panel in it since theta' is nondecreasing.

    Edges other than a and b are rounded to a grid of 2^-44 of the
    endpoints' binade (at most 2^-15 of the narrowest panel), so the
    midpoint of a panel, and of its halves for eight bisection levels, is
    exact wherever panels span 2^15 ulps of t, as at every height here.
    That matters to `PanelChain`, whose nodes are rounded to floats: they
    then pair off about the midpoint and round antisymmetrically, which
    cancels their rounding to first order, where a rounded midpoint would
    shift all nodes together.  (`adaptive_integrate`'s nodes are exact.)
    A cut moves by half a grid step at most, far less than the distance
    from an edge to its panel's first node.  Split blocks leave two grid
    steps of room for the rounding.
    """
    top = max(abs(a), abs(b))
    step = math.ldexp(1.0, min(math.frexp(top)[1] - 44, math.frexp(
        phase / _panel_freq(top))[1] - 16))

    def snap(t):
        return np.rint(t / step) * step

    ks = np.arange(max(2, math.ceil(math.sqrt(max(a, 0.0) / TWO_PI))),
                   math.floor(math.sqrt(max(b, 0.0) / TWO_PI)) + 1)
    inner = snap(np.concatenate((
        a + 64.0 * np.arange(1, math.ceil((b - a) / 64.0)),
        TWO_PI * (ks * ks))))
    blocks = np.sort(np.concatenate(
        ([a], inner[(inner > a) & (inner < b)], [b])))
    blocks = blocks[kernels.run_starts(blocks)]
    lo, width = blocks[:-1], np.diff(blocks)
    freq = _panel_freq(blocks[1:])
    n = np.where(width * freq <= phase, 1.0, np.ceil(
        width * freq / (phase - 2.0 * step * freq))).astype(np.int64)
    blk = np.repeat(np.arange(n.size), n)
    pos = np.arange(blk.size) - np.repeat(np.cumsum(n) - n, n)
    edges = np.where(pos == 0, lo[blk],
                     snap(lo[blk] + width[blk] * (pos / n[blk])))
    return np.append(edges, b)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    neval: int


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, xs: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t + dt (P, len(xs)) at xs of the panels [lo, hi], and the
    panels' half widths (P,).

    t is the float mid + hw x and dt its exact remainder, which carries the
    rounding of the midpoint too, so t + dt is the node unrounded."""
    mids, mid_lo = _tables.two_sum(lo, hi)
    mids *= 0.5
    mid_lo *= 0.5
    hws = 0.5 * (hi - lo)
    t, dt = _tables.two_sum(mids[:, None], hws[:, None] * xs[None, :])
    dt += mid_lo[:, None]
    return t, dt, hws


def _panel_values(fvec, lo: np.ndarray, hi: np.ndarray,
                  xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values (P, len(xs)) of fvec(t, dt) at the exact nodes xs of the
    panels [lo, hi], and the panels' half widths (P,)."""
    t, dt, hws = _panel_nodes(lo, hi, xs)
    vals = np.asarray(fvec(t.ravel(), dt.ravel()), dtype=np.float64)
    return vals.reshape(t.shape), hws


def _rule_sums(vals: np.ndarray, weights: np.ndarray,
               hws: np.ndarray) -> np.ndarray:
    # summed row by row along the contiguous axis, in an order fixed by the
    # row length alone, so a panel's sum does not depend on the batch
    return np.add.reduce(vals * weights, axis=1) * hws


def _panel_sums(fvec, lo: np.ndarray,
                hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GL15 node values (P, 15) and sums (P,) of the panels [lo, hi], with
    fvec taking the nodes rounded to floats."""
    t, _, hws = _panel_nodes(lo, hi, _GL_X)
    vals = np.asarray(fvec(t.ravel()), dtype=np.float64).reshape(t.shape)
    return vals, _rule_sums(vals, _GL_W, hws)


def adaptive_integrate(fvec: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       a: float, b: float, cfg: QuadConfig) -> QuadResult:
    """Deterministic adaptive integration of a vectorized integrand.

    fvec(t, dt) takes each node as a float t plus its exact remainder dt;
    an integrand that cannot use the remainder ignores it.  Bisects level
    by level, starting from panels across which Z advances its phase by
    `_FIRST_LEVEL_PHASE` radians (`_CHAIN_PHASE` sizes chains).  Each
    pass evaluates every pending panel at its 31 Kronrod nodes in one
    vectorized call; a panel's value is its K31 sum and its estimate
    |K31 - G15|, from the 15 Gauss nodes among the 31.  A panel is accepted
    when the estimate meets its width-proportional budget or the panel
    sits at max_depth; the halves of the others are the next level.  The
    common case ends after one pass.  Value and bound are exact sums, so
    the order in which panels are accepted does not matter.
    """
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    edges = _initial_edges(a, b, _FIRST_LEVEL_PHASE)
    lo, hi = edges[:-1], edges[1:]
    neval = 0
    inv_total = 1.0 / (b - a)
    parts: List[float] = []
    errs: List[float] = []
    depth = 0
    while lo.size:
        vals, hws = _panel_values(fvec, lo, hi, _K31_X)
        neval += vals.size
        kronrod = _rule_sums(vals, _K31_W, hws)
        est = np.abs(kronrod - _rule_sums(vals[:, 1::2], _GL_W, hws))
        if depth == 0:
            s0 = fsum(kronrod.tolist())
        # panel budgets come from abs_tol alone: additivity contracts
        # compare decompositions in abs_tol units, so the looser rel_tol
        # allowance must not leak into per-panel acceptance.  rel_tol only
        # relaxes the final achievability check below.
        budgets = cfg.abs_tol * (hi - lo) * inv_total
        done = (est <= budgets) | (depth >= cfg.max_depth)
        parts.extend(kronrod[done].tolist())
        errs.extend(est[done].tolist())
        keep = ~done
        mid = 0.5 * (lo[keep] + hi[keep])
        lo, hi = (np.column_stack((lo[keep], mid)).ravel(),
                  np.column_stack((mid, hi[keep])).ravel())
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


def z_values(ts: np.ndarray, rs_cfg: RSConfig = RSConfig(), *,
             dts: np.ndarray = None) -> np.ndarray:
    """Signed Z on arrays: Riemann-Siegel for t >= 8pi, oracle below.

    dts, if given, are exact remainders of the heights (quadrature nodes
    t + dt); the oracle, whose own error is ~4e-15, ignores them.  rs_cfg
    is checked, so an integrand passed bare to `adaptive_integrate`, which
    would bind a remainder to it, fails."""
    if not isinstance(rs_cfg, RSConfig):
        raise TypeError(f"rs_cfg must be an RSConfig, got "
                        f"{type(rs_cfg).__name__}; pass remainders as dts=")
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    hi = ts >= RS_MIN
    if hi.any():
        out[hi] = special.riemann_siegel_z_values(
            ts[hi], rs_cfg, dts=None if dts is None else np.asarray(dts)[hi])
    if not hi.all():
        phase = special.z_phases(ts[~hi])
        zeta = np.array([special.em_zeta_half(t) for t in ts[~hi].tolist()])
        # Re(phase * zeta) written out: numpy's complex product fuses a
        # multiply-add, which moves the last bit against Python's product
        out[~hi] = phase.real * zeta.real - phase.imag * zeta.imag
    return out


def z2_values(ts: np.ndarray, rs_cfg: RSConfig = RSConfig(), *,
              dts: np.ndarray = None) -> np.ndarray:
    """Z^2 on arrays, the square of `z_values`."""
    return z_values(ts, rs_cfg, dts=dts) ** 2


def _prefix_sums(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Running sums 0, x0, x0 + x1, ... as float64 pairs hi + lo.

    Neumaier's compensated sum in order: the plain running sum plus the
    running sum of its exact rounding errors, here formed by two-sums for
    all steps at once rather than by a branch per step."""
    run = np.cumsum(np.concatenate(([0.0], xs)))
    _, err = _tables.two_sum(run[:-1], xs)
    return _tables.two_sum(run, np.cumsum(np.concatenate(([0.0], err))))


class PanelChain:
    """Fixed panel grid over [a, b] with a closed-form prefix integral.

    Node values are projected onto Legendre series per panel (exact through
    degree 14, i.e. to roundoff for phase-bounded panels) and integrated
    termwise.  Prefix sums across panels are carried as a compensated
    float64 pair cum + cum_lo (Neumaier, in panel order), so the chain can
    span ~1e6 units without losing the 1e-10 tail.
    """

    __slots__ = ("a", "b", "edges", "mids", "hws", "coef", "cum", "cum_lo",
                 "_dcoef")

    def __init__(self, a, b, edges, mids, hws, coef, totals):
        self.a = a
        self.b = b
        self.edges = edges
        self.mids = mids
        self.hws = hws
        self.coef = coef
        self.cum, self.cum_lo = _prefix_sums(totals)
        self._dcoef = None

    @classmethod
    def build(cls, a: float, b: float, fvec) -> "PanelChain":
        if not b > a:
            raise DomainError("PanelChain needs b > a")
        edges = _initial_edges(a, b, _CHAIN_PHASE)
        vals, _ = _panel_sums(fvec, edges[:-1], edges[1:])
        mids = 0.5 * (edges[:-1] + edges[1:])
        hws = 0.5 * np.diff(edges)
        coef = npleg.legint(_legendre_project(vals), lbnd=-1) * hws[None, :]
        return cls(float(a), float(b), edges, mids, hws, coef,
                   npleg.legval(1.0, coef))

    def _locate(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Panel index of each t, clipped to the span, and its position in
        that panel's [-1, 1], measured from the left edge: t - edge is exact,
        so an edge maps to exactly -1 or 1 even where the rounded panel mid
        is off by an ulp of t (~1e-10 at t = 1e6)."""
        tc = np.clip(t, self.a, self.b)
        idx = np.clip(np.searchsorted(self.edges, tc, side="right") - 1, 0,
                      self.mids.size - 1)
        return idx, (tc - self.edges[idx]) / self.hws[idx] - 1.0

    def prefix(self, t) -> np.ndarray:
        """Vectorized int_a^t of the interpolated integrand."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and (t.min() < self.a - 1e-9 or t.max() > self.b + 1e-9):
            raise RangeError("prefix query outside the chain span")
        return self._prefix_at(*self._locate(t))

    def _prefix_at(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Prefix at position x of panels idx; x may carry leading axes."""
        inner = npleg.legval(x, self.coef[:, idx], tensor=False)
        return self.cum[idx] + (self.cum_lo[idx] + inner)

    def integral(self, u, v) -> np.ndarray:
        return self.prefix(v) - self.prefix(u)

    def windowed_sq_integral(self, a: float, b: float, h: float) -> float:
        """int_a^b (prefix(t + h) - prefix(t))^2 dt, exact to roundoff.

        Between the breaks edges and edges - h the window W(t) is one
        degree-15 polynomial, so GL16 integrates W^2 exactly on each piece.
        Nodes are offsets from the piece's left end u, and their panel
        coordinates come from the exact difference u - edge, so no node is
        rounded to the ulp of t.
        """
        if not (self.a <= a <= b and 0.0 <= h and b + h <= self.b + 1e-9):
            raise RangeError("window outside the chain span")
        e = self.edges
        cuts = np.concatenate((e, e - h))
        br = np.sort(np.concatenate(([a, b], cuts[(cuts > a) & (cuts < b)])))
        br = br[kernels.run_starts(br)]
        u = br[:-1]
        hw = 0.5 * np.diff(br)
        step = hw[:, None] * (1.0 + _GL16_X)
        last = self.mids.size - 1

        def shifted_prefix(s):
            # prefix at the nodes shifted by s, (nodes, pieces); the panel
            # is looked up once per piece, at its mid
            idx = np.clip(np.searchsorted(e, u + hw + s, side="right") - 1,
                          0, last)
            off = (u - e[idx]) + s
            return self._prefix_at(
                idx, ((off[:, None] + step) / self.hws[idx, None] - 1.0).T)

        w = shifted_prefix(h) - shifted_prefix(0.0)
        sums = np.add.reduce(w * w * _GL16_W[:, None], axis=0) * hw
        return fsum(sums.tolist())

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
    return PanelChain.build(a, b, lambda ts: z_values(ts, rs_cfg))


def z2_chain(a: float, b: float, cfg: QuadConfig = QuadConfig(),
             rs_cfg: RSConfig = RSConfig()) -> PanelChain:
    return PanelChain.build(a, b, lambda ts: z2_values(ts, rs_cfg))


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
                    lambda t, dt: z2_values(t, self.rs_cfg, dts=dt), lo,
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
    part = adaptive_integrate(
        lambda t, dt: z2_values(t, table.rs_cfg, dts=dt), t0, T, table.cfg)
    return i0 + part.value


def write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into
    place, so readers find the old file or the whole new one.  If the
    write or the rename fails, the temporary file is removed."""
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
    ratio -> 1 as T grows for admissible H.  Z is evaluated once, on a
    chain over [T, T+U0+H]: the inner window is a difference of its
    prefixes, and the outer integral of the window's square is exact on
    the chain's pieces (`PanelChain.windowed_sq_integral`), so the error of
    jbar is the chain's own and no outer tolerance applies.
    """
    if T < 100.0:
        raise DomainError(f"hl_moment needs T >= 100, got {T}")
    lo, hi = admissible_h_range(T)
    if not (lo < H < hi):
        raise DomainError(
            f"H={H} not admissible at T={T}: need {lo:.6g} < H < {hi:.6g}")
    u0 = T ** u0_exponent
    chain = z_chain(T, T + u0 + H, cfg, rs_cfg)
    jbar = chain.windowed_sq_integral(T, T + u0, H)
    return MomentReport(T=T, H=H, U0=u0, jbar=jbar,
                       ratio=jbar / (TWO_PI * H * u0))
