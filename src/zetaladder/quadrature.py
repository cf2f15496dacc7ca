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
depend on batch shape or scheduling.  `adaptive_integrate_many` runs many
intervals through one such loop, each with its own budgets, bound and
achievability check; `adaptive_integrate` is its one-interval case.

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
  extended append-only under a lock, four strides per pass of
  `adaptive_integrate_many` and in ascending order.  Each stride integrates
  as it would alone, so the table's bytes do not depend on the pass size.

Every cached artifact (the table, the calibration, the moment memo) is
written by `write_artifact` and refused by `read_artifact` unless its first
line is `header,KEY,sha256=<digest of the body>`; `KEY` hashes a version
string per numeric layer, so a cut file, a changed digit and a file of
another algorithm are refused alike.

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
from dataclasses import dataclass
from math import fsum
from typing import Callable, List, Tuple

import numpy as np
from numpy.polynomial import legendre as npleg

from . import _tables, kernels, special
from .errors import (DomainError, PrecisionError, RangeError,
                     TableIntegrityError)
from .special import RS_MIN, TWO_PI

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


# Tolerances of `adaptive_integrate`: ABS_TOL splits over the interval in
# per-panel budgets, REL_TOL only relaxes the final achievability check and
# MAX_DEPTH caps bisection
ABS_TOL = 1e-8
REL_TOL = 1e-8
MAX_DEPTH = 24
# Z on [T, T + U0] with U0 = T^U0_EXPONENT: the span of the windowed moment
# and of the factorization's eta scan
U0_EXPONENT = 0.5001
# One version string per layer whose constants move a cached number: the
# panels and tolerances, the kernel, Z's form, the moment's U0 and GL16 rule
_KEY_BLOB = "|".join((
    f"panelgk31-v8,ABS_TOL={ABS_TOL!r},REL_TOL={REL_TOL!r},"
    f"MAX_DEPTH={MAX_DEPTH},_CHAIN_PHASE={_CHAIN_PHASE!r}",
    kernels.VERSION, special.VERSION,
    f"moment-gl16,U0_EXPONENT={U0_EXPONENT!r}"))
# The key of every cached artifact and of every run manifest
KEY = hashlib.sha256(_KEY_BLOB.encode()).hexdigest()[:16]


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


def _owner_fsums(xs: np.ndarray, owner: np.ndarray, n: int) -> List[float]:
    """Exact sums of xs grouped by owner index 0 .. n-1."""
    order = np.argsort(owner, kind="stable")
    groups = np.split(xs[order], np.cumsum(np.bincount(owner, minlength=n)))
    return [fsum(g.tolist()) for g in groups[:n]]


def adaptive_integrate_many(
        fvec: Callable[[np.ndarray, np.ndarray], np.ndarray],
        cuts) -> List[QuadResult]:
    """Deterministic adaptive integrals over [cuts[i], cuts[i + 1]] in one
    loop, each interval with its own budgets, bound and achievability check
    (QUADPACK's qagp; Piessens et al. 1983).  An interval with b <= a
    integrates to zero.

    fvec(t, dt) takes each node as a float t plus its exact remainder dt;
    an integrand that cannot use the remainder ignores it.  Each interval
    starts from its own panels, across which Z advances its phase by
    `_FIRST_LEVEL_PHASE` radians, and the panels of all intervals are
    bisected level by level together.  Each level evaluates every pending
    panel at its 31 Kronrod nodes in one vectorized call; a panel's value
    is its K31 sum and its estimate |K31 - G15|, from the 15 Gauss nodes
    among the 31.  A panel is accepted when the estimate meets its
    width-proportional share of its interval's budget or the panel sits at
    MAX_DEPTH; the halves of the others are the next level.  The common
    case ends after one level.  Values and bounds are exact sums of an
    interval's own panels, so each result is bit for bit the interval's
    result alone, whatever the order of acceptance.
    """
    spans = list(zip(map(float, cuts[:-1]), map(float, cuts[1:])))
    n = len(spans)
    results = [QuadResult(0.0, 0.0, 0)] * n
    live = [i for i, (a, b) in enumerate(spans) if not b <= a]
    if not live:
        return results
    per = [_initial_edges(*spans[i], _FIRST_LEVEL_PHASE) for i in live]
    lo = np.concatenate([e[:-1] for e in per])
    hi = np.concatenate([e[1:] for e in per])
    owner = np.repeat(live, [e.size - 1 for e in per])
    inv_total = np.zeros(n)
    inv_total[live] = [1.0 / (spans[i][1] - spans[i][0]) for i in live]
    neval = np.zeros(n, dtype=np.int64)
    parts, errs, owners = [], [], []
    depth = 0
    while lo.size:
        vals, hws = _panel_values(fvec, lo, hi, _K31_X)
        neval += _K31_X.size * np.bincount(owner, minlength=n)
        kronrod = _rule_sums(vals, _K31_W, hws)
        est = np.abs(kronrod - _rule_sums(vals[:, 1::2], _GL_W, hws))
        if depth == 0:
            s0 = _owner_fsums(kronrod, owner, n)
        # panel budgets come from ABS_TOL alone: additivity contracts
        # compare decompositions in ABS_TOL units, so the looser REL_TOL
        # allowance must not leak into per-panel acceptance.  REL_TOL only
        # relaxes the final achievability check below.
        budgets = ABS_TOL * (hi - lo) * inv_total[owner]
        done = (est <= budgets) | (depth >= MAX_DEPTH)
        parts.append(kronrod[done])
        errs.append(est[done])
        owners.append(owner[done])
        keep = ~done
        mid = 0.5 * (lo[keep] + hi[keep])
        lo, hi = (np.column_stack((lo[keep], mid)).ravel(),
                  np.column_stack((mid, hi[keep])).ravel())
        owner = np.repeat(owner[keep], 2)
        depth += 1

    owner = np.concatenate(owners)
    values = _owner_fsums(np.concatenate(parts), owner, n)
    bounds = _owner_fsums(np.concatenate(errs), owner, n)
    for i in live:
        target = max(ABS_TOL, REL_TOL * abs(s0[i]))
        if bounds[i] > target * (1.0 + 1e-9):
            raise PrecisionError(
                f"tolerance {target:.3e} not reachable on "
                f"[{spans[i][0]!r}, {spans[i][1]!r}] "
                f"(error bound {bounds[i]:.3e} at max_depth={MAX_DEPTH})",
                estimate=values[i], bound=bounds[i])
        results[i] = QuadResult(values[i], bounds[i], int(neval[i]))
    return results


def adaptive_integrate(fvec: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       a: float, b: float) -> QuadResult:
    """Deterministic adaptive integral of fvec over [a, b]: the
    one-interval case of `adaptive_integrate_many`."""
    return adaptive_integrate_many(fvec, (a, b))[0]


def z_values(ts: np.ndarray, dts: np.ndarray = None) -> np.ndarray:
    """Signed Z on arrays: Riemann-Siegel for t >= 8pi, oracle below.

    dts, if given, are exact remainders of the heights (quadrature nodes
    t + dt), so z_values is itself an integrand of `adaptive_integrate`;
    the oracle, whose own error is ~4e-15, ignores them."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    hi = ts >= RS_MIN
    if hi.any():
        out[hi] = special.riemann_siegel_z_values(
            ts[hi], None if dts is None else np.asarray(dts)[hi])
    if not hi.all():
        phase = special.z_phases(ts[~hi])
        zeta = special.em_zeta_half(ts[~hi])
        # Re(phase * zeta) written out: numpy's complex product fuses a
        # multiply-add, which moves the last bit against Python's product
        out[~hi] = phase.real * zeta.real - phase.imag * zeta.imag
    return out


def z2_values(ts: np.ndarray, dts: np.ndarray = None) -> np.ndarray:
    """Z^2 on arrays, the square of `z_values`."""
    return z_values(ts, dts) ** 2


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


def z_chain(a: float, b: float) -> PanelChain:
    return PanelChain.build(a, b, z_values)


def z2_chain(a: float, b: float) -> PanelChain:
    return PanelChain.build(a, b, z2_values)


# Strides of the checkpoint table integrated in one pass: a pass shares the
# per-call set-up of theta and the kernel, and its pending nodes raise peak
# memory; nearly all of the gain is there at 4.
_STRIDES_PER_PASS = 4


class SecondMomentTable:
    """Append-only checkpoints of I(T) = int_0^T Z^2 at a fixed stride.

    Checkpoint k sits at exactly k strides, so only the I values are kept.
    They depend only on the stride grid and the tolerances, never on which
    caller triggered the extension or on how its strides were grouped into
    passes, so concurrent callers (the sweep's threads) just need the lock
    around extension.
    """

    STRIDE = 64.0
    fingerprint = KEY

    def __init__(self):
        self._is: List[float] = [0.0]
        self._lock = threading.Lock()

    @property
    def top(self) -> float:
        return (len(self._is) - 1) * self.STRIDE

    @property
    def checkpoints(self) -> List[Tuple[float, float]]:
        return [(k * self.STRIDE, i) for k, i in enumerate(self._is)]

    def ensure(self, t: float) -> None:
        """Extend checkpoints so the last one is within one stride below t.

        Strides are integrated `_STRIDES_PER_PASS` per call of
        `adaptive_integrate_many`, each to the value it has alone, and each
        pass is folded into the running total in ascending order under the
        lock, so a thread that finds the table short waits for the one
        extending it.  A pass that raises appends nothing.
        """
        with self._lock:
            n_seg = int((t - self.top) // self.STRIDE)
            for left in range(n_seg, 0, -_STRIDES_PER_PASS):
                cuts = [self.top + j * self.STRIDE
                        for j in range(min(left, _STRIDES_PER_PASS) + 1)]
                for res in adaptive_integrate_many(z2_values, cuts):
                    self._is.append(self._is[-1] + res.value)

    def value_at(self, t: float) -> Tuple[float, float]:
        """Largest checkpoint (t_i, I_i) with t_i <= t."""
        i = min(int(t // self.STRIDE), len(self._is) - 1)
        return i * self.STRIDE, self._is[i]


def cumulative_I(T: float, table: SecondMomentTable) -> float:
    """I(T) = int_0^T Z^2 through the checkpoint table."""
    if not 0 <= T < math.inf:
        raise DomainError(f"cumulative_I needs finite T >= 0, got {T}")
    if T == 0.0:
        return 0.0
    table.ensure(T)
    t0, i0 = table.value_at(T)
    if t0 == T:
        return i0
    return i0 + adaptive_integrate(z2_values, t0, T).value


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


def _artifact_line(header: str, body: str) -> str:
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"{header},{KEY},sha256={digest}"


def write_artifact(path, header: str, body: str) -> None:
    """Write body whole (`write_atomic`) under the one line
    `header,KEY,sha256=<hex digest of body>`."""
    write_atomic(path, f"{_artifact_line(header, body)}\n{body}")


def read_artifact(path, header: str) -> str:
    """The body of the artifact at path.  TableIntegrityError unless its
    first line is the one `write_artifact` writes for header and that body,
    so another header or key, or a body cut short or changed in any byte,
    is refused."""
    with open(path, errors="replace", newline="") as fh:
        first, _, body = fh.read().partition("\n")
    if first != _artifact_line(header, body):
        raise TableIntegrityError(
            f"{path}: first line {first[:120]!r} is not {header},{KEY} "
            "with the sha256 of the body")
    return body


_TABLE_HEADER = (f"smtable-v3,stride={SecondMomentTable.STRIDE!r},"
                 f"tolerance={ABS_TOL!r}")


def save_table(table: SecondMomentTable, path) -> None:
    write_artifact(path, _TABLE_HEADER, "".join(
        f"{t!r},{i!r}\n" for t, i in table.checkpoints))


def load_table(path) -> SecondMomentTable:
    """The table save_table wrote to path.

    TableIntegrityError unless `read_artifact` accepts the file, checkpoint
    k sits at k strides (value_at finds checkpoints by index) and I never
    falls from I(0) = 0.
    """
    rows = [ln.split(",") for ln in
            read_artifact(path, _TABLE_HEADER).splitlines()]
    table = SecondMomentTable()
    table._is = [float(i) for _, i in rows]
    if [float(t) for t, _ in rows] != [k * table.STRIDE
                                       for k in range(len(rows))]:
        raise TableIntegrityError(f"{path}: checkpoints off the stride grid")
    if not rows or table._is[0] != 0.0 \
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


def check_admissible(T: float, H: float) -> None:
    """DomainError unless H lies in the admissible window at T."""
    lo, hi = admissible_h_range(T)
    if not lo < H < hi:
        raise DomainError(
            f"H = {H:g} inadmissible at T = {T:g}: needs "
            f"ln ln T / ln T < H < T^(1/ln ln T), i.e. ({lo:.6g}, {hi:.6g})")


def hl_moment(T: float, H: float) -> MomentReport:
    """Mean square of the windowed integral int_t^{t+H} Z over [T, T+U0].

    U0 = T^U0_EXPONENT; the expected value of the mean square is 2 pi H, so
    ratio -> 1 as T grows for admissible H.  Z is evaluated once, on a
    chain over [T, T+U0+H]: the inner window is a difference of its
    prefixes, and the outer integral of the window's square is exact on
    the chain's pieces (`PanelChain.windowed_sq_integral`), so the error of
    jbar is the chain's own and no outer tolerance applies.
    """
    if T < 100.0:
        raise DomainError(f"hl_moment needs T >= 100, got {T}")
    check_admissible(T, H)
    u0 = T ** U0_EXPONENT
    chain = z_chain(T, T + u0 + H)
    jbar = chain.windowed_sq_integral(T, T + u0, H)
    return MomentReport(T=T, H=H, U0=u0, jbar=jbar,
                       ratio=jbar / (TWO_PI * H * u0))
