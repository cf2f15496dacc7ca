"""Second-moment ladder: heights, inverses, iterates, and calibration.

The ladder height phi1(T) is the y solving

    y ln y + (c - ln 2pi) y + c0 = I(T),        I(T) = int_0^T Z^2 dt,

with c Euler's constant and c0 an additive calibration constant.  The left
side is the smoothed second-moment growth law evaluated at y instead of T,
so y trails T by exactly the mass the lower-order terms carry; numerically
that gap tracks (1 - c) pi(T) with pi the prime-counting function (the
complement relation), which is also how c0 is calibrated: pick anchors T,
form the complement height T - (1 - c) pi(T), and fit the constant so the
profile there matches I(T).  The fit is linear in c0, so least squares is
an anchor mean.  Residual spread across anchors is the complement
relation's own slow drift (order T/ln^2 T across a decade), not noise; it
is reported, never corrected.

The inverse map is solved directly on I: phi1(y) = x means I(y) equals the
profile at x.  `InverseLevel` is the one solver: for all heights of one
ladder level at once it reads I as a table checkpoint plus one Z^2 panel
chain, brackets each root by the chain's panel-edge values, bisects and
finishes with the Newton loop `newton_to_plateau`.  `phi1_inverse` is its
one-point call, `inverse_levels` stacks it level by level for the inverse
iterates and the factorization's level maps, and phi1 inverts the profile
through `invert_profile`, which shares the same Newton loop.  LadderConfig
holds only the calibrated c0; Euler's constant is `EULER_C` and the weight
dividing Z^2 is always ln t.  Everything here treats the SecondMomentTable
as an immutable snapshot apart from its own append-only extension;
calibration mutates the LadderConfig and must happen before dependent
calls.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import (CalibrationError, DomainError, PrecisionError,
                     RangeError, TableIntegrityError)
from .quadrature import (KEY, SecondMomentTable, cumulative_I, read_artifact,
                         write_artifact, z2_chain)
from .special import TWO_PI
# not called here; kept because the benchmark's layer tracer wraps it
from .special import riemann_siegel_z  # noqa: F401

_LN_TWO_PI = math.log(TWO_PI)

# forward iterates below this leave the range the calibration was checked
# on; phi1 itself only needs I(T) to clear the profile minimum (~ c0), but
# the complement behaviour it exists for degrades fast below ~1e3.
_ITERATE_FLOOR = 1.0e3

# chains an inverse level builds, each wider by a doubling step from 100
# units: a root 3,100 units past the smoothed-law bracket means c0 is far
# off, and the chain is not grown without bound to find it
_WIDENINGS = 6

_log = logging.getLogger(__name__)


def euler_constant(n: int = 100) -> float:
    """Euler's constant from the defining limit sum_{k<=n} 1/k - ln n.

    The bare sequence converges like 1/(2n); the standard even-order tail
    corrections of the harmonic sum accelerate that to ~1e-18 at n = 100,
    comfortably past the 1e-12 build requirement.
    """
    if n < 10:
        raise DomainError(f"euler_constant needs n >= 10, got {n}")
    h = fsum(1.0 / k for k in range(1, n + 1))
    ninv2 = 1.0 / (n * n)
    tail = -0.5 / n + ninv2 * (1.0 / 12.0 - ninv2 * (1.0 / 120.0
                                                     - ninv2 / 252.0))
    return h - math.log(n) + tail


# Euler's constant from its defining limit.  numpy's euler_gamma lies one
# ulp away, which would move every calibrated c0.
EULER_C = euler_constant()


class IterateDirection(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


@dataclass
class LadderConfig:
    """The ladder's calibration constant.  Mutable on purpose: calibration
    writes c0, which starts at 0 and is meaningless until calibrate_c0 (or
    a loaded calibration artifact) sets it.
    """

    c0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.c0):
            raise DomainError(f"c0 must be finite, got {self.c0}")


@dataclass(frozen=True)
class LadderPoint:
    """One inverted ladder height with its defining-equation defect."""

    T: float
    phi1: float
    residual: float

    @property
    def phi(self) -> float:
        """Unhalved ladder value; the halved one is what gets iterated."""
        return 2.0 * self.phi1


def moment_profile(y: float, cfg: LadderConfig) -> float:
    """Predicted cumulative second moment at ladder height y."""
    if y <= 0.0:
        raise DomainError(f"moment_profile needs y > 0, got {y}")
    return y * math.log(y) + (EULER_C - _LN_TWO_PI) * y + cfg.c0


def moment_profile_slope(y: float, cfg: LadderConfig) -> float:
    """d/dy of moment_profile; positive on the inversion branch."""
    return math.log(y) + 1.0 + EULER_C - _LN_TWO_PI


def profile_values(ys: np.ndarray, cfg: LadderConfig) -> np.ndarray:
    """Vectorized moment_profile without the scalar domain guard."""
    y = np.asarray(ys, dtype=np.float64)
    return y * np.log(y) + (EULER_C - _LN_TWO_PI) * y + cfg.c0


def newton_to_plateau(x: np.ndarray,
                      value: Callable[[np.ndarray], np.ndarray],
                      targets: np.ndarray,
                      step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      tol: np.ndarray, max_iter: int) -> np.ndarray:
    """Vectorized Newton to rounding on value(x) = targets, point by point.

    Each point takes x <- step(x, value(x) - target) until its own
    |residual| <= tol, until it has failed twice in a row to improve on its
    own best (it has plateaued at rounding), or until max_iter steps.
    Stopped points leave the batch, and value and step must work
    elementwise, so a point's result does not depend on the other points.
    step owns the update and any clamping.
    """
    x = np.array(x, dtype=np.float64)
    best = np.full(x.shape, math.inf)
    worse = np.zeros(x.shape, dtype=np.int64)
    live = np.arange(x.size)
    for _ in range(max_iter):
        if not live.size:
            break
        xl = x[live]
        f = value(xl) - targets[live]
        resid = np.abs(f)
        improved = resid < best[live]
        best[live] = np.where(improved, resid, best[live])
        worse[live] = np.where(improved, 0, worse[live] + 1)
        go = ~(resid <= tol[live]) & (worse[live] < 2)
        live = live[go]
        x[live] = step(xl[go], f[go])
    return x


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = 2e-12, rtol: float = 8.881784197001252e-16,
           maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method, to |error| <= xtol + rtol|x|.

    A line-for-line transcription of Brent's zero finder (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4) as the
    C routine brentq.c has it; tests/test_ladder.py checks that the two
    return the same roots bit for bit wherever that routine is installed.
    f(a) and f(b) of one sign raise RangeError and a NaN value of f
    DomainError (both exit 2 from the CLI); no convergence within maxiter
    steps raises PrecisionError (exit 4) with the last iterate.
    """
    def at(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"brentq: f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RangeError(f"brentq: f({xpre!r}) = {fpre:g} and "
                         f"f({xcur!r}) = {fcur:g} have one sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = at(xcur)
    raise PrecisionError(f"brentq did not converge in {maxiter} steps",
                         estimate=xcur, bound=abs(xblk - xcur))


def invert_profile(targets: np.ndarray, cfg: LadderConfig) -> np.ndarray:
    """Vectorized moment_profile inversion on its increasing branch.

    Plain Newton: the profile is convex there, so after the first step the
    iterates descend monotonically and no bracket is needed.  Targets must
    sit well above the profile minimum (ladder scales always do).  The
    iteration runs to rounding, 1e-15 relative to each target: positions
    mapped through deep levels feed factors whose local scale can be
    thousands of times their mean, so a merely-close inversion would show
    up as integrand noise.
    """
    tgt = np.asarray(targets, dtype=np.float64)
    slope_c = 1.0 + EULER_C - _LN_TWO_PI
    y = np.maximum(tgt / np.maximum(np.log(np.maximum(tgt, 2.0)), 1.0), 2.0)
    return newton_to_plateau(
        y, lambda y: profile_values(y, cfg), tgt,
        lambda y, f: np.maximum(y - f / (np.log(y) + slope_c), 1.5),
        1e-15 * np.abs(tgt), 80)


def phi1(T: float, cfg: LadderConfig,
         table: SecondMomentTable) -> LadderPoint:
    """Ladder height below T: solve moment_profile(y) = I(T) for y.

    The root must lie on the profile's increasing branch below T, which is
    checked first; invert_profile then solves to rounding and the
    1e-6-relative residual contract is re-checked anyway.  Trustworthy for
    T down to about 1e3 with a calibration anchored on [1e4, 1e5]; below
    that the profile minimum (about c0 - 1.3) is no longer cleared by I(T).
    """
    if T <= 1.0:
        raise DomainError(f"phi1 needs T > 1, got {T}")
    target = cumulative_I(T, table)
    # the increasing branch of the profile starts at its stationary point
    lo = TWO_PI / math.exp(1.0 + EULER_C)
    if T <= lo or moment_profile(lo, cfg) >= target \
            or moment_profile(T, cfg) <= target:
        raise CalibrationError(
            f"no ladder height in ({lo:.3f}, {T:g}) for I(T) = {target:.6g}; "
            "c0 miscalibrated or T too small")
    y = float(invert_profile(np.array([target]), cfg)[0])
    residual = moment_profile(y, cfg) - target
    if abs(residual) > 1e-6 * abs(target):
        raise PrecisionError(
            f"ladder inversion stalled at T = {T:g}", estimate=y,
            bound=abs(residual))
    return LadderPoint(T=float(T), phi1=y, residual=float(residual))


class InverseLevel:
    """phi1^{-1} on one ladder level: the heights y with I(y) equal to
    moment_profile(x), for all the heights xs of the level below at once.

    Anchor rule: I on the level is the table checkpoint (t_c, I_c) at or
    below the smoothed-law bracket of the lowest x plus one Z^2 chain from
    t_c to past the bracket of the highest x; a root beyond the chain
    widens it toward that side by doubling steps.  `heights`, `solve` and
    `cumulative` all read that one chain, and `solve` is point by point,
    so solve(xs) is `heights` bit for bit.  Needs x > 1e3.
    """

    def __init__(self, xs, cfg: LadderConfig, table: SecondMomentTable):
        xs = np.asarray(xs, dtype=np.float64)
        if not (np.isfinite(xs).all() and xs.min() > _ITERATE_FLOOR):
            raise DomainError(f"phi1_inverse needs finite x > "
                              f"{_ITERATE_FLOOR:g}, got {xs.min()}")
        self.cfg = cfg
        targets = profile_values(xs, cfg)
        # invert the smoothed law I(y) ~ y (ln y + 2c - 1 - ln 2pi)
        two_c, y0 = 2.0 * EULER_C, xs
        for _ in range(4):
            smooth = y0 * (np.log(y0) + two_c - 1.0 - _LN_TWO_PI)
            y0 = y0 - (smooth - targets) / (np.log(y0) + two_c - _LN_TWO_PI)
        lo = float(np.maximum(xs, y0 - 25.0).min())
        hi = float(np.maximum(xs, y0).max()) + 25.0
        for step in (100.0 * 2 ** j for j in range(_WIDENINGS)):
            table.ensure(lo)
            t_c, self.i_c = table.value_at(lo)
            self.chain = z2_chain(t_c, hi)
            seen = xs >= t_c                # heights the chain covers
            bad = xs[seen][self.cumulative(xs[seen]) > targets[seen]]
            if bad.size:
                raise RangeError(
                    f"phi1_inverse: no preimage above x = {bad[0]:g} "
                    "(I(x) already exceeds the profile there)")
            below = targets.min() < self.i_c
            beyond = targets.max() > self.i_c + self.chain.total
            if not (below or beyond):
                break
            if below:      # roots under the chain still lie above the xs
                lo = max(t_c - step, float(xs.min()))
            if beyond:
                hi += step
        else:
            raise RangeError(f"phi1_inverse: could not bracket the preimage "
                             f"of x in [{xs.min():g}, {xs.max():g}]")
        self.heights = self.solve(xs)

    def cumulative(self, ys) -> np.ndarray:
        """I(y) on the level."""
        return self.i_c + self.chain.prefix(ys)

    def solve(self, xs) -> np.ndarray:
        """Heights on the level above xs, to 1e-12 of I, point by point.

        The chain prefix is weakly increasing, so its panel-edge values
        put each root in one panel.  Bisection narrows that bracket
        65536-fold before Newton with the chain slope finishes: from a
        whole panel, Newton can overshoot a flat stretch (Z near a zero)
        and stop on the plateau rule far from the root.
        """
        chain = self.chain
        tgt = profile_values(xs, self.cfg) - self.i_c
        cumf = np.maximum.accumulate(chain.cum)
        j = np.clip(np.searchsorted(cumf, tgt) - 1, 0, chain.mids.size - 1)
        lo, hi = chain.edges[j], chain.edges[j + 1]
        # bisection stays inside panel j, so it reads the prefix there
        # without the panel lookup, bit for bit what prefix() returns
        e0, hw = lo, chain.hws[j]
        for _ in range(16):
            mid = 0.5 * (lo + hi)
            left = chain._prefix_at(j, (mid - e0) / hw - 1.0) >= tgt
            lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        return newton_to_plateau(
            0.5 * (lo + hi), chain.prefix, tgt,
            lambda v, f: np.clip(v - f / np.maximum(chain.slope(v), 1e-3),
                                 chain.a, chain.b),
            1e-12 * (np.abs(tgt) + abs(self.i_c)), 40)


def phi1_inverse(x: float, cfg: LadderConfig,
                 table: SecondMomentTable) -> float:
    """Height y above x with phi1(y) = x: `InverseLevel` at one point.

    Solves I(y) = moment_profile(x) on the increasing I instead of nesting
    phi1 solves.  Meaningful for x in the calibrated range (> 1e3).
    """
    return float(InverseLevel([x], cfg, table).heights[0])


def inverse_levels(xs, k: int, cfg: LadderConfig,
                   table: SecondMomentTable) -> List[InverseLevel]:
    """The k levels above heights xs; level i holds phi1^{-i}(xs)."""
    levels: List[InverseLevel] = []
    for i in range(1, k + 1):
        with _iterate(i, k):
            levels.append(InverseLevel(levels[-1].heights if levels else xs,
                                       cfg, table))
    return levels


@contextmanager
def _iterate(i: int, k: int):
    """Report a failure of iterate i of k as leaving the supported range."""
    try:
        yield
    except (CalibrationError, DomainError) as exc:
        raise RangeError(f"iterate {i} of {k} left the supported "
                         f"range: {exc}") from exc


def phi1_iterates(t: float, k: int, direction: IterateDirection,
                  cfg: LadderConfig,
                  table: SecondMomentTable) -> List[float]:
    """Chain [t, phi1(t), ..., phi1^k(t)], or the inverse chain upward.

    Always returns k+1 values.  A forward iterate dropping below the
    calibrated range aborts with the failing index; inverse iterates can
    only fail through bracketing, reported the same way.
    """
    if k < 0:
        raise DomainError(f"iterate count must be >= 0, got {k}")
    if not isinstance(direction, IterateDirection):
        raise DomainError("direction must be an IterateDirection")
    chain = [float(t)]
    if direction is IterateDirection.INVERSE:
        return chain + [float(lv.heights[0])
                        for lv in inverse_levels([t], k, cfg, table)]
    for i in range(1, k + 1):
        with _iterate(i, k):
            nxt = phi1(chain[-1], cfg, table).phi1
        if nxt < _ITERATE_FLOOR:
            raise RangeError(
                f"iterate {i} of {k} fell below the calibrated range "
                f"({nxt:.6g} < {_ITERATE_FLOOR:g})")
        chain.append(nxt)
    return chain


@dataclass(frozen=True)
class PrimePiTable:
    """Exact prime counts: counts[x] = pi(x) for 0 <= x <= limit."""

    limit: int
    counts: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimePiTable":
        if limit < 2:
            raise DomainError(f"sieve limit must be >= 2, got {limit}")
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p::p] = False
        return cls(limit=int(limit), counts=np.cumsum(mask, dtype=np.int64))


def pi_count(x: float, table: PrimePiTable) -> int:
    """pi(x) from the sieve table (floor semantics for real x)."""
    xi = int(math.floor(x))
    if xi < 2:
        raise DomainError(f"pi_count needs x >= 2, got {x}")
    if xi > table.limit:
        raise RangeError(f"x = {x:g} beyond the sieve limit {table.limit}")
    return int(table.counts[xi])


def complement_height(T: float, pi_table: PrimePiTable) -> float:
    """The complement-relation height T - (1 - c) pi(T)."""
    return T - (1.0 - EULER_C) * pi_count(T, pi_table)


def calibration_offsets(anchors: Sequence[float], cfg: LadderConfig,
                        table: SecondMomentTable,
                        pi_table: PrimePiTable) -> List[float]:
    """Per-anchor I(T) minus the c0-free profile at the complement height.

    These are the values whose constant best fit is c0; their spread is
    the complement relation's systematic drift.
    """
    out = []
    for T in anchors:
        y = complement_height(float(T), pi_table)
        base = moment_profile(y, cfg) - cfg.c0
        out.append(cumulative_I(float(T), table) - base)
    return out


# anchors of a calibration that names none: ten log-spaced heights across
# [1e4, 1e5], the span calibrate_c0 requires
CALIBRATION_ANCHORS = tuple(float(a) for a in np.geomspace(1e4, 1e5, 10))


def calibrate_c0(anchors: Sequence[float], cfg: LadderConfig,
                 table: SecondMomentTable) -> float:
    """Least-squares c0 over the anchors; writes it into cfg.

    Must run before any phi1-dependent call on the same config (single
    exclusive mutation, per the module contract).  The table is extended
    to the top anchor before the sieve is sized by it, so an anchor out of
    reach costs table time, never a sieve of that size.
    """
    ts = sorted(float(a) for a in anchors)
    if len(ts) < 3:
        raise CalibrationError(f"need >= 3 anchors, got {len(ts)}")
    if ts[0] > 2.0e4 or ts[-1] < 7.0e4:
        raise CalibrationError(
            f"anchors must spread across [1e4, 1e5]; got span "
            f"[{ts[0]:g}, {ts[-1]:g}]")
    table.ensure(ts[-1])
    offsets = calibration_offsets(ts, cfg, table,
                                  PrimePiTable.build(math.floor(ts[-1])))
    c0 = fsum(offsets) / len(offsets)
    if not math.isfinite(c0):
        raise CalibrationError("calibration did not converge to a finite c0")
    resid = [c0 - v for v in offsets]
    rms = math.sqrt(fsum(r * r for r in resid) / len(resid))
    for T, r in zip(ts, resid):
        _log.debug("calibration anchor T = %g: residual %.6g", T, r)
    _log.info("calibrated c0 = %.6f over %d anchors (residual rms %.4g)",
              c0, len(ts), rms)
    cfg.c0 = c0
    return c0


def save_calibration(path, cfg: LadderConfig, table: SecondMomentTable,
                     anchors: Sequence[float]) -> None:
    """Write the calibration artifact: `EULER_C`, which the fit used, c0
    and the anchors as key=value lines, under a header naming the key of
    the table the fit read."""
    write_artifact(path, f"calibration-v2,smtable={table.fingerprint}",
                   f"euler_c={EULER_C!r}\nc0={cfg.c0!r}\n"
                   "calibrated_at_anchors="
                   + ",".join(repr(float(a)) for a in anchors) + "\n")


def load_calibration(path) -> Tuple[LadderConfig, List[float]]:
    """Read a calibration artifact; returns (config, anchors).

    TableIntegrityError unless `read_artifact` accepts the file for a table
    under `KEY` and the fit used `EULER_C`.
    """
    fields = dict(line.partition("=")[::2] for line in read_artifact(
        path, f"calibration-v2,smtable={KEY}").splitlines())
    if fields.get("euler_c") != repr(EULER_C):
        raise TableIntegrityError(f"calibration file {path}: euler_c="
                                  f"{fields.get('euler_c')} is not "
                                  f"{EULER_C!r}")
    return LadderConfig(c0=float(fields["c0"])), [
        float(a) for a in fields["calibrated_at_anchors"].split(",") if a]
