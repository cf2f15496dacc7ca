"""Alpha-sequence construction and the factorization identity it feeds.

The construction walks a window up and back down the ladder.  A mean-value
point eta near T is chosen so the windowed integral of Z over [eta, eta+H]
has its quadratic-mean size sqrt(2 pi H).  The window's k-fold inverse
image [A, B] under phi1 is then taken one level at a time, and the
mean-value theorem is applied to the iterated integrand

    Z(phi1^k(t)) * prod_{r=0}^{k-1} Z^2(phi1^r(t)) / ln phi1^r(t),
                                                              t in [A, B],

whose mean-value point beta generates the alpha sequence: alpha_r is the
(k-r)-fold forward image of beta, so alpha_k = beta sits in [A, B] and
alpha_0 lands back inside (eta, eta+H).  The factorization statement under
test compares sqrt(Lambda / |zeta| at alpha_0) against the product of
|zeta| at the remaining alphas, with Lambda = sqrt(2 pi) sqrt(H) ln^k T / H_k.

Level maps inside one job run through the ladder's inverse solver: each
level is an `InverseLevel`, a table checkpoint plus one Z^2 chain across
the level, and that one chain gives the level's bounds, moves heights one
level up by inverting the chain prefix and one level down by reading I off
it and inverting the profile, without re-entering the checkpoint table.
The iterated integral itself is never computed over [A, B]: each inverse
level contracts wherever Z^2 runs large (the local slope of the inverse
map is profile slope over Z^2), and on a contracted top level the
integrand is huge exactly where the interval is thin.  Substituting
u = phi1^k(t) cancels every Z^2 factor against the Jacobian and leaves

    F = int over (eta, eta+H) of Z(u) * prod_j F'(v_{j-1}(u)) / ln v_j(u),

an order-one integrand over the base window, with v_j(u) the ascending
chain of preimages.  The mean value F / H_k and the root search for beta
still live on [A, B], where pointwise evaluation is well conditioned.
Primary |zeta| values come from the Euler-Maclaurin oracle; the
metamorphosis residual recomputes both sides through the Riemann-Siegel
sums, so the residual isolates exactly the truncated-remainder effect.

Determinism: eta is the first sign change from the left of the scan, beta
the admissible root nearest the interval midpoint, and retries walk the
candidate list in that fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (DegenerateConfigurationError, DomainError,
                     PrecisionError, TableIntegrityError)
from .ladder import LadderConfig, brentq, inverse_levels, invert_profile
from .quadrature import (QuadConfig, SecondMomentTable, adaptive_integrate,
                         admissible_h_range, table_key, z2_values, z_chain,
                         z_values)
# no longer called here; kept because the benchmark's layer tracer wraps them
from .ladder import phi1, phi1_iterates  # noqa: F401
from .quadrature import cumulative_I, z2_chain  # noqa: F401
from .special import (RS_MIN, RSConfig, TWO_PI, em_zeta_half,
                      riemann_siegel_z, tau)

_SQRT_TWO_PI = math.sqrt(TWO_PI)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for the alpha-sequence construction.

    ladder carries the calibrated constants; quad and rs must match the
    table_key of the checkpoint table in use.  zero_threshold is the
    exclusion radius around zeta zeros (the identity needs every factor
    nonzero), and max_retries bounds how many mean-value roots are tried
    before the configuration is declared degenerate.
    """

    ladder: LadderConfig
    quad: QuadConfig = QuadConfig()
    rs: RSConfig = RSConfig()
    u0_exponent: float = 0.5001
    zero_threshold: float = 1e-6
    max_retries: int = 8
    scan_step: float = 0.1

    def __post_init__(self):
        if not isinstance(self.ladder, LadderConfig):
            raise DomainError("ladder must be a LadderConfig")
        if not 0.5 <= self.u0_exponent <= 0.75:
            raise DomainError(
                f"u0_exponent outside [0.5, 0.75]: {self.u0_exponent}")
        if not 0.0 < self.zero_threshold <= 1e-2:
            raise DomainError(
                f"zero_threshold outside (0, 1e-2]: {self.zero_threshold}")
        if self.max_retries < 1:
            raise DomainError(f"max_retries must be >= 1, got "
                              f"{self.max_retries}")
        if not 0.0 < self.scan_step <= 1.0:
            raise DomainError(f"scan_step outside (0, 1]: {self.scan_step}")


@dataclass(frozen=True)
class AlphaSequence:
    """The control points alpha_0 < ... < alpha_k linking the factors."""

    T: float
    H: float
    k: int
    eta: float
    beta: float
    alphas: Tuple[float, ...]
    Hk: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if len(self.alphas) != self.k + 1:
            raise DomainError(f"expected {self.k + 1} alphas, got "
                              f"{len(self.alphas)}")
        if self.Hk <= 0.0:
            raise DomainError(f"Hk must be positive, got {self.Hk}")
        if not self.T < self.eta:
            raise DomainError("eta must lie above T")
        pts = (self.T,) + tuple(self.alphas)
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise DomainError(f"alphas not strictly increasing above T: "
                              f"{pts}")
        if not self.eta < self.alphas[0] < self.eta + self.H:
            raise DomainError(
                f"alpha_0 = {self.alphas[0]:.6f} outside the window "
                f"({self.eta:.6f}, {self.eta + self.H:.6f})")
        if abs(self.alphas[-1] - self.beta) > 1e-9 * abs(self.beta):
            raise DomainError("last alpha must equal beta")


@dataclass(frozen=True)
class FactorizationReport:
    """Both sides of the factorization identity for one (T, H, k)."""

    seq: AlphaSequence
    lam: float
    lhs: float
    rhs: float
    ratio: float
    metamorphosis_residual: float

    def as_dict(self) -> dict:
        s = self.seq
        return {
            "schema": "facrep-v1",
            "T": s.T, "H": s.H, "k": s.k,
            "eta": s.eta, "beta": s.beta, "Hk": s.Hk,
            "alphas": list(s.alphas),
            "lambda": self.lam,
            "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
            "meta_residual": self.metamorphosis_residual,
        }

    @staticmethod
    def csv_header(k: int) -> str:
        alpha_cols = ",".join(f"alpha_{r}" for r in range(k + 1))
        return (f"T,H,k,eta,beta,Hk,{alpha_cols},"
                "lambda,lhs,rhs,ratio,meta_residual")

    def csv_row(self) -> str:
        s = self.seq
        cells = [repr(s.T), repr(s.H), str(s.k), repr(s.eta), repr(s.beta),
                 repr(s.Hk)]
        cells += [repr(a) for a in s.alphas]
        cells += [repr(self.lam), repr(self.lhs), repr(self.rhs),
                  repr(self.ratio), repr(self.metamorphosis_residual)]
        return ",".join(cells)


@dataclass(frozen=True)
class SpectrumEntry:
    """One cyclic frequency ln(tau(x)/n) of the main sum at height x."""

    n: int
    omega: float


def find_eta(T: float, H: float, cfg: FactorConfig) -> float:
    """Mean-value point of the Z window integral above T."""
    if T < RS_MIN:
        raise DomainError(f"find_eta needs T >= 8pi, got {T}")
    h_lo, h_hi = admissible_h_range(T)
    if not h_lo < H < h_hi:
        raise DomainError(
            f"H = {H:g} outside the admissible range ({h_lo:.4g}, "
            f"{h_hi:.4g}) at T = {T:g}")
    u0 = T ** cfg.u0_exponent
    chain = z_chain(T, T + u0 + H, cfg.quad, cfg.rs)
    target = TWO_PI * H

    etas = T + cfg.scan_step * np.arange(1, int(u0 / cfg.scan_step))
    wins = chain.integral(etas, etas + H)
    g = wins * wins - target
    flips = np.nonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))[0]
    if flips.size == 0:
        raise DegenerateConfigurationError(
            f"no mean-value point in (T, T+U0) at T = {T:g}, H = {H:g}: "
            f"scan of (window integral)^2 - 2 pi H stayed one-signed, "
            f"range [{g.min():.4g}, {g.max():.4g}]")

    def g_at(eta: float) -> float:
        w = float(chain.integral(eta, eta + H))
        return w * w - target

    i = int(flips[0])  # first crossing from the left, for reproducibility
    eta = brentq(g_at, float(etas[i]), float(etas[i + 1]), xtol=1e-8)
    ratio = abs(float(chain.integral(eta, eta + H))) / math.sqrt(target)
    if not 0.9999 <= ratio <= 1.0001:
        raise PrecisionError(
            f"eta refinement missed the mean value at T = {T:g}",
            estimate=eta, bound=abs(ratio - 1.0))
    return float(eta)


class _LevelMaps:
    """Per-level maps for one (T, H, k) job.

    bounds[r] is the r-fold inverse image of (eta, eta+H) and levels[r]
    (r >= 1) the `InverseLevel` that solved it from bounds[r-1]: a table
    checkpoint plus one Z^2 chain across the level, which every map on the
    level reads.  map_up climbs from level r-1 to r on that chain, so
    bounds[r] is map_up(r, bounds[r-1]) bit for bit; map_down reads I off
    the same chain and inverts the profile to step back down.
    """

    def __init__(self, H: float, k: int, eta: float, cfg: FactorConfig,
                 table: SecondMomentTable):
        self.k = k
        self.cfg = cfg
        self._slope_c = 1.0 + cfg.ladder.euler_c - math.log(TWO_PI)
        # level 0 never maps down
        self.levels = [None] + inverse_levels([eta, eta + H], k, cfg.ladder,
                                              table)
        self.bounds = [(eta, eta + H)] + [tuple(lv.heights.tolist())
                                          for lv in self.levels[1:]]
        for r, (lo, hi) in enumerate(self.bounds[1:], start=1):
            if not hi > lo:
                raise DegenerateConfigurationError(
                    f"level {r} inverse interval contracted to zero width "
                    f"at [{lo!r}, {hi!r}]; a large Z^2 excursion swallowed "
                    "the window")

    def map_down(self, level: int, xs: np.ndarray) -> np.ndarray:
        return invert_profile(self.levels[level].cumulative(xs),
                              self.cfg.ladder)

    def map_up(self, level: int, prev: np.ndarray) -> np.ndarray:
        """Preimages on `level` of heights `prev` one level below."""
        return self.levels[level].solve(prev)

    def descend(self, beta: float) -> List[float]:
        """Forward images [beta, phi1(beta), ..., phi1^k(beta)]."""
        out = [float(beta)]
        cur = np.array([beta])
        for level in range(self.k, 0, -1):
            cur = self.map_down(level, cur)
            out.append(float(cur[0]))
        return out

    def integrand(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized iterated integrand on the top level [A, B]."""
        cur = np.asarray(xs, dtype=np.float64)
        val = np.ones_like(cur)
        for level in range(self.k, 0, -1):
            val = val * z2_values(cur, self.cfg.rs) / np.log(cur)
            cur = self.map_down(level, cur)
        return val * z_values(cur, self.cfg.rs)

    def base_integrand(self, us: np.ndarray, dus: np.ndarray) -> np.ndarray:
        """The iterated integrand pulled back to the base window, at the
        quadrature nodes us + dus (exact remainders dus).

        Z(u) times the telescoped Jacobian prod_j F'(v_{j-1}) / ln v_j
        along the ascending chain; integrating this over (eta, eta+H)
        equals integrating `integrand` over [A, B] exactly, with every
        factor order one.  Only Z reads the remainders: the Jacobian varies
        on the scale of the chain, not of Z's phase.
        """
        u = np.asarray(us, dtype=np.float64)
        w = np.ones_like(u)
        prev = u
        for level in range(1, self.k + 1):
            cur = self.map_up(level, prev)
            w = w * (np.log(prev) + self._slope_c) / np.log(cur)
            prev = cur
        return z_values(u, self.cfg.rs, dts=dus) * w


def _mean_value_roots(maps: _LevelMaps, mean: float,
                      a: float, b: float) -> List[Tuple[float, float]]:
    """Sign-change brackets of integrand - mean, nearest-midpoint first."""
    grid = np.linspace(a, b, 4097)
    h = maps.integrand(grid) - mean
    flips = np.nonzero(np.signbit(h[:-1]) != np.signbit(h[1:]))[0]
    mid = 0.5 * (a + b)
    order = np.argsort(np.abs(0.5 * (grid[flips] + grid[flips + 1]) - mid),
                       kind="stable")
    return [(float(grid[i]), float(grid[i + 1])) for i in flips[order]]


def _build_job(T: float, H: float, k: int, cfg: FactorConfig,
               table: SecondMomentTable):
    """Everything shared by find_beta and the sequence builder."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if table_key(cfg.quad, cfg.rs) != table.fingerprint:
        raise TableIntegrityError(
            "FactorConfig quad/rs settings do not match the table "
            "fingerprint")
    eta = find_eta(T, H, cfg)
    maps = _LevelMaps(H, k, eta, cfg, table)
    a, b = maps.bounds[k]
    hk = b - a
    # integrate in the base window, where the pulled-back integrand stays
    # order one; over [A, B] the same integral is 1/hk-scaled and the
    # inversion jitter would swamp any panel budget on contracted levels
    F = adaptive_integrate(maps.base_integrand, eta, eta + H,
                           cfg.quad).value
    size = abs(F) / math.sqrt(TWO_PI * H)
    if not 0.5 <= size <= 1.5:
        # the lemma behind the construction promises ~ sqrt(2 pi H); a miss
        # is reportable degradation, not an error
        _log.warning("iterated integral off its nominal size at T=%g H=%g "
                     "k=%d: |F|/sqrt(2 pi H) = %.3f", T, H, k, size)
    mean = F / hk
    roots = _mean_value_roots(maps, mean, a, b)
    if not roots:
        raise PrecisionError(
            f"no mean-value root for the iterated integrand at T = {T:g}, "
            f"H = {H:g}, k = {k}: quadrature noise exceeds the integrand "
            "variation", estimate=mean)
    return eta, maps, a, b, hk, F, mean, roots


def _refine_beta(maps: _LevelMaps, mean: float, lo: float,
                 hi: float) -> float:
    def h_at(x: float) -> float:
        return float(maps.integrand(np.array([x]))[0]) - mean

    # drive to rounding: the integrand can be steep at the crossing, and
    # the postcondition is on the residual, not the abscissa
    return float(brentq(h_at, lo, hi, xtol=1e-14, rtol=8.9e-16))


def find_beta(T: float, H: float, k: int, cfg: FactorConfig,
              table: SecondMomentTable) -> Tuple[float, float]:
    """Mean-value point of the iterated integrand over [A, B], plus Hk."""
    eta, maps, a, b, hk, F, mean, roots = _build_job(T, H, k, cfg, table)
    beta = _refine_beta(maps, mean, *roots[0])
    _check_beta(maps, beta, mean)
    return beta, hk


def _check_beta(maps: _LevelMaps, beta: float, mean: float) -> None:
    got = float(maps.integrand(np.array([beta]))[0])
    if abs(got - mean) > 1e-6 * abs(mean) + 1e-10:
        raise PrecisionError(
            f"mean-value refinement stalled at beta = {beta:.6f}",
            estimate=beta, bound=abs(got - mean))


def build_alpha_sequence(T: float, H: float, k: int, cfg: FactorConfig,
                         table: SecondMomentTable) -> AlphaSequence:
    """Alpha chain for (T, H, k), retrying past zeta-zero neighborhoods.

    Candidate betas are tried nearest-midpoint first; one is accepted when
    every |zeta| along its forward chain clears zero_threshold (the
    factors must stay away from zeros for both sides to be finite).
    """
    eta, maps, a, b, hk, F, mean, roots = _build_job(T, H, k, cfg, table)
    tried = 0
    for lo, hi in roots[:cfg.max_retries]:
        tried += 1
        beta = _refine_beta(maps, mean, lo, hi)
        _check_beta(maps, beta, mean)
        descend = maps.descend(beta)          # beta = alpha_k ... alpha_0
        alphas = tuple(reversed(descend))
        smallest = min(abs(em_zeta_half(x)) for x in alphas)
        if smallest > cfg.zero_threshold:
            return AlphaSequence(T=float(T), H=float(H), k=k, eta=eta,
                                 beta=beta, alphas=alphas, Hk=hk)
        _log.debug("beta candidate %d rejected: |zeta| = %.3g within the "
                   "zero threshold", tried, smallest)
    raise DegenerateConfigurationError(
        f"all {tried} mean-value candidates at T = {T:g}, H = {H:g}, "
        f"k = {k} sit too close to a zeta zero", retries=tried)


def lambda_factor(H: float, Hk: float, k: int, T: float) -> float:
    """Normalization sqrt(2 pi) sqrt(H) ln^k T / Hk."""
    if H <= 0.0 or Hk <= 0.0 or T <= 1.0:
        raise DomainError(
            f"lambda_factor needs H, Hk > 0 and T > 1; got H={H}, "
            f"Hk={Hk}, T={T}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return _SQRT_TWO_PI * math.sqrt(H) * math.log(T) ** k / Hk


def factorize(T: float, H: float, k: int, cfg: FactorConfig,
              table: SecondMomentTable) -> FactorizationReport:
    """Evaluate both sides of the factorization identity at (T, H, k).

    lhs = sqrt(Lambda / |zeta| at alpha_0), rhs = product of |zeta| at
    alpha_1..alpha_k, both from the Euler-Maclaurin oracle; the
    metamorphosis residual redoes both with |Z| from the Riemann-Siegel
    sums and reports the relative shift of the ratio.
    """
    seq = build_alpha_sequence(T, H, k, cfg, table)
    lam = lambda_factor(H, seq.Hk, k, T)
    zeta_abs = [abs(em_zeta_half(x)) for x in seq.alphas]
    lhs = math.sqrt(lam / zeta_abs[0])
    rhs = math.prod(zeta_abs[1:])
    ratio = lhs / rhs
    z_abs = [abs(riemann_siegel_z(x, cfg.rs).z) for x in seq.alphas]
    ratio_rs = math.sqrt(lam / z_abs[0]) / math.prod(z_abs[1:])
    residual = abs(ratio - ratio_rs) / ratio
    return FactorizationReport(seq=seq, lam=lam, lhs=lhs, rhs=rhs,
                               ratio=ratio, metamorphosis_residual=residual)


def multiform_G(xs: Sequence[float], cfg: FactorConfig) -> float:
    """Product of |Z| over the given heights (at least two)."""
    if len(xs) < 2:
        raise DomainError(f"multiform needs >= 2 heights, got {len(xs)}")
    if min(xs) < RS_MIN:
        raise DomainError("all heights must be >= 8pi")
    return math.prod(abs(riemann_siegel_z(float(x), cfg.rs).z) for x in xs)


def local_spectrum(x: float) -> List[SpectrumEntry]:
    """Cyclic frequencies ln(tau(x)/n), n = 1..floor(tau(x)).

    Below x = 2 pi the main sum is empty and the spectrum is empty too.
    """
    if x < TWO_PI:
        return []
    tv = tau(x)
    ln_tau = math.log(tv)
    return [SpectrumEntry(n=n, omega=ln_tau - math.log(n))
            for n in range(1, int(math.floor(tv)) + 1)]
