"""Euler-Maruyama simulation of the controlled (wealth, factor) system under
arbitrary (policy, adversary) pairs, plus the saddle-point verification report.

Wealth is simulated in log space (positivity is exact): with fraction f and
adversary moments (mu_m, sig_m, sig2_m) at the current (t, Y),

    d ln X = [ r(Y) + f (b(Y) + mu_m) - 1/2 f^2 sig2_m ] dt + f sqrt(sig2_m) dw
    dY     = beta(Y) dt + rho sig_m / sqrt(sig2_m) dw
             + sqrt(1 - rho^2 sig_m^2 / sig2_m) dw_perp.

The adversary takes one of three forms: a fixed point (mu, sigma) of K; the
worst-case measure field nu*(t, y) applied through its moments (a relaxed
control); or the same field realized by chattering, where each path draws one
atom of nu*(t, Y) per step.

The fraction f never enters dY, and an adversary enters it only through the
loadings rho sig_m / sqrt(sig2_m) and sqrt(1 - that^2).  So every policy
scaling under one adversary shares the factor paths, and so do fixed points
whose two loadings are equal floats (rho sigma / sigma rounds to rho for
every sigma of [0.2, 0.4] at rho = 0.5, for about 78% of them at 0.9): their
Y, b(Y), r(Y) and f(t, Y) are bit-identical, and only mu and sigma^2 enter
their ln X rows.  The path engine advances one ln X row per (adversary,
scale) pair over one set of normals, factor paths and coefficients, forming
each adversary's moments once per step.  verify_saddle runs one path set per
factor path: nu* with the base and its scalings, each group of fixed points
with equal loadings, and chattering (3 path sets for its 14 pairs when all 7
points load alike).  Each row keeps the arithmetic of a run of its pair
alone, so every estimate equals that run's bit for bit.

Reproducibility: paths are processed in fixed batches of 65536.  Batch b draws
its two normal increments per step from
np.random.default_rng(SeedSequence(seed, spawn_key=(b,))), and chattering
draws its uniforms from a stream of its own, SeedSequence(seed,
spawn_key=(b, 1)).  The Brownian increments are therefore common to every
(policy, adversary) pair at a seed (common random numbers for the saddle
comparisons), and estimates are independent of how batches would be
distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle
from .pde import ValueSurface
from .strategy import PolicyField, value_function

__all__ = [
    "BATCH_SIZE",
    "SimConfig",
    "AdversaryPolicy",
    "UtilityEstimate",
    "simulate_eu",
    "simulate_scales",
    "terminal_wealths",
    "utility_estimate",
    "SaddleFinding",
    "SaddleReport",
    "verify_saddle",
]

BATCH_SIZE = 65536
# verify_saddle: constant points drawn from K besides its corners, and the
# allowance of the PDE value match on top of 3 standard errors
N_RANDOM_ADVERSARIES = 3
PDE_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    seed: int
    x0: float
    y0: float
    horizon: float

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need n_paths >= 1 and n_steps >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not all(map(math.isfinite, (self.x0, self.y0, self.horizon))):
            raise ValueError("x0, y0 and horizon must be finite")
        if not self.x0 > 0:
            raise ValueError("x0 must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class AdversaryPolicy:
    """Nature's play: a fixed point (mu, sigma) of K, or the worst-case measure
    field of a PolicyField, applied through its moments or, with chatter, by
    drawing one atom per path and step."""

    label: str
    point: tuple[float, float] | None = None
    pf: PolicyField | None = None
    chatter: bool = False

    @classmethod
    def field(cls, pf: PolicyField, label: str = "field") -> "AdversaryPolicy":
        return cls(label, pf=pf)

    @classmethod
    def chattering(cls, pf: PolicyField, label: str = "chattering") -> "AdversaryPolicy":
        return cls(label, pf=pf, chatter=True)

    @classmethod
    def constant_point(cls, mu: float, sigma: float,
                       rect: UncertaintyRectangle | None = None,
                       label: str = "") -> "AdversaryPolicy":
        if rect is not None and not rect.contains(mu, sigma):
            raise ValueError(f"point ({mu:g}, {sigma:g}) lies outside the rectangle")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls(label or f"point({mu:g},{sigma:g})", point=(float(mu), float(sigma)))

    def moments(self, t: float, y: np.ndarray, uniforms: np.random.Generator):
        """(mu, sigma, sigma^2) seen by the paths at (t, y); scalars for a
        fixed point.  Only chattering draws from `uniforms`."""
        if self.pf is None:
            mu, sig = self.point
            return mu, sig, sig * sig
        if not self.chatter:
            return self.pf.moments_at(t, y)
        mu, sig_a, sig_b, w_a = self.pf.atoms_at(t, y)
        sig = np.where(uniforms.random(len(y)) < w_a, sig_a, sig_b)
        return mu, sig, sig * sig


@dataclass(frozen=True)
class UtilityEstimate:
    mean: float
    std_error: float
    n_paths: int
    min_terminal_wealth: float
    max_terminal_wealth: float


def _loadings(rho: float, sig_m, vol):
    """The factor's loadings (load_w, load_perp) on (dw, dw_perp) under
    adversary moments sig_m and vol = sqrt(sig2_m)."""
    load_w = rho * sig_m / vol
    return load_w, np.sqrt(np.maximum(1.0 - load_w * load_w, 0.0))


def _path_sets(adversaries, rho: float) -> list[list[int]]:
    """Partition the indices of `adversaries` into path sets, in order of
    first appearance: one per adversary object, except that fixed points
    whose factor loadings are equal floats share one (their Y paths are then
    bit-identical).  Grouped by identity and loadings: a field adversary's
    arrays cannot be hashed."""
    def loadings(adv):
        if adv.pf is not None:
            return None
        sig = adv.point[1]
        return _loadings(rho, sig, np.sqrt(sig * sig))

    sets: list[list[int]] = []
    keys: list = []
    for i, adv in enumerate(adversaries):
        key = loadings(adv)
        for members, k in zip(sets, keys):
            if adversaries[members[0]] is adv or (key is not None and k == key):
                members.append(i)
                break
        else:
            sets.append([i])
            keys.append(key)
    return sets


def _log_wealth(policy, rows, m: MarketModel, cfg: SimConfig, bi: int) -> np.ndarray:
    """ln X_T on the paths of batch bi, one row per (adversary, scale) in
    rows (the path engine).  Y is driven by the first row's adversary; only
    ln X is advanced per row, each with the arithmetic of a run of its row
    alone.  Each adversary's moments and b(Y) + mu_m are formed once per
    step, the rest of the step once.  The per-step arrays die on return,
    before the caller turns ln X into wealth."""
    dt = cfg.horizon / cfg.n_steps
    sq_dt = math.sqrt(dt)
    rho = m.rho
    nb = min(BATCH_SIZE, cfg.n_paths - bi * BATCH_SIZE)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi,)))
    uniforms = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi, 1)))
    ln_x = np.zeros((len(rows), nb))
    # the ln X rows of each adversary object, in order of first appearance
    by_adv: list[tuple[AdversaryPolicy, list]] = []
    for lx, (adv, scale) in zip(ln_x, rows):
        mine = next((r for a, r in by_adv if a is adv), None)
        if mine is None:
            mine = []
            by_adv.append((adv, mine))
        mine.append((lx, scale))
    yv = np.full(nb, cfg.y0)
    for step in range(cfg.n_steps):
        t = step * dt
        z = rng.standard_normal((2, nb))
        z *= sq_dt
        dw, dwp = z

        frac = (policy.fraction_at(t, yv) if isinstance(policy, PolicyField)
                else float(policy))
        b_y = np.asarray(m.b(yv))
        r_y = np.asarray(m.r(yv))
        for n, (adv, mine) in enumerate(by_adv, 1):
            mu_m, sig_m, sig2_m = adv.moments(t, yv, uniforms)
            if not np.all(sig_m * sig_m <= sig2_m):
                raise AssertionError(
                    "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)")
            vol = np.sqrt(sig2_m)
            if n == 1:
                drive = sig_m, vol
            excess = b_y + mu_m
            if n == len(by_adv):
                del b_y  # no later adversary needs it: lower the step's peak
            for lx, scale in mine:
                f = scale * frac
                lx += (r_y + f * excess - 0.5 * f * f * sig2_m) * dt + f * vol * dw
            del excess
        load_w, load_perp = _loadings(rho, *drive)
        yv = yv + np.asarray(m.beta(yv)) * dt + load_w * dw + load_perp * dwp
    return ln_x


def _terminal_wealth_batches(policy, rows, m: MarketModel, cfg: SimConfig):
    """Yield, batch by batch, the terminal wealths of every (adversary,
    scale) row, one row each, on one set of paths.

    Raises ValueError unless the rows' adversaries move Y alike (one
    _path_sets set): the engine drives Y by the first row's adversary."""
    if len(_path_sets([adv for adv, _ in rows], m.rho)) != 1:
        raise ValueError("the rows' adversaries do not share one factor path")
    n_batches = (cfg.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    for bi in range(n_batches):
        ln_x = _log_wealth(policy, rows, m, cfg, bi)
        finite = np.all(np.isfinite(ln_x), axis=0)
        if not np.all(finite):
            bad = int(np.argmin(finite))
            raise FloatingPointError(
                f"non-finite wealth on path {bi * BATCH_SIZE + bad}")
        np.exp(ln_x, out=ln_x)
        ln_x *= cfg.x0
        yield ln_x


def _resolve_q(policy, q) -> float:
    if q is None:
        if not isinstance(policy, PolicyField):
            raise ValueError("q is required for a constant-fraction policy")
        return policy.q
    if isinstance(q, PowerUtility):
        return q.q
    return float(q)


class _UtilityMoments:
    """E[X_T^q / q] from terminal-wealth batches by a merge-safe (count, mean,
    M2) accumulation: batch order is fixed, so the result is independent of
    how batches would be distributed across workers."""

    def __init__(self, q: float):
        self.q = q
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min_x = math.inf
        self.max_x = -math.inf

    def add(self, x_t: np.ndarray):
        u = x_t**self.q / self.q
        nb = len(u)
        mean_b = float(np.mean(u))
        m2_b = float(np.sum((u - mean_b) ** 2))
        delta = mean_b - self.mean
        total = self.n + nb
        self.mean += delta * nb / total
        self.m2 += m2_b + delta * delta * self.n * nb / total
        self.n = total
        self.min_x = min(self.min_x, float(np.min(x_t)))
        self.max_x = max(self.max_x, float(np.max(x_t)))

    def estimate(self) -> UtilityEstimate:
        n = self.n
        var = self.m2 / (n - 1) if n > 1 else 0.0
        return UtilityEstimate(self.mean, math.sqrt(var / n), n, self.min_x, self.max_x)


def _estimates(policy, rows, m: MarketModel, cfg: SimConfig, q) -> tuple[UtilityEstimate, ...]:
    """E[X_T^q / q] for each (adversary, scale) row, in row order, advancing
    one path set per _path_sets set; each estimate equals a run of its row
    alone bit for bit."""
    q = _resolve_q(policy, q)
    estimates = [None] * len(rows)
    for members in _path_sets([adv for adv, _ in rows], m.rho):
        moments = [_UtilityMoments(q) for _ in members]
        for x_t in _terminal_wealth_batches(policy, [rows[i] for i in members], m, cfg):
            for acc, row in zip(moments, x_t):
                acc.add(row)
        del x_t, row  # the last batch's wealths must not outlive their path set
        for i, acc in zip(members, moments):
            estimates[i] = acc.estimate()
    return tuple(estimates)


def simulate_scales(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                    scales: tuple[float, ...],
                    q: float | PowerUtility | None = None) -> tuple[UtilityEstimate, ...]:
    """E[X_T^q / q] under (scale * policy, adversary) for each scale, all on
    one set of paths; each estimate equals simulate_eu's at that policy_scale
    bit for bit."""
    return _estimates(policy, [(adv, scale) for scale in scales], m, cfg, q)


def simulate_eu(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                q: float | PowerUtility | None = None,
                policy_scale: float = 1.0) -> UtilityEstimate:
    """Expected terminal utility E[X_T^q / q] under (policy, adversary).

    policy is a PolicyField (fraction interpolated at (t, Y)) or a constant
    fraction; policy_scale multiplies the fraction pathwise (used for the
    deviation checks).  q defaults to the policy field's utility exponent.
    """
    return simulate_scales(policy, adv, m, cfg, (policy_scale,), q)[0]


def terminal_wealths(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                     policy_scale: float = 1.0) -> np.ndarray:
    """All terminal wealths (same paths and seed scheme as simulate_eu)."""
    return np.concatenate([x_t[0] for x_t in _terminal_wealth_batches(
        policy, [(adv, policy_scale)], m, cfg)])


def utility_estimate(x_t: np.ndarray, q: float) -> UtilityEstimate:
    """The estimate simulate_eu returns, from the wealths terminal_wealths
    returns for the same arguments (merged over the same batches)."""
    acc = _UtilityMoments(q)
    for i in range(0, len(x_t), BATCH_SIZE):
        acc.add(x_t[i:i + BATCH_SIZE])
    return acc.estimate()


@dataclass(frozen=True)
class SaddleFinding:
    kind: str          # "value-match" | "adversary" | "policy-scale"
    label: str
    eu: float
    std_error: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class SaddleReport:
    base: UtilityEstimate
    pde_value: float
    findings: tuple[SaddleFinding, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.findings)

    def summary(self) -> str:
        lines = [f"V0_hat = {self.base.mean:.6f} +/- {self.base.std_error:.2e}"
                 f"  (PDE value {self.pde_value:.6f})"]
        for f in self.findings:
            mark = "ok  " if f.passed else "FAIL"
            lines.append(f"  [{mark}] {f.kind:12s} {f.label:24s} "
                         f"EU = {f.eu:.6f} +/- {f.std_error:.2e} (bound {f.bound:.6f})")
        return "\n".join(lines)


def _saddle_adversaries(pf: PolicyField, k: UncertaintyRectangle,
                       seed: int) -> list[AdversaryPolicy]:
    """verify_saddle's adversary deviations, in report order: the corners of
    K, N_RANDOM_ADVERSARIES constant points drawn at the seed, and
    chattering on pf's measure field."""
    adversaries = [
        AdversaryPolicy.constant_point(mu, sig, k)
        for mu in (k.mu_minus, k.mu_plus)
        for sig in (k.sigma_minus, k.sigma_plus)
    ]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(10_000,)))
    for _ in range(N_RANDOM_ADVERSARIES):
        mu = float(rng.uniform(k.mu_minus, k.mu_plus))
        sig = float(rng.uniform(k.sigma_minus, k.sigma_plus))
        adversaries.append(AdversaryPolicy.constant_point(mu, sig, k,
                                                          label=f"random({mu:.3f},{sig:.3f})"))
    adversaries.append(AdversaryPolicy.chattering(pf))
    return adversaries


def verify_saddle(s: ValueSurface, pf: PolicyField, m: MarketModel,
                  k: UncertaintyRectangle, util: PowerUtility, cfg: SimConfig,
                  policy_scales: tuple[float, ...] = (0.0, 0.5, 0.8, 1.2, 1.5)
                  ) -> SaddleReport:
    """Monte-Carlo saddle verification.

    (a) EU(pi*, nu*) must match the PDE value within 3 SE + PDE_TOLERANCE;
    (b) adversary deviations (corners of K, N_RANDOM_ADVERSARIES random
        constant points, chattering) must not push EU below
        V0_hat - 3 SE_combined;
    (c) policy scalings under nu* must not push EU above V0_hat + 3 SE_combined.
    Violations are reported as findings, never raised.
    """
    adversaries = _saddle_adversaries(pf, k, cfg.seed)
    field = AdversaryPolicy.field(pf)
    # one path set per factor path: nu* with the base and its scalings, each
    # group of fixed points with equal loadings, chattering
    base, *estimates = _estimates(
        pf, [(field, 1.0), *((field, scale) for scale in policy_scales),
             *((adv, 1.0) for adv in adversaries)], m, cfg, util)
    scaled, deviations = estimates[:len(policy_scales)], estimates[len(policy_scales):]
    pde_value = value_function(s, 0.0, cfg.x0, cfg.y0, util.q)
    findings: list[SaddleFinding] = []

    tol = 3.0 * base.std_error + PDE_TOLERANCE
    findings.append(SaddleFinding(
        "value-match", "EU(pi*, nu*) vs PDE", base.mean, base.std_error,
        pde_value, abs(base.mean - pde_value) <= tol))

    for adv, est in zip(adversaries, deviations):
        se_comb = math.hypot(est.std_error, base.std_error)
        bound = base.mean - 3.0 * se_comb
        findings.append(SaddleFinding("adversary", adv.label, est.mean,
                                      est.std_error, bound, est.mean >= bound))

    for scale, est in zip(policy_scales, scaled):
        se_comb = math.hypot(est.std_error, base.std_error)
        bound = base.mean + 3.0 * se_comb
        findings.append(SaddleFinding("policy-scale", f"{scale:g}*pi*", est.mean,
                                      est.std_error, bound, est.mean <= bound))

    return SaddleReport(base, pde_value, tuple(findings))
