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
    "terminal_wealths",
    "utility_estimate",
    "SaddleFinding",
    "SaddleReport",
    "verify_saddle",
]

BATCH_SIZE = 65536


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


def _terminal_wealth_batches(policy, adv: AdversaryPolicy, m: MarketModel,
                             cfg: SimConfig, policy_scale: float):
    """Yield terminal-wealth arrays batch by batch (the path engine)."""
    dt = cfg.horizon / cfg.n_steps
    sq_dt = math.sqrt(dt)
    rho = m.rho

    n_batches = (cfg.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    for bi in range(n_batches):
        nb = min(BATCH_SIZE, cfg.n_paths - bi * BATCH_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi,)))
        uniforms = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi, 1)))
        ln_x = np.zeros(nb)
        yv = np.full(nb, cfg.y0)
        for step in range(cfg.n_steps):
            t = step * dt
            z = rng.standard_normal((2, nb))
            dw = sq_dt * z[0]
            dwp = sq_dt * z[1]

            mu_m, sig_m, sig2_m = adv.moments(t, yv, uniforms)
            if not np.all(sig_m * sig_m <= sig2_m):
                raise AssertionError(
                    "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)")
            f = policy_scale * (policy.fraction_at(t, yv) if isinstance(policy, PolicyField)
                                else float(policy))

            b_y = np.asarray(m.b(yv))
            r_y = np.asarray(m.r(yv))
            beta_y = np.asarray(m.beta(yv))
            vol = np.sqrt(sig2_m)
            ln_x += (r_y + f * (b_y + mu_m) - 0.5 * f * f * sig2_m) * dt + f * vol * dw
            load_w = rho * sig_m / vol
            load_perp = np.sqrt(np.maximum(1.0 - load_w * load_w, 0.0))
            yv = yv + beta_y * dt + load_w * dw + load_perp * dwp

        if not np.all(np.isfinite(ln_x)):
            bad = int(np.argmax(~np.isfinite(ln_x)))
            raise FloatingPointError(
                f"non-finite wealth on path {bi * BATCH_SIZE + bad}")
        yield cfg.x0 * np.exp(ln_x)


def _resolve_q(policy, q) -> float:
    if q is None:
        if not isinstance(policy, PolicyField):
            raise ValueError("q is required for a constant-fraction policy")
        return policy.q
    if isinstance(q, PowerUtility):
        return q.q
    return float(q)


def _estimate(batches, q: float) -> UtilityEstimate:
    """E[X_T^q / q] from terminal-wealth batches by a merge-safe (count, mean,
    M2) accumulation: batch order is fixed, so the result is independent of
    how batches would be distributed across workers."""
    n = 0
    mean = 0.0
    m2 = 0.0
    min_x = math.inf
    max_x = -math.inf
    for x_t in batches:
        u = x_t**q / q
        nb = len(u)
        mean_b = float(np.mean(u))
        m2_b = float(np.sum((u - mean_b) ** 2))
        delta = mean_b - mean
        total = n + nb
        mean += delta * nb / total
        m2 += m2_b + delta * delta * n * nb / total
        n = total
        min_x = min(min_x, float(np.min(x_t)))
        max_x = max(max_x, float(np.max(x_t)))
    var = m2 / (n - 1) if n > 1 else 0.0
    return UtilityEstimate(mean, math.sqrt(var / n), n, min_x, max_x)


def simulate_eu(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                q: float | PowerUtility | None = None,
                policy_scale: float = 1.0) -> UtilityEstimate:
    """Expected terminal utility E[X_T^q / q] under (policy, adversary).

    policy is a PolicyField (fraction interpolated at (t, Y)) or a constant
    fraction; policy_scale multiplies the fraction pathwise (used for the
    deviation checks).  q defaults to the policy field's utility exponent.
    """
    q = _resolve_q(policy, q)
    return _estimate(_terminal_wealth_batches(policy, adv, m, cfg, policy_scale), q)


def terminal_wealths(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                     policy_scale: float = 1.0) -> np.ndarray:
    """All terminal wealths (same paths and seed scheme as simulate_eu)."""
    return np.concatenate(list(
        _terminal_wealth_batches(policy, adv, m, cfg, policy_scale)))


def utility_estimate(x_t: np.ndarray, q: float) -> UtilityEstimate:
    """The estimate simulate_eu returns, from the wealths terminal_wealths
    returns for the same arguments (merged over the same batches)."""
    return _estimate((x_t[i:i + BATCH_SIZE] for i in range(0, len(x_t), BATCH_SIZE)), q)


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


def verify_saddle(s: ValueSurface, pf: PolicyField, m: MarketModel,
                  k: UncertaintyRectangle, util: PowerUtility, cfg: SimConfig,
                  n_random_adversaries: int = 3,
                  policy_scales: tuple[float, ...] = (0.0, 0.5, 0.8, 1.2, 1.5),
                  pde_tolerance: float = 1e-3) -> SaddleReport:
    """Monte-Carlo saddle verification.

    (a) EU(pi*, nu*) must match the PDE value within 3 SE + pde_tolerance;
    (b) adversary deviations (corners of K, random constant points,
        chattering) must not push EU below V0_hat - 3 SE_combined;
    (c) policy scalings under nu* must not push EU above V0_hat + 3 SE_combined.
    Violations are reported as findings, never raised.
    """
    base = simulate_eu(pf, AdversaryPolicy.field(pf), m, cfg, q=util)
    pde_value = value_function(s, 0.0, cfg.x0, cfg.y0, util.q)
    findings: list[SaddleFinding] = []

    tol = 3.0 * base.std_error + pde_tolerance
    findings.append(SaddleFinding(
        "value-match", "EU(pi*, nu*) vs PDE", base.mean, base.std_error,
        pde_value, abs(base.mean - pde_value) <= tol))

    adversaries = [
        AdversaryPolicy.constant_point(mu, sig, k)
        for mu in (k.mu_minus, k.mu_plus)
        for sig in (k.sigma_minus, k.sigma_plus)
    ]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(10_000,)))
    for i in range(n_random_adversaries):
        mu = float(rng.uniform(k.mu_minus, k.mu_plus))
        sig = float(rng.uniform(k.sigma_minus, k.sigma_plus))
        adversaries.append(AdversaryPolicy.constant_point(mu, sig, k,
                                                          label=f"random({mu:.3f},{sig:.3f})"))
    adversaries.append(AdversaryPolicy.chattering(pf))

    for adv in adversaries:
        est = simulate_eu(pf, adv, m, cfg, q=util)
        se_comb = math.hypot(est.std_error, base.std_error)
        bound = base.mean - 3.0 * se_comb
        findings.append(SaddleFinding("adversary", adv.label, est.mean,
                                      est.std_error, bound, est.mean >= bound))

    nu_field = AdversaryPolicy.field(pf)
    for scale in policy_scales:
        est = simulate_eu(pf, nu_field, m, cfg, q=util, policy_scale=scale)
        se_comb = math.hypot(est.std_error, base.std_error)
        bound = base.mean + 3.0 * se_comb
        findings.append(SaddleFinding("policy-scale", f"{scale:g}*pi*", est.mean,
                                      est.std_error, bound, est.mean <= bound))

    return SaddleReport(base, pde_value, tuple(findings))
