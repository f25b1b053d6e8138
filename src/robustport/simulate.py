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
scaling under one adversary shares the factor paths, and so do adversaries
whose two loadings are the same floats wherever they act: fixed points (rho
sigma / sigma rounds to rho for every sigma of [0.2, 0.4] at rho = 0.5, for
about 78% of them at 0.9), and a field whose moments, or with chattering
whose atoms, load the factor alike at every node, as a field that sits at
one corner of K does.  Their Y, b(Y), r(Y) and f(t, Y) are bit-identical, and
only mu and sigma^2 enter their ln X rows.  The path engine takes one
(adversary, scales) entry per adversary and groups the entries into path
sets, one per factor path, chattering adversaries included.  It makes one
pass over each batch's normals: every step draws them once, and the
chattering uniforms once, and each set advances its own Y row (driven by
its first adversary, moved once its last has read it) and one ln X row per
scale off those draws, forming each adversary's moments once per step
(without a gather where nu* is stored as one node).  verify_saddle's 14
rows form 1 path set where nu* is one corner at every node and all 7 points
load alike, as on configs/smoke.yaml and configs/ramp.yaml, and 3 or more,
advancing together, where nu* has two-atom nodes.  These are the draws a set
makes when run alone, and each row keeps the operand pairing of a run of its
pair alone, so its estimate equals that run's bit for bit.  Where one set
alone fails, the error is the one it raises run alone.

Reproducibility: paths are processed in fixed batches of 65536.  Batch b draws
its two normal increments per step from
np.random.default_rng(SeedSequence(seed, spawn_key=(b,))), and chattering
draws its uniforms from a stream of its own, SeedSequence(seed,
spawn_key=(b, 1)), each once per step for all path sets.  The Brownian
increments are therefore common to every (policy, adversary) pair at a seed
(common random numbers for the saddle comparisons), and estimates are
independent of how batches would be distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle
from .pde import ValueSurface
from .strategy import PolicyField, value_function
from .worst_case import measure_moments

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
    drawing one atom per path and step.

    Raises ValueError unless exactly one of point and pf is given, chatter
    comes with pf, and a point has a finite mu and a finite sigma > 0."""

    label: str
    point: tuple[float, float] | None = None
    pf: PolicyField | None = None
    chatter: bool = False

    def __post_init__(self):
        if (self.point is None) == (self.pf is None):
            raise ValueError("give exactly one of point and pf")
        if self.chatter and self.pf is None:
            raise ValueError("chatter draws atoms of a measure field: give pf")
        if self.point is not None:
            mu, sig = self.point
            if not (math.isfinite(mu) and math.isfinite(sig) and sig > 0):
                raise ValueError("a point needs a finite mu and a finite sigma > 0")

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
        return cls(label or f"point({mu:g},{sigma:g})", point=(float(mu), float(sigma)))

    def moments(self, t: float, y: np.ndarray, u: np.ndarray | None):
        """(mu, sigma, sigma^2) seen by the paths at (t, y); scalars for a
        fixed point and for a field whose measure is one node everywhere
        (sigma stays a row under chattering).  Only chattering reads u, one
        uniform per path: a path takes atom a where its uniform falls below
        weight_a."""
        if self.pf is None:
            return _point_moments(*self.point)
        if not self.chatter:
            return self.pf.moments_at(t, y)
        mu, sig_a, sig_b, w_a = self.pf.atoms_at(t, y)
        sig = np.where(u < w_a, sig_a, sig_b)
        del sig_a, sig_b, w_a  # before the moments' temporaries: a lower peak
        return _point_moments(mu, sig)


@dataclass(frozen=True)
class UtilityEstimate:
    mean: float
    std_error: float
    n_paths: int
    min_terminal_wealth: float
    max_terminal_wealth: float


def _point_moments(mu, sig):
    """(mu, sigma, sigma^2) of the point (mu, sig), elementwise: the moments of
    a one-atom measure."""
    return measure_moments(mu, sig, sig, 1.0)


def _loadings(rho: float, sig_m, vol):
    """The factor's loadings (load_w, load_perp) on (dw, dw_perp) under
    adversary moments sig_m and vol = sqrt(sig2_m)."""
    load_w = rho * sig_m / vol
    return load_w, np.sqrt(np.maximum(1.0 - load_w * load_w, 0.0))


def _field_loadings(pf: PolicyField, rho: float, chatter: bool):
    """The one (load_w, load_perp) pair the engine forms at every node of pf's
    measure field, from the moments or, with chatter, from each atom as a
    point; None where the pair varies or the moments break
    (sigma, nu)^2 <= (sigma^2, nu)."""
    node = pf.one_node
    if node is None:
        # blocks of rows of about BATCH_SIZE nodes: no surface-sized array
        step = max(1, BATCH_SIZE // pf.y.size)
        blocks = ((pf.sigma_a[i:i + step], pf.sigma_b[i:i + step], pf.weight_a[i:i + step])
                  for i in range(0, pf.t.size, step))
    else:
        blocks = [node[1:]]
    pair = None
    for sig_a, sig_b, w_a in blocks:
        measures = ([_point_moments(None, sig_a), _point_moments(None, sig_b)] if chatter
                    else [measure_moments(None, sig_a, sig_b, w_a)])
        for _, sig, sig2 in measures:
            if not np.all(sig * sig <= sig2):
                return None
            with np.errstate(divide="ignore", invalid="ignore"):  # a NaN fails ==
                load_w, load_perp = _loadings(rho, sig, np.sqrt(sig2))
            if pair is None:
                pair = np.ravel(load_w)[0], np.ravel(load_perp)[0]
            if not (np.all(load_w == pair[0]) and np.all(load_perp == pair[1])):
                return None
    return pair


def _path_sets(groups, rho: float) -> list[list[int]]:
    """The indices of the (adversary, scales) groups partitioned into path
    sets, in order of first appearance.  Groups share a set where their
    adversaries give the factor one pair of loading floats: a fixed point
    is keyed by its loadings, a field by _field_loadings' pair or, where it
    has none, by its identity."""
    if len(groups) == 1:
        return [[0]]
    sets: list[list[int]] = []
    by_key: dict = {}
    for i, (adv, _) in enumerate(groups):
        if adv.pf is None:
            _, sig, sig2 = _point_moments(*adv.point)
            key = _loadings(rho, sig, np.sqrt(sig2))
        else:
            key = _field_loadings(adv.pf, rho, adv.chatter) or id(adv)
        members = by_key.setdefault(key, [])
        if not members:
            sets.append(members)
        members.append(i)
    return sets


def _coefficient(fn, y):
    """fn(y): its one value as a float where fn is constant, else a row."""
    return fn.left if fn.kind == "constant" else np.asarray(fn(y))


def _move_factor(yv: np.ndarray, m: MarketModel, sig_m, vol, dt: float, dw, dwp):
    """yv = ((yv + beta(yv) dt) + load_w dw) + load_perp dw_perp, in place,
    with the loadings of adversary moments sig_m and vol = sqrt(sig2_m)."""
    load_w, load_perp = _loadings(m.rho, sig_m, vol)
    yv += _coefficient(m.beta, yv) * dt
    yv += load_w * dw
    yv += load_perp * dwp


def _advance(policy, groups, lx, yv, m: MarketModel, t: float, dt: float, z, u):
    """One Euler step of one path set, in place: its ln X rows lx, one per
    scale of each (adversary, scales) group in order, and its factor row yv,
    which the first group's adversary drives.  z = (dw, dw_perp) are the
    step's scaled normals, u its uniforms (None without chattering).

    Raises AssertionError where an adversary's moments break
    (sigma, nu)^2 <= (sigma^2, nu)."""
    dw, dwp = z
    frac = (policy.fraction_at(t, yv) if isinstance(policy, PolicyField)
            else float(policy))
    b_y = np.asarray(m.b(yv))
    r_y = _coefficient(m.r, yv)
    rows = iter(lx)
    last = f = half_ff = None
    for n, (adv, scales) in enumerate(groups, 1):
        excess, sig_m, sig2_m = adv.moments(t, yv, u)
        if not np.all(sig_m * sig_m <= sig2_m):
            raise AssertionError(
                "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)")
        vol = np.sqrt(sig2_m)
        if n == 1:
            drive = sig_m, vol
        del sig_m
        excess += b_y  # b(Y) + mu_m: in place where mu_m is a row (a fresh gather)
        if n == len(groups):
            # no later adversary reads Y or b(Y): lower the step's peak
            del b_y
            _move_factor(yv, m, *drive, dt, dw, dwp)
            del drive
        # scales first: zip must not pull a row past this group's last
        for scale, row in zip(scales, rows):
            # 0.0 == -0.0, but either scale adds zeros to the row alike
            if scale != last:
                last, f = scale, scale * frac
                half_ff = 0.5 * f * f
            # row += (r_y + f*excess - half_ff*sig2_m)*dt + f*vol*dw
            inc = f * excess
            inc += r_y
            inc -= half_ff * sig2_m
            inc *= dt
            noise = f * vol
            noise *= dw  # in place where f * vol is a row
            inc += noise
            row += inc
            del inc, noise
        del excess


def _n_rows(groups) -> int:
    """The ln X rows of (adversary, scales) groups: one per scale."""
    return sum(len(scales) for _, scales in groups)


def _row_blocks(ln_x: np.ndarray, sets) -> list[np.ndarray]:
    """ln_x split, as views, into the row blocks of the path sets in order."""
    return np.split(ln_x, np.cumsum([_n_rows(groups) for groups in sets])[:-1])


def _log_wealth(policy, sets, m: MarketModel, cfg: SimConfig, bi: int) -> np.ndarray:
    """ln X_T on the paths of batch bi, one row per scale of each (adversary,
    scales) group of each path set, set by set and in order; sets lists each
    set's groups."""
    dt = cfg.horizon / cfg.n_steps
    sq_dt = math.sqrt(dt)
    nb = min(BATCH_SIZE, cfg.n_paths - bi * BATCH_SIZE)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi,)))
    chatter = any(adv.chatter for groups in sets for adv, _ in groups)
    if chatter:
        uniforms = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi, 1)))
    ln_x = np.zeros((sum(map(_n_rows, sets)), nb))
    blocks = _row_blocks(ln_x, sets)
    yvs = np.full((len(sets), nb), cfg.y0)
    u = None
    for step in range(cfg.n_steps):
        t = step * dt
        z = rng.standard_normal((2, nb))
        z *= sq_dt
        if chatter:
            u = uniforms.random(nb)
        for groups, lx, yv in zip(sets, blocks, yvs):
            _advance(policy, groups, lx, yv, m, t, dt, z, u)
    return ln_x


def _check_finite(ln_x: np.ndarray, sets, bi: int):
    """Raise FloatingPointError naming the first path of batch bi with a
    non-finite ln X in the first path set that has one."""
    for rows in _row_blocks(ln_x, sets):
        finite = np.all(np.isfinite(rows), axis=0)
        if not np.all(finite):
            bad = int(np.argmin(finite))
            raise FloatingPointError(f"non-finite wealth on path {bi * BATCH_SIZE + bad}")


def _wealth_batches(policy, sets, m: MarketModel, cfg: SimConfig):
    """Yield, batch by batch, the terminal wealths of every (adversary,
    scales) group of each path set, one row per scale, in _log_wealth's
    order; sets lists each set's groups.  A non-finite wealth raises
    FloatingPointError (_check_finite) before its batch is yielded."""
    n_batches = (cfg.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    for bi in range(n_batches):
        ln_x = _log_wealth(policy, sets, m, cfg, bi)
        _check_finite(ln_x, sets, bi)
        np.exp(ln_x, out=ln_x)
        ln_x *= cfg.x0
        yield ln_x
        del ln_x  # a batch's wealths must not live on into the next batch


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


def _estimates(policy, groups, m: MarketModel, cfg: SimConfig, q) -> tuple[tuple, ...]:
    """E[X_T^q / q] for each scale of each (adversary, scales) group, one
    tuple of UtilityEstimate per group.

    Raises FloatingPointError on a non-finite wealth and AssertionError on
    broken moments, batch by batch: where two path sets fail, the first
    batch that fails decides which error, and which path, is named."""
    q = _resolve_q(policy, q)
    sets = _path_sets(groups, m.rho)
    accs = [[_UtilityMoments(q) for _ in scales] for _, scales in groups]
    flat = [acc for members in sets for i in members for acc in accs[i]]
    for x_t in _wealth_batches(policy, [[groups[i] for i in members] for members in sets],
                               m, cfg):
        for acc, row in zip(flat, x_t):
            acc.add(row)
        del x_t, row  # a batch's wealths must not live on into the next batch
    return tuple(tuple(acc.estimate() for acc in group) for group in accs)


def simulate_eu(policy, adv: AdversaryPolicy, m: MarketModel, cfg: SimConfig,
                q: float | PowerUtility | None = None,
                policy_scale: float = 1.0) -> UtilityEstimate:
    """Expected terminal utility E[X_T^q / q] under (policy, adversary).

    policy is a PolicyField (fraction interpolated at (t, Y)) or a constant
    fraction; policy_scale multiplies the fraction pathwise (used for the
    deviation checks).  q defaults to the policy field's utility exponent.
    """
    return _estimates(policy, [(adv, (policy_scale,))], m, cfg, q)[0][0]


def terminal_wealths(policy, adv: AdversaryPolicy, m: MarketModel,
                     cfg: SimConfig) -> np.ndarray:
    """All terminal wealths (same paths and seed scheme as simulate_eu)."""
    return np.concatenate([x_t[0] for x_t in _wealth_batches(
        policy, [[(adv, (1.0,))]], m, cfg)])


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
    # one path set per factor path, all on one pass over the normals: nu*
    # with the base and its scalings, the fixed points and chattering join
    # it where they load the factor alike
    (base, *scaled), *deviations = _estimates(
        pf, [(field, (1.0, *policy_scales)), *((adv, (1.0,)) for adv in adversaries)],
        m, cfg, util)
    pde_value = value_function(s, 0.0, cfg.x0, cfg.y0, util.q)
    findings: list[SaddleFinding] = []

    tol = 3.0 * base.std_error + PDE_TOLERANCE
    findings.append(SaddleFinding(
        "value-match", "EU(pi*, nu*) vs PDE", base.mean, base.std_error,
        pde_value, abs(base.mean - pde_value) <= tol))

    for adv, (est,) in zip(adversaries, deviations):
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
