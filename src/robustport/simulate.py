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
that give the factor the same two loading floats wherever a later step
reads it.  The steps read Y at t_0..t_{n-1} only, so the last step's move
(Y_T) counts for none of them.  The keying rule (_loading_key) takes the
measures an adversary can present at every node of the time rows its
paths read before the last step (PolicyField.row_index of the engine's
step times): a fixed point or a field stored as one node its one measure
(AdversaryPolicy.one_node, as a field at a corner of K), any other field
its moments at those nodes, and chattering each atom it can draw there as
a point (sigma_a where weight_a > 0, sigma_b where weight_a < 1).  Where
they all give one pair of finite loadings, that pair keys the adversary;
every other adversary has a path set of its own (at n_steps = 1 a field
that is not one node reads no row and has none).  Fixed points share where
rho sigma / sigma rounds alike (to rho for every sigma of [0.2, 0.4] at
rho = 0.5, for about 78% of them at 0.9), and so does chattering on a tail
market where its paths draw sigma- and sigma+ before the last step.  The
Y, b(Y), r(Y) and f(t, Y) of a set are bit-identical, and only mu and
sigma^2 enter its ln X rows.  The path engine takes one (adversary,
scales) entry per adversary and groups the entries into path sets, one per
factor path, chattering adversaries included.  It makes one pass over each
batch's normals: every step draws them once, and the chattering uniforms
once where an adversary reads them (draws_atoms), and each set advances
its own Y row (driven by its first adversary, moved once its last has read
it) and one ln X row per scale off those draws, forming each adversary's
moments once per step.  In a path set, an (adversary, scale) entry whose
adversary is one node and draws no atoms (chattering that can draw one
sigma only is that point) is keyed by the bit patterns of the moments the
engine forms for it and of the scale (_entry_key): each key advances one
ln X row, and every entry with that key reads it and shares its estimate.
Chattering that draws atoms, a field that is not one node and entries that
differ in any bit never share a row.  A step evaluates b, beta and r at Y
once, before its groups, with one smoothstep per distinct ramp tail radius
(model.smoothstep), which dies as soon as the ramps of that radius are
mapped from it.  A constant coefficient is one float, left out where it
is 0.0: that changes at most the sign of a zero in an increment or in Y,
never an ln X row (they start at +0.0, and round-to-nearest never makes one
-0.0), and b, fraction_at and node_index read both zeros alike.
verify_saddle's 14 entries form 1 path set of 12 rows where nu* is one
corner at every node and all 7 points load alike, as on configs/smoke.yaml
and configs/ramp.yaml (the base pair, the (mu-, sigma+) corner and
chattering are one row).  Where nu* has two-atom nodes they form 2 or more
sets of 14 rows, advancing together: 2 on the benchmark's tail market at
20 steps (nu*; the points and chattering, whose ZERO nodes, the atom
sigma = 0.3, lie on rows only its last step reads), 3 or more where
chattering can draw another loading before the last step, as at 500 steps
on that market.  These are the draws a set makes when run alone, and each
row keeps the operand pairing of a run of its pair alone, so its estimate
equals that run's bit for bit.  Where one group alone fails, the error is
the one it raises run alone; a set where several fail names the lowest
non-finite path over all its rows.

Reproducibility: paths are processed in fixed batches of 65536.  Batch b draws
its two normal increments per step from
np.random.default_rng(SeedSequence(seed, spawn_key=(b,))), and chattering
draws its uniforms from a stream of its own, SeedSequence(seed,
spawn_key=(b, 1)), each once per step for all path sets (not at all
where no adversary reads them).  The Brownian increments are therefore
common to every (policy, adversary) pair at a seed (common random numbers
for the saddle comparisons).  The calling thread draws them; each step then
advances the batch's paths in column chunks of at least 16384, one per CPU,
on threads in the caller's numpy error state.  A path's arithmetic is the
same in any chunk, so no estimate or error depends on the chunking.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle, smoothstep
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
# _log_wealth advances a batch in column chunks of at least _CHUNK_MIN paths,
# at most one per CPU the process may run on
_CHUNK_MIN = 16384
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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

    @property
    def one_node(self):
        """(mu, sigma_a, sigma_b, weight_a) where the measure is the same at
        every node: (mu, sigma, sigma, 1.0) for a fixed point, the field's
        one node where it stores one (PolicyField.one_node).  Else None."""
        if self.pf is None:
            mu, sig = self.point
            return mu, sig, sig, 1.0
        return self.pf.one_node

    @property
    def draws_atoms(self) -> bool:
        """Whether moments reads uniforms: chattering, unless on one node
        where it can draw one sigma only (_drawable)."""
        node = self.one_node
        if not self.chatter or node is None:
            return self.chatter
        sigs = _drawable(*node[1:])
        return bool(np.any(sigs != sigs[0]))

    def moments(self, t: float, y: np.ndarray, u: np.ndarray | None):
        """(mu, sigma, sigma^2) seen by the paths at (t, y); scalars where the
        measure is one node (sigma stays a row under chattering between two
        atoms).  Only draws_atoms reads u, one uniform per path: a path takes
        atom a where its uniform falls below weight_a."""
        node = self.one_node
        if not self.chatter:
            return self.pf.moments_at(t, y) if node is None else measure_moments(*node)
        if not self.draws_atoms:
            return _point_moments(node[0], _drawable(*node[1:])[0])
        mu, sig_a, sig_b, w_a = node or self.pf.atoms_at(t, y)
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


def _drawable(sig_a, sig_b, w_a) -> np.ndarray:
    """The sigmas chattering can draw from atoms (sig_a, sig_b, w_a), floats
    or arrays of one shape, flattened: sigma_a where weight_a > 0 and
    sigma_b where weight_a < 1 (a path takes atom a where its uniform, in
    [0, 1), falls below weight_a: never below a NaN weight)."""
    w_a = np.asarray(w_a)
    return np.concatenate([np.asarray(sig_a)[w_a > 0], np.asarray(sig_b)[~(w_a >= 1.0)]])


def _loadings(rho: float, sig_m, vol):
    """The factor's loadings (load_w, load_perp) on (dw, dw_perp) under
    adversary moments sig_m and vol = sqrt(sig2_m)."""
    load_w = rho * sig_m / vol
    return load_w, np.sqrt(np.maximum(1.0 - load_w * load_w, 0.0))


def _step_times(cfg: SimConfig) -> list[float]:
    """The time t = step * dt at which each Euler step reads the paths."""
    dt = cfg.horizon / cfg.n_steps
    return [step * dt for step in range(cfg.n_steps)]


def _read_rows(pf: PolicyField, cfg: SimConfig) -> list[int]:
    """The time rows of pf whose nodes move a factor value that a later step
    reads: those of every step but the last, whose move (Y_T) is never read."""
    return sorted({pf.row_index(t) for t in _step_times(cfg)[:-1]})


def _loading_key(adv: AdversaryPolicy, rho: float, cfg: SimConfig):
    """The one (load_w, load_perp) pair the engine forms for adv's factor
    moves that a later step reads: at every node of its _read_rows, from
    the moments adv presents there (its one node's wherever it has one) or,
    with chatter, from each atom it can draw there (_drawable) as a point.
    None where those pairs differ or are none (a field that is not one node
    at n_steps = 1), a loading is not finite or the moments break
    (sigma, nu)^2 <= (sigma^2, nu)."""
    node, pf = adv.one_node, adv.pf
    if node is None:
        rows = _read_rows(pf, cfg)
        node = tuple(a[rows] for a in (pf.atom_mu, pf.sigma_a, pf.sigma_b, pf.weight_a))
    _, sig, sig2 = (_point_moments(node[0], _drawable(*node[1:])) if adv.chatter
                    else measure_moments(*node))
    with np.errstate(divide="ignore", invalid="ignore"):
        load_w, load_perp = map(np.ravel, _loadings(rho, sig, np.sqrt(sig2)))
    if not (load_w.size and np.all(sig * sig <= sig2) and np.all(np.isfinite(load_w))
            and np.all(load_w == load_w[0]) and np.all(load_perp == load_perp[0])):
        return None
    return load_w[0], load_perp[0]


def _path_sets(groups, rho: float, cfg: SimConfig) -> list[list[int]]:
    """The indices of the (adversary, scales) groups partitioned into path
    sets, in order of first appearance.  Groups share a set where their
    adversaries give the factor one pair of loading floats wherever a later
    step reads it (_loading_key); an adversary without a key has a set of
    its own."""
    by_key: dict = {}
    for i, (adv, _) in enumerate(groups):
        by_key.setdefault(_loading_key(adv, rho, cfg) or id(adv), []).append(i)
    return list(by_key.values())


def _coefficient(fn, y):
    """fn(y): its one value as a float where fn is constant, else a row;
    None where fn is the constant 0.0 (either sign), a term a step leaves out."""
    if fn.kind != "constant":
        return np.asarray(fn(y))
    return fn.left if fn.left else None


def _coefficients(fns, y) -> list:
    """[_coefficient(fn, y) for fn in fns], bit for bit, forming one
    smoothstep per distinct ramp tail radius: the ramps of a radius are
    mapped from it, the last of them into it, so it dies with them."""
    values = [None] * len(fns)
    ramps = {}
    for i, fn in enumerate(fns):
        if fn.kind == "smooth-ramp":
            ramps.setdefault(fn.tail_radius, []).append(i)
        else:
            values[i] = _coefficient(fn, y)
    for n, (*shared, last) in ramps.items():
        step = smoothstep(y, n)
        for i in shared:
            values[i] = fns[i].ramp_from(step, y)
        values[last] = fns[last].ramp_from(step, y, out=step)
    return values


def _move_factor(yv: np.ndarray, rho: float, beta_y, sig_m, vol, dt: float, dw, dwp):
    """yv = ((yv + beta_y dt) + load_w dw) + load_perp dw_perp, in place,
    with the loadings of adversary moments sig_m and vol = sqrt(sig2_m);
    beta_y is beta(yv) (_coefficient)."""
    load_w, load_perp = _loadings(rho, sig_m, vol)
    if beta_y is not None:
        yv += beta_y * dt
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
    # beta(Y) too, before the loop: a ramp shares b's smoothstep where their radii match
    b_y, beta_y, r_y = _coefficients((m.b, m.beta, m.r), yv)
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
        if b_y is not None:
            excess += b_y  # b(Y) + mu_m: in place where mu_m is a row (a fresh gather)
        if n == len(groups):
            # no later adversary reads Y or b(Y): lower the step's peak
            del b_y
            _move_factor(yv, m.rho, beta_y, *drive, dt, dw, dwp)
            del beta_y, drive
        # scales first: zip must not pull a row past this group's last
        for scale, row in zip(scales, rows):
            # 0.0 == -0.0, but either scale adds zeros to the row alike
            if scale != last:
                last, f = scale, scale * frac
                half_ff = 0.5 * f * f
            # row += (r_y + f*excess - half_ff*sig2_m)*dt + f*vol*dw
            inc = f * excess
            if r_y is not None:
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
    chatter = any(adv.draws_atoms for groups in sets for adv, _ in groups)
    if chatter:
        uniforms = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(bi, 1)))
    ln_x = np.zeros((sum(map(_n_rows, sets)), nb))
    blocks = _row_blocks(ln_x, sets)
    yvs = np.full((len(sets), nb), cfg.y0)
    u = None
    n = max(1, min(_CPUS, nb // _CHUNK_MIN))
    first, *rest = (slice(nb * c // n, nb * (c + 1) // n) for c in range(n))
    with ThreadPoolExecutor(n - 1) if rest else nullcontext() as pool:
        for t in _step_times(cfg):
            z = rng.standard_normal((2, nb))
            z *= sq_dt
            if chatter:
                u = uniforms.random(nb)
            args = policy, sets, blocks, yvs, m, t, dt, z, u
            # each chunk in the caller's numpy error state; all end before an error is raised
            futures = [pool.submit(copy_context().run, _advance_chunk, sl, *args) for sl in rest]
            try:
                _advance_chunk(first, *args)
            finally:
                wait(futures)
            for future in futures:  # the first error in chunk order
                future.result()
    return ln_x


def _advance_chunk(sl: slice, policy, sets, blocks, yvs, m, t, dt, z, u):
    """One Euler step of the paths sl of every path set, in place: _advance
    on column views, so each path reads and writes only its own columns."""
    for groups, lx, yv in zip(sets, blocks, yvs):
        _advance(policy, groups, lx[:, sl], yv[sl], m, t, dt, z[:, sl],
                 None if u is None else u[sl])


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
    FloatingPointError (_check_finite) before its batch is yielded.

    Raises ValueError where the policy or an adversary is a PolicyField
    whose grid ends at another time than cfg.horizon."""
    for pf in (policy, *(adv.pf for groups in sets for adv, _ in groups)):
        if isinstance(pf, PolicyField) and pf.t[-1] != cfg.horizon:
            raise ValueError(f"policy field horizon {float(pf.t[-1])} differs from "
                             f"the simulation horizon {cfg.horizon}")
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


def _entry_key(adv: AdversaryPolicy, scale: float):
    """The bit patterns of the moments the engine forms for adv, and of
    scale, where adv is one node and draws no atoms: in one path set, the
    (adversary, scale) entries with one key advance equal ln X rows.  None
    for any other adversary, whose moments may vary with (t, Y) or u."""
    if adv.one_node is None or adv.draws_atoms:
        return None
    return tuple(np.float64(v).tobytes() for v in (*adv.moments(0.0, None, None), scale))


def _distinct_rows(groups, rho: float, cfg: SimConfig):
    """The path sets to run for (adversary, scales) groups, each a list of
    groups keeping only the scales that need a row of their own, and for
    each scale of each group the index of the ln X row it reads, in
    _log_wealth's order.  In a path set, an entry whose _entry_key an
    earlier entry has reads that entry's row; no other entry shares one."""
    sets, slots = [], [[] for _ in groups]
    n_rows = 0
    for members in _path_sets(groups, rho, cfg):
        rows = {}
        run = []
        for i in members:
            adv, scales = groups[i]
            kept = []
            for j, scale in enumerate(scales):
                row = rows.setdefault(_entry_key(adv, scale) or (i, j), n_rows)
                if row == n_rows:
                    kept.append(scale)
                    n_rows += 1
                slots[i].append(row)
            if kept:
                run.append((adv, tuple(kept)))
        sets.append(run)
    return sets, slots


def _estimates(policy, groups, m: MarketModel, cfg: SimConfig, q) -> tuple[tuple, ...]:
    """E[X_T^q / q] for each scale of each (adversary, scales) group, one
    tuple of UtilityEstimate per group; equal entries (_distinct_rows) are
    simulated once and share one estimate.

    Raises FloatingPointError on a non-finite wealth and AssertionError on
    broken moments, batch by batch: where two path sets fail, the first
    batch that fails decides which error, and which path, is named."""
    q = _resolve_q(policy, q)
    sets, slots = _distinct_rows(groups, m.rho, cfg)
    accs = [_UtilityMoments(q) for _ in range(sum(map(_n_rows, sets)))]
    for x_t in _wealth_batches(policy, sets, m, cfg):
        for acc, row in zip(accs, x_t):
            acc.add(row)
        del x_t, row  # a batch's wealths must not live on into the next batch
    estimates = [acc.estimate() for acc in accs]
    return tuple(tuple(estimates[k] for k in rows) for rows in slots)


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
    # it where they load the factor alike, and an entry that forms the
    # base's moments at its scale reads the base's row
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
