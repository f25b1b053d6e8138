"""Worst-case measures on the uncertainty rectangle.

Minimizes the ratio  ((b+mu, nu) + kappa*(sigma, nu))^2 / (sigma^2, nu)  over
probability measures nu on K = [mu-, mu+] x [sigma-, sigma+].  The minimizer
has one or two atoms: the drift component is a point, the volatility component
is Bernoulli on {sigma-, sigma+}, which pins the second moment to
(sigma^2, nu) = 2*sigma_M*(sigma, nu) - sigma-*sigma+.  With m± = b + mu± the
minimum is piecewise in kappa over five regions split at

    t1 = m+ sM / (s- (sM - s+)),   t2 = -m+/s-,   t3 = -m-/s+,
    t4 = m- sM / (s+ (sM - s-)),

with half-open (left-open, right-closed) region boundaries.

Each part of the minimizer is written once.  `_prepared` forms the b-only
part (the A3 check b + mu- >= 0, m± and the thresholds).  `ratio_kernel` owns
the value: prepared once for fixed b, it evaluates for many kappas the value
expressions of only the branches that occur (the PDE's hot path;
`min_ratio_values` is its one-shot form).
`branch_fields` owns the measure: per node the region code and the four numbers
(mu, sigma_a, sigma_b, weight_a) of weight_a d(mu, sigma_a) + (1 - weight_a)
d(mu, sigma_b).  `WorstCaseMeasure` is one such node, and `measure_moments`
is the one moment formula.  `minimize_ratio` composes kernel and measure at a
single (b, kappa) on one preparation.  A brute-force grid search over atoms
and Bernoulli mixtures is provided as an independent oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import UncertaintyRectangle

__all__ = [
    "BranchRegion",
    "KappaBranch",
    "WorstCaseMeasure",
    "RatioMin",
    "measure_moments",
    "minimize_ratio",
    "ratio_kernel",
    "min_ratio_values",
    "branch_fields",
    "brute_force_min",
]


class BranchRegion(enum.Enum):
    LOW_TAIL = "LOW_TAIL"
    PLUS_CORNER = "PLUS_CORNER"
    ZERO = "ZERO"
    MINUS_CORNER = "MINUS_CORNER"
    HIGH_TAIL = "HIGH_TAIL"


# stable integer codes for vectorized field output
_REGION_CODE = {r: i for i, r in enumerate(BranchRegion)}
_CODE_REGION = {i: r for r, i in _REGION_CODE.items()}


@dataclass(frozen=True)
class KappaBranch:
    """Which kappa-region the minimizer falls in, plus the region thresholds.

    For a degenerate rectangle (sigma- == sigma+) the tail thresholds diverge
    and are reported as -inf/+inf.
    """

    region: BranchRegion
    t1: float
    t2: float
    t3: float
    t4: float


def measure_moments(mu, sigma_a, sigma_b, weight_a):
    """(mu, (sigma, nu), (sigma^2, nu)) of weight_a d(mu, sigma_a) + (1 - weight_a)
    d(mu, sigma_b), elementwise on floats or arrays.  A square is `s * s`, what
    `array ** 2` runs; a float's `** 2` calls pow(), which can differ in the last bit."""
    weight_b = 1.0 - weight_a
    return (mu, weight_a * sigma_a + weight_b * sigma_b,
            weight_a * (sigma_a * sigma_a) + weight_b * (sigma_b * sigma_b))


@dataclass(frozen=True)
class WorstCaseMeasure:
    """weight_a d(mu, sigma_a) + (1 - weight_a) d(mu, sigma_b): one node of
    branch_fields (a point has weight_a == 1)."""

    mu: float
    sigma_a: float
    sigma_b: float
    weight_a: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.weight_a <= 1.0:
            raise ValueError("weight_a must lie in [0, 1]")

    @classmethod
    def point(cls, mu: float, sigma: float) -> "WorstCaseMeasure":
        return cls(mu, sigma, sigma)

    @property
    def atoms(self) -> tuple[tuple[tuple[float, float], float], ...]:
        """((mu, sigma), weight) per atom.  A weight within 1e-12 of 1 or 0, or
        equal volatilities, collapse the measure to a point."""
        mu, s_a, s_b, w = self.mu, self.sigma_a, self.sigma_b, self.weight_a
        if w >= 1.0 - 1e-12 or s_a == s_b:
            return (((mu, s_a), 1.0),)
        if w <= 1e-12:
            return (((mu, s_b), 1.0),)
        return (((mu, s_a), w), ((mu, s_b), 1.0 - w))

    def moments(self) -> tuple[float, float, float]:
        return measure_moments(self.mu, self.sigma_a, self.sigma_b, self.weight_a)


class RatioMin(NamedTuple):
    measure: WorstCaseMeasure
    value: float
    branch: KappaBranch


def _prepared(b_vals, k: UncertaintyRectangle):
    """The b-only part of the minimizer: (b, m-, m+, (t1, t2, t3, t4)) with
    m± = b + mu±, as float arrays of b_vals' shape.

    Raises ValueError unless b + mu_minus >= 0 (NaN fails it too): no region
    mask would select a NaN node.  For a degenerate rectangle (sigma- ==
    sigma+) t1 and t4 are -inf and +inf.
    """
    b = np.asarray(b_vals, dtype=float)
    m_lo = b + k.mu_minus
    m_hi = b + k.mu_plus
    if not (m_lo >= 0).all():
        raise ValueError("precondition b + mu_minus >= 0 violated")
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    if s_lo == s_hi:
        t1 = np.full_like(m_hi, -np.inf)
        t4 = np.full_like(m_lo, np.inf)
    else:
        t1 = m_hi * s_mid / (s_lo * (s_mid - s_hi))
        t4 = m_lo * s_mid / (s_hi * (s_mid - s_lo))
    return b, m_lo, m_hi, (t1, -m_hi / s_lo, -m_lo / s_hi, t4)


def _finite(kappas) -> np.ndarray:
    kap = np.asarray(kappas, dtype=float)
    if not np.isfinite(kap).all():
        raise ValueError("kappa must be finite")
    return kap


def branch_fields(b_vals, kappas, k: UncertaintyRectangle):
    """The minimizing measure at every node.

    Returns a dict of arrays broadcast to the common shape of b_vals/kappas:
    code (BranchRegion integer code), atom_mu, sigma_a, sigma_b, weight_a.
    Single-atom nodes have weight_a == 1 and sigma_b == sigma_a.  The value
    of the minimum is ratio_kernel's.
    """
    return _fields(_prepared(b_vals, k), kappas, k)


def _fields(prepared, kappas, k: UncertaintyRectangle):
    """branch_fields on the output of _prepared."""
    b, m_lo, m_hi, ts = prepared
    kap = _finite(kappas)
    b, m_lo, m_hi, t1, t2, t3, t4, kap = np.broadcast_arrays(b, m_lo, m_hi, *ts, kap)
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid

    low = kap <= t1
    plus = (kap > t1) & (kap <= t2)
    zero = (kap > t2) & (kap <= t3)
    minus = (kap > t3) & (kap <= t4)
    high = kap > t4

    atom_mu = np.empty(kap.shape)
    sigma_a = np.empty(kap.shape)
    sigma_b = np.empty(kap.shape)
    weight_a = np.ones(kap.shape)
    code = np.empty(kap.shape, dtype=np.int8)

    prod = s_lo * s_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        # tail branches: Bernoulli volatility with target mean m/kappa + s-s+/sM
        for mask, m_a, region in ((low, m_hi, BranchRegion.LOW_TAIL),
                                  (high, m_lo, BranchRegion.HIGH_TAIL)):
            if not np.any(mask):
                continue
            km = kap[mask]
            ma = m_a[mask]
            # km == 0 only reaches a tail when ma == 0 (then any mean yields 0)
            drift_term = np.where(km != 0.0, ma / np.where(km != 0.0, km, 1.0), 0.0)
            sbar = np.clip(drift_term + prod / s_mid, s_lo, s_hi)
            alpha = (s_hi - sbar) / (s_hi - s_lo) if s_hi > s_lo else np.ones_like(sbar)
            atom_mu[mask] = k.mu_plus if region is BranchRegion.LOW_TAIL else k.mu_minus
            sigma_a[mask] = s_lo
            sigma_b[mask] = s_hi
            weight_a[mask] = alpha
            code[mask] = _REGION_CODE[region]

        for mask, mu, sig, region in (
                (plus, k.mu_plus, s_lo, BranchRegion.PLUS_CORNER),
                (minus, k.mu_minus, s_hi, BranchRegion.MINUS_CORNER)):
            atom_mu[mask] = mu
            sigma_a[mask] = sig
            sigma_b[mask] = sig
            code[mask] = _REGION_CODE[region]

        if np.any(zero):
            # any atom on the line m + kappa*sigma = 0 kills the ratio; take the
            # midpoint of the feasible sigma interval for determinism
            km = kap[zero]
            neg = -km
            lo_feas = np.where(neg > 0, np.maximum(s_lo, m_lo[zero] / neg), s_lo)
            hi_feas = np.where(neg > 0, np.minimum(s_hi, m_hi[zero] / neg), s_hi)
            sig_hat = 0.5 * (lo_feas + hi_feas)
            atom_mu[zero] = -km * sig_hat - b[zero]
            sigma_a[zero] = sig_hat
            sigma_b[zero] = sig_hat
            code[zero] = _REGION_CODE[BranchRegion.ZERO]

    return {"code": code, "atom_mu": atom_mu, "sigma_a": sigma_a,
            "sigma_b": sigma_b, "weight_a": weight_a}


def ratio_kernel(b_vals, k: UncertaintyRectangle):
    """The minimal ratio at fixed b, prepared for many kappas.

    The b-only terms are formed here once (after _prepared's A3 check);
    values(kappas) does only the kappa-dependent arithmetic: the minus-corner
    value over every node, then the value expression of only the branches
    that occur, each written where the half-open regions select it.  b_vals
    and kappas broadcast (the residual passes 1-D b against 2-D kappa).

    Raises ValueError if b + mu_minus >= 0 fails (NaN included); values
    raises ValueError on a non-finite kappa.
    """
    return _kernel(_prepared(b_vals, k), k)


def _kernel(prepared, k: UncertaintyRectangle):
    """ratio_kernel on the output of _prepared."""
    _, m_lo, m_hi, ts = prepared
    # each threshold raised to the running maximum of those before it: a
    # node's region is the first with kappa <= t_i, and kappa <= max(t1..t_i)
    # holds exactly when kappa <= t_j for some j <= i, so the masks nest
    # (low within plus within zero) and select the same region as t1..t4
    t1, t2, t3, t4 = np.maximum.accumulate(np.stack(ts), axis=0)
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    prod = s_lo * s_hi
    lin_hi = 2.0 * m_hi * s_mid
    lin_lo = 2.0 * m_lo * s_mid
    s_mid_sq, s_lo_sq, s_hi_sq = s_mid**2, s_lo**2, s_hi**2

    def values(kappas) -> np.ndarray:
        kap = _finite(kappas)
        # the minus corner everywhere, then each other branch only where a
        # node falls in it.  np.square is what `array ** 2` runs; a numpy
        # scalar's `** 2` calls pow(), which can differ in the last bit.
        # asarray turns a 0-d result (a numpy scalar) into an array to fill;
        # count_nonzero is the cheapest emptiness test of a mask.
        out = np.asarray(np.square(m_lo + kap * s_hi) / s_hi_sq)
        mask = kap > t4
        if np.count_nonzero(mask):
            np.copyto(out, kap * (lin_lo + kap * prod) / s_mid_sq, where=mask)
        mask = kap <= t3
        if np.count_nonzero(mask):
            np.copyto(out, 0.0, where=mask)
            mask = kap <= t2
            if np.count_nonzero(mask):
                np.copyto(out, np.square(m_hi + kap * s_lo) / s_lo_sq, where=mask)
                mask = kap <= t1
                if np.count_nonzero(mask):
                    np.copyto(out, kap * (lin_hi + kap * prod) / s_mid_sq, where=mask)
        return out

    return values


def min_ratio_values(b_vals, kappas, k: UncertaintyRectangle) -> np.ndarray:
    """Minimal ratio only: ratio_kernel(b_vals, k)(kappas)."""
    return ratio_kernel(b_vals, k)(kappas)


def minimize_ratio(b_val: float, kappa: float, k: UncertaintyRectangle) -> RatioMin:
    """Closed-form minimizer at a single (b, kappa): measure, value, branch,
    all from one preparation of b."""
    prepared = _prepared(b_val, k)
    f = _fields(prepared, kappa, k)
    measure = WorstCaseMeasure(*(float(f[name]) for name in
                                 ("atom_mu", "sigma_a", "sigma_b", "weight_a")))
    branch = KappaBranch(_CODE_REGION[int(f["code"])], *(float(t) for t in prepared[3]))
    return RatioMin(measure, float(_kernel(prepared, k)(kappa)), branch)


def _ratio(mean_mu, mean_sigma, mean_sigma_sq, b_val, kappa):
    return (b_val + mean_mu + kappa * mean_sigma) ** 2 / mean_sigma_sq


class BruteForceMin(NamedTuple):
    value: float
    measure: WorstCaseMeasure


def brute_force_min(b_val: float, kappa: float, k: UncertaintyRectangle,
                    resolution: int = 200) -> BruteForceMin:
    """Independent grid-search oracle for minimize_ratio.

    Searches (i) single atoms on a resolution x resolution grid of K and
    (ii) the Bernoulli family alpha*d_(mu,s-) + (1-alpha)*d_(mu,s+) over
    grids of mu and alpha.  No closed-form knowledge is used.
    """
    if not 10 <= resolution <= 2000:
        raise ValueError(f"resolution must lie in [10, 2000], got {resolution}")
    mus = np.linspace(k.mu_minus, k.mu_plus, resolution)
    sigs = np.linspace(k.sigma_minus, k.sigma_plus, resolution)

    # single atoms
    mu_g = mus[:, None]
    sig_g = sigs[None, :]
    vals = _ratio(*measure_moments(mu_g, sig_g, sig_g, 1.0), b_val, kappa)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best_val = float(vals[i, j])
    best = WorstCaseMeasure.point(float(mus[i]), float(sigs[j]))

    # two-point Bernoulli mixtures in sigma
    alphas = np.linspace(0.0, 1.0, resolution)
    vals2 = _ratio(*measure_moments(mu_g, k.sigma_minus, k.sigma_plus, alphas[None, :]),
                   b_val, kappa)
    i2, j2 = np.unravel_index(int(np.argmin(vals2)), vals2.shape)
    if float(vals2[i2, j2]) < best_val:
        best_val = float(vals2[i2, j2])
        best = WorstCaseMeasure(float(mus[i2]), k.sigma_minus, k.sigma_plus,
                                float(alphas[j2]))
    return BruteForceMin(best_val, best)

