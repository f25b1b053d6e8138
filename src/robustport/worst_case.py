"""Worst-case measures on the uncertainty rectangle.

Minimizes the ratio  ((b+mu, nu) + kappa*(sigma, nu))^2 / (sigma^2, nu)  over
probability measures nu on K = [mu-, mu+] x [sigma-, sigma+].  The minimizer
has one or two atoms: the drift component is a point, the volatility component
is Bernoulli on {sigma-, sigma+}, which pins the second moment to
(sigma^2, nu) = 2*sigma_M*(sigma, nu) - sigma-*sigma+.  With m± = b + mu± the
minimum is piecewise in kappa over five regions split at

    t1 = m+ sM / (s- (sM - s+)),   t2 = -m+/s-,   t3 = -m-/s+,
    t4 = m- sM / (s+ (sM - s-)),

with half-open (left-open, right-closed) region boundaries.  A brute-force
grid search over atoms and Bernoulli mixtures is provided as an independent
oracle.
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


@dataclass(frozen=True)
class WorstCaseMeasure:
    """One- or two-atom measure ((mu, sigma), weight) with cached moments."""

    atoms: tuple[tuple[tuple[float, float], float], ...]
    mean_mu: float
    mean_sigma: float
    mean_sigma_sq: float

    def __post_init__(self):
        if len(self.atoms) not in (1, 2):
            raise ValueError("measure must have one or two atoms")
        w = sum(wt for _, wt in self.atoms)
        if any(wt <= 0 for _, wt in self.atoms) or abs(w - 1.0) > 1e-12:
            raise ValueError("atom weights must be positive and sum to 1")

    @classmethod
    def from_atoms(cls, atoms) -> "WorstCaseMeasure":
        atoms = tuple(((float(mu), float(sig)), float(wt)) for (mu, sig), wt in atoms)
        mm = sum(wt * mu for (mu, _), wt in atoms)
        ms = sum(wt * sig for (_, sig), wt in atoms)
        ms2 = sum(wt * sig * sig for (_, sig), wt in atoms)
        return cls(atoms, mm, ms, ms2)

    @classmethod
    def point(cls, mu: float, sigma: float) -> "WorstCaseMeasure":
        return cls.from_atoms((((mu, sigma), 1.0),))

    @classmethod
    def bernoulli(cls, mu: float, sigma_lo: float, sigma_hi: float,
                  weight_lo: float) -> "WorstCaseMeasure":
        """Two atoms sharing mu with sigma in {sigma_lo, sigma_hi}; collapses
        to a point when the weight saturates or the volatilities coincide."""
        if weight_lo >= 1.0 - 1e-12 or sigma_lo == sigma_hi:
            return cls.point(mu, sigma_lo)
        if weight_lo <= 1e-12:
            return cls.point(mu, sigma_hi)
        return cls.from_atoms((((mu, sigma_lo), weight_lo),
                               ((mu, sigma_hi), 1.0 - weight_lo)))

    def moments(self) -> tuple[float, float, float]:
        return self.mean_mu, self.mean_sigma, self.mean_sigma_sq


class RatioMin(NamedTuple):
    measure: WorstCaseMeasure
    value: float
    branch: KappaBranch


def _thresholds(m_minus, m_plus, k: UncertaintyRectangle):
    """Region thresholds; accepts scalars or arrays for m±."""
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    if s_lo == s_hi:
        t1 = np.full_like(np.asarray(m_plus, dtype=float), -np.inf)
        t4 = np.full_like(np.asarray(m_minus, dtype=float), np.inf)
    else:
        t1 = m_plus * s_mid / (s_lo * (s_mid - s_hi))
        t4 = m_minus * s_mid / (s_hi * (s_mid - s_lo))
    t2 = -m_plus / s_lo
    t3 = -m_minus / s_hi
    return t1, t2, t3, t4


def branch_fields(b_vals, kappas, k: UncertaintyRectangle):
    """Vectorized five-branch minimizer.

    Returns a dict of arrays broadcast to the common shape of b_vals/kappas:
    value, code (BranchRegion integer code), atom_mu, sigma_a, sigma_b,
    weight_a.  Single-atom nodes have weight_a == 1 and sigma_b == sigma_a.
    """
    b = np.asarray(b_vals, dtype=float)
    kap = np.asarray(kappas, dtype=float)
    b, kap = np.broadcast_arrays(b, kap)
    shape = b.shape
    b, kap = b.ravel(), kap.ravel()
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    m_lo = b + k.mu_minus
    m_hi = b + k.mu_plus
    if not np.all(m_lo >= 0):  # NaN fails it too
        raise ValueError("precondition b + mu_minus >= 0 violated")

    if not np.all(np.isfinite(kap)):
        raise ValueError("kappa must be finite")
    t1, t2, t3, t4 = _thresholds(m_lo, m_hi, k)

    low = kap <= t1
    plus = (kap > t1) & (kap <= t2)
    zero = (kap > t2) & (kap <= t3)
    minus = (kap > t3) & (kap <= t4)
    high = kap > t4

    value = np.empty_like(kap)
    atom_mu = np.empty_like(kap)
    sigma_a = np.empty_like(kap)
    sigma_b = np.empty_like(kap)
    weight_a = np.ones_like(kap)
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
            value[mask] = km * (2.0 * ma * s_mid + km * prod) / s_mid**2
            atom_mu[mask] = k.mu_plus if region is BranchRegion.LOW_TAIL else k.mu_minus
            sigma_a[mask] = s_lo
            sigma_b[mask] = s_hi
            weight_a[mask] = alpha
            code[mask] = _REGION_CODE[region]

        if np.any(plus):
            km = kap[plus]
            value[plus] = (m_hi[plus] + km * s_lo) ** 2 / s_lo**2
            atom_mu[plus] = k.mu_plus
            sigma_a[plus] = s_lo
            sigma_b[plus] = s_lo
            code[plus] = _REGION_CODE[BranchRegion.PLUS_CORNER]

        if np.any(minus):
            km = kap[minus]
            value[minus] = (m_lo[minus] + km * s_hi) ** 2 / s_hi**2
            atom_mu[minus] = k.mu_minus
            sigma_a[minus] = s_hi
            sigma_b[minus] = s_hi
            code[minus] = _REGION_CODE[BranchRegion.MINUS_CORNER]

        if np.any(zero):
            # any atom on the line m + kappa*sigma = 0 kills the ratio; take the
            # midpoint of the feasible sigma interval for determinism
            km = kap[zero]
            neg = -km
            with np.errstate(divide="ignore"):
                lo_feas = np.where(neg > 0, np.maximum(s_lo, m_lo[zero] / neg), s_lo)
                hi_feas = np.where(neg > 0, np.minimum(s_hi, m_hi[zero] / neg), s_hi)
            sig_hat = 0.5 * (lo_feas + hi_feas)
            value[zero] = 0.0
            atom_mu[zero] = -km * sig_hat - b[zero]
            sigma_a[zero] = sig_hat
            sigma_b[zero] = sig_hat
            code[zero] = _REGION_CODE[BranchRegion.ZERO]

    return {
        "value": value.reshape(shape),
        "code": code.reshape(shape),
        "atom_mu": atom_mu.reshape(shape),
        "sigma_a": sigma_a.reshape(shape),
        "sigma_b": sigma_b.reshape(shape),
        "weight_a": weight_a.reshape(shape),
    }


def ratio_kernel(b_vals, k: UncertaintyRectangle):
    """The minimal ratio at fixed b, prepared for many kappas: returns
    values(kappas) = branch_fields(b_vals, kappas, k)["value"] bit for bit,
    without the measure fields, masks and scatters.

    The A3 check, m±, the region thresholds and the b-only terms are formed
    here once; values does only the kappa-dependent arithmetic, in
    branch_fields' operand order, evaluating each branch's value expression
    over every node and selecting by the same half-open regions.  b_vals and
    kappas broadcast (the residual passes 1-D b against 2-D kappa).

    Raises ValueError if b + mu_minus >= 0 fails (NaN included); values
    raises ValueError on a non-finite kappa.
    """
    b = np.asarray(b_vals, dtype=float)
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    m_lo = b + k.mu_minus
    m_hi = b + k.mu_plus
    if not (m_lo >= 0).all():  # NaN fails it too
        raise ValueError("precondition b + mu_minus >= 0 violated")
    t1, t2, t3, t4 = _thresholds(m_lo, m_hi, k)

    prod = s_lo * s_hi
    lin_hi = 2.0 * m_hi * s_mid
    lin_lo = 2.0 * m_lo * s_mid
    s_mid_sq, s_lo_sq, s_hi_sq = s_mid**2, s_lo**2, s_hi**2

    def values(kappas) -> np.ndarray:
        kap = np.asarray(kappas, dtype=float)
        if not np.isfinite(kap).all():
            raise ValueError("kappa must be finite")
        quad = kap * prod
        low = kap * (lin_hi + quad) / s_mid_sq
        high = kap * (lin_lo + quad) / s_mid_sq
        # np.square is what `array ** 2` runs; a numpy scalar's `** 2` calls
        # pow(), which can differ in the last bit
        plus = np.square(m_hi + kap * s_lo) / s_lo_sq
        minus = np.square(m_lo + kap * s_hi) / s_hi_sq
        return np.where(kap <= t1, low,
                        np.where(kap <= t2, plus,
                                 np.where(kap <= t3, 0.0,
                                          np.where(kap <= t4, minus, high))))

    return values


def min_ratio_values(b_vals, kappas, k: UncertaintyRectangle) -> np.ndarray:
    """Minimal ratio only: ratio_kernel(b_vals, k)(kappas).

    Why two kernels: the PDE operator prepares ratio_kernel once per solve
    and evaluates it on one row of a few hundred nodes per step, where
    numpy's per-call overhead is the cost, and its form issues no masks or
    scatters.  build_policy calls branch_fields once on the whole surface,
    where the work is the cost: branch_fields written in this
    select-every-branch form gives the same bits on the policy inputs of the
    benchmark's four ladder models at three levels and on random
    rectangles, but is 2.6-6.3x slower there (ramp model, 642,321 nodes:
    37 -> 149 ms on 2 CPUs), because one branch holds most nodes and every
    branch's six fields would be computed over all of them.
    """
    return ratio_kernel(b_vals, k)(kappas)


def minimize_ratio(b_val: float, kappa: float, k: UncertaintyRectangle) -> RatioMin:
    """Closed-form minimizer at a single (b, kappa): measure, value, branch."""
    f = branch_fields(np.asarray(b_val, dtype=float), np.asarray(kappa, dtype=float), k)
    region = _CODE_REGION[int(f["code"])]
    measure = WorstCaseMeasure.bernoulli(float(f["atom_mu"]), float(f["sigma_a"]),
                                         float(f["sigma_b"]), float(f["weight_a"]))
    m_lo = b_val + k.mu_minus
    m_hi = b_val + k.mu_plus
    t1, t2, t3, t4 = _thresholds(float(m_lo), float(m_hi), k)
    branch = KappaBranch(region, float(t1), float(t2), float(t3), float(t4))
    return RatioMin(measure, float(f["value"]), branch)


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
    if resolution < 10:
        raise ValueError("resolution must be >= 10")
    mus = np.linspace(k.mu_minus, k.mu_plus, resolution)
    sigs = np.linspace(k.sigma_minus, k.sigma_plus, resolution)

    # single atoms
    mu_g = mus[:, None]
    sig_g = sigs[None, :]
    vals = _ratio(mu_g, sig_g, sig_g**2, b_val, kappa)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best_val = float(vals[i, j])
    best = WorstCaseMeasure.point(float(mus[i]), float(sigs[j]))

    # two-point Bernoulli mixtures in sigma
    alphas = np.linspace(0.0, 1.0, resolution)
    a_g = alphas[None, :]
    msig = a_g * k.sigma_minus + (1.0 - a_g) * k.sigma_plus
    msig2 = a_g * k.sigma_minus**2 + (1.0 - a_g) * k.sigma_plus**2
    vals2 = _ratio(mu_g, msig, msig2, b_val, kappa)
    i2, j2 = np.unravel_index(int(np.argmin(vals2)), vals2.shape)
    if float(vals2[i2, j2]) < best_val:
        best_val = float(vals2[i2, j2])
        best = WorstCaseMeasure.bernoulli(float(mus[i2]), k.sigma_minus, k.sigma_plus,
                                          float(alphas[j2]))
    return BruteForceMin(best_val, best)

