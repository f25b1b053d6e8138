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
part (the A3 check b + mu- >= 0, m± and the thresholds, ordered and without
NaN), and `_walk` assigns each node its region, for the value and the measure
alike.  `ratio_kernel` owns the value: prepared once for fixed b, it
evaluates for many kappas the value expressions of only the regions that
occur (the PDE's hot path; `min_ratio_values` is its one-shot form).
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
from scipy.linalg.blas import ddot

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
# the codes by name: _CODE_REGION's keys run in BranchRegion's order
_LOW, _PLUS, _ZERO, _MINUS, _HIGH = _CODE_REGION


@dataclass(frozen=True)
class KappaBranch:
    """Which kappa-region the minimizer falls in, plus the region thresholds.

    For a degenerate rectangle (sigma_mid rounds onto sigma- or sigma+) the
    tail thresholds diverge and are reported as -inf/+inf.
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
    m± = b + mu±, as float arrays of b_vals' shape.  The thresholds are
    ordered, t1 <= t2 <= t3 <= t4, and hold no NaN, as _walk needs: t1 <= t2
    holds exactly and is restored where rounding crosses them (sigma- below
    about an ulp of sigma+), and a rectangle whose sigma_mid rounds onto
    sigma- or sigma+ is degenerate, with t1 = -inf and t4 = +inf.

    Raises ValueError unless b + mu_minus >= 0 (NaN fails it too).
    """
    b = np.asarray(b_vals, dtype=float)
    m_lo = b + k.mu_minus
    m_hi = b + k.mu_plus
    if not (m_lo >= 0).all():
        raise ValueError("precondition b + mu_minus >= 0 violated")
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    t2 = -m_hi / s_lo
    if s_mid in (s_lo, s_hi):
        t1 = np.full_like(m_hi, -np.inf)
        t4 = np.full_like(m_lo, np.inf)
    else:
        t1 = np.minimum(m_hi * s_mid / (s_lo * (s_mid - s_hi)), t2)
        t4 = m_lo * s_mid / (s_hi * (s_mid - s_lo))
    return b, m_lo, m_hi, (t1, t2, -m_lo / s_hi, t4)


def _walk(kap, ts) -> list:
    """The regions besides MINUS_CORNER that hold a node of kap, as (region
    code, mask) pairs in the order to write them over a MINUS_CORNER
    default: HIGH_TAIL where kappa > t4, then ZERO where kappa <= t3,
    PLUS_CORNER where kappa <= t2 and LOW_TAIL where kappa <= t1.  On
    _prepared's ordered thresholds each of the last three masks lies within
    the one before, so a node ends in the last region written over it, the
    first i with kappa <= t_i (left-open, right-closed regions)."""
    t1, t2, t3, t4 = ts
    # count_nonzero is the cheapest emptiness test of a mask
    walk = []
    mask = kap > t4
    if np.count_nonzero(mask):
        walk.append((_HIGH, mask))
    mask = kap <= t3
    if np.count_nonzero(mask):
        walk.append((_ZERO, mask))
        mask = kap <= t2
        if np.count_nonzero(mask):
            walk.append((_PLUS, mask))
            mask = kap <= t1
            if np.count_nonzero(mask):
                walk.append((_LOW, mask))
    return walk


# all_finite's zeros: one ddot call covers at most this many values
_ZEROS = np.zeros(1 << 12)
_ZEROS.setflags(write=False)


def all_finite(a: np.ndarray) -> bool:
    """Whether the float array a holds neither a NaN nor an infinity.

    0 * x summed is +-0 over finite x and NaN once an x is not: one BLAS
    ddot per 4096 values, without the boolean temporary of np.isfinite and
    without numpy's floating-point warnings."""
    flat = a.ravel()
    # f2py's ddot refuses an empty x, which the loop below passes over
    if 0 < flat.size <= _ZEROS.size:
        return ddot(flat, _ZEROS, flat.size) == 0.0
    return all(all_finite(flat[start:start + _ZEROS.size])
               for start in range(0, flat.size, _ZEROS.size))


def _finite(kappas) -> np.ndarray:
    kap = np.asarray(kappas, dtype=float)
    if not all_finite(kap):
        raise ValueError("kappa must be finite")
    return kap


def branch_fields(b_vals, kappas, k: UncertaintyRectangle):
    """The minimizing measure at every node.

    Returns a dict of arrays broadcast to the common shape of b_vals/kappas:
    code (BranchRegion integer code), atom_mu, sigma_a, sigma_b, weight_a.
    Single-atom nodes have weight_a == 1 and sigma_b == sigma_a.  Where every
    node is MINUS_CORNER, each array is a read-only broadcast of its one
    value (zero strides).  The value of the minimum is ratio_kernel's.
    """
    return _fields(_prepared(b_vals, k), kappas, k)


def _fields(prepared, kappas, k: UncertaintyRectangle):
    """branch_fields on the output of _prepared."""
    b, m_lo, m_hi, ts = prepared
    kap = _finite(kappas)
    b, m_lo, m_hi, kap = np.broadcast_arrays(b, m_lo, m_hi, kap)
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    walk = _walk(kap, ts)
    # the minus corner everywhere, then each region _walk finds over it; a
    # read-only broadcast of each value where it finds none
    code, atom_mu, sigma_a, sigma_b, weight_a = (
        np.full(kap.shape, v, dtype) if walk else np.broadcast_to(np.array(v, dtype), kap.shape)
        for v, dtype in ((_MINUS, np.int8), (k.mu_minus, float), (s_hi, float),
                         (s_hi, float), (1.0, float)))

    # a kappa near 0 can overflow m/kappa; the clips then take the edge of K
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for region, mask in walk:
            code[mask] = region
            km = kap[mask]
            if region == _PLUS:
                atom_mu[mask] = k.mu_plus
                sigma_a[mask] = sigma_b[mask] = s_lo
            elif region == _ZERO:
                # any atom on the line m + kappa*sigma = 0 kills the ratio;
                # take the midpoint of the feasible sigma interval
                neg = -km
                lo_feas = np.where(neg > 0, np.maximum(s_lo, m_lo[mask] / neg), s_lo)
                hi_feas = np.where(neg > 0, np.minimum(s_hi, m_hi[mask] / neg), s_hi)
                sig_hat = 0.5 * (lo_feas + hi_feas)
                atom_mu[mask] = -km * sig_hat - b[mask]
                sigma_a[mask] = sigma_b[mask] = sig_hat
            else:
                # a tail: Bernoulli volatility with target mean m/kappa +
                # s-s+/sM; km == 0 only reaches a tail when m == 0 (then any
                # mean yields 0).  Tails are empty on a degenerate rectangle.
                low = region == _LOW
                ma = (m_hi if low else m_lo)[mask]
                drift_term = np.where(km != 0.0, ma / np.where(km != 0.0, km, 1.0), 0.0)
                sbar = np.clip(drift_term + s_lo * s_hi / s_mid, s_lo, s_hi)
                atom_mu[mask] = k.mu_plus if low else k.mu_minus
                sigma_a[mask] = s_lo
                sigma_b[mask] = s_hi
                weight_a[mask] = (s_hi - sbar) / (s_hi - s_lo)

    return {"code": code, "atom_mu": atom_mu, "sigma_a": sigma_a,
            "sigma_b": sigma_b, "weight_a": weight_a}


def ratio_kernel(b_vals, k: UncertaintyRectangle):
    """The minimal ratio at fixed b, prepared for many kappas.

    The b-only terms are formed here once (after _prepared's A3 check);
    values(kappas, out=None) does only the kappa-dependent arithmetic: the
    minus-corner value over every node, then the value expression of each
    region _walk finds, written where its mask selects.  It writes into out
    (and returns it), or into a new array without one, and forms the region
    values in one scratch array that it keeps.  b_vals and kappas broadcast
    (the residual passes 1-D b against 2-D kappa).

    Raises ValueError if b + mu_minus >= 0 fails (NaN included); values
    raises ValueError on a non-finite kappa.
    """
    return _kernel(_prepared(b_vals, k), k)


def _kernel(prepared, k: UncertaintyRectangle):
    """ratio_kernel on the output of _prepared."""
    _, m_lo, m_hi, ts = prepared
    s_lo, s_hi, s_mid = k.sigma_minus, k.sigma_plus, k.sigma_mid
    prod = s_lo * s_hi
    lin_hi = 2.0 * m_hi * s_mid
    lin_lo = 2.0 * m_lo * s_mid
    s_mid_sq, s_lo_sq, s_hi_sq = s_mid**2, s_lo**2, s_hi**2
    # the scalars as 0-d arrays: a ufunc then takes them without converting
    # a Python float on each call, with the same bits
    s_lo, s_hi, prod, s_mid_sq, s_lo_sq, s_hi_sq = map(
        np.asarray, (s_lo, s_hi, prod, s_mid_sq, s_lo_sq, s_hi_sq))
    # the one scratch row of the region values, kept while out's shape holds
    held = np.empty(0)

    # each value expression written into x, in the operand order of
    # kap * (lin + kap * prod) / s_mid_sq and np.square(m + kap * s) / s_sq
    # (np.square is what `array ** 2` runs; a numpy scalar's `** 2` calls
    # pow(), which can differ in the last bit)
    def tail(kap, lin, x):
        np.multiply(kap, prod, out=x)
        x += lin
        x *= kap
        x /= s_mid_sq
        return x

    def corner(kap, m, s, s_sq, x):
        np.multiply(kap, s, out=x)
        x += m
        np.square(x, out=x)
        x /= s_sq
        return x

    branch_values = {
        _HIGH: lambda kap, x: tail(kap, lin_lo, x),
        _ZERO: lambda kap, x: 0.0,
        _PLUS: lambda kap, x: corner(kap, m_hi, s_lo, s_lo_sq, x),
        _LOW: lambda kap, x: tail(kap, lin_hi, x),
    }

    def values(kappas, out: np.ndarray | None = None) -> np.ndarray:
        nonlocal held
        kap = _finite(kappas)
        if out is None:
            out = np.empty(np.broadcast_shapes(m_lo.shape, kap.shape))
        if held.shape != out.shape:
            held = np.empty_like(out)
        corner(kap, m_lo, s_hi, s_hi_sq, out)
        for region, mask in _walk(kap, ts):
            np.copyto(out, branch_values[region](kap, held), where=mask)
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

