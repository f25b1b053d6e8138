"""Correctness checks for the benchmark, written without robustport.

Every check takes plain numbers or arrays (read from the program's outputs)
and returns a list of problems; an empty list means the output passed.  The
references are either closed forms of the flat model, properties the method
must have (second-order convergence, a saddle at every node), or a grid
search over the rectangle K written here.
"""

from __future__ import annotations

import math
import re

import numpy as np

# shrink factor of successive u(0, .) differences that a second-order scheme
# must reach (about 4 is measured on the smooth models)
MIN_SHRINK = 3.0
# share of interior coarse nodes allowed below MIN_SHRINK (sign changes of
# the differences make single nodes erratic)
SHRINK_QUANTILE = 0.10


def ladder_problems(u0_levels, residuals) -> list[str]:
    """Refinement ladder: each level halves dt and dy of the one before.

    u0_levels[l] is u(0, .) on level l's y-grid; residuals[l] is the solver's
    a-posteriori residual on that level.  Successive differences of u(0, .),
    taken on the coarsest nodes, must shrink by MIN_SHRINK per level, in the
    max norm and at all but SHRINK_QUANTILE of the interior nodes, and the
    residual must fall at every level.
    """
    problems = []
    coarse = [np.asarray(u)[:: 2**lev] for lev, u in enumerate(u0_levels)]
    n = len(coarse[0])
    if any(len(c) != n for c in coarse):
        return ["levels do not refine the coarse grid by halving dy"]
    diffs = [np.abs(b - a) for a, b in zip(coarse, coarse[1:])]
    for lev in range(1, len(diffs)):
        prev, cur = diffs[lev - 1], diffs[lev]
        factor = float(np.max(prev)) / max(float(np.max(cur)), 1e-300)
        if not factor >= MIN_SHRINK:
            problems.append(f"max|du| shrinks x{factor:.3g} from level {lev} to "
                            f"{lev + 1} (need >= {MIN_SHRINK:g})")
        with np.errstate(divide="ignore", invalid="ignore"):
            node = np.where(cur[1:-1] > 0, prev[1:-1] / cur[1:-1], np.inf)
        low = float(np.quantile(node, SHRINK_QUANTILE))
        if not low >= MIN_SHRINK:
            problems.append(f"pointwise shrink factor at the {SHRINK_QUANTILE:.0%} "
                            f"quantile is x{low:.3g} from level {lev} to {lev + 1}")
    for lev in range(1, len(residuals)):
        if not residuals[lev] < residuals[lev - 1]:
            problems.append(f"residual does not fall: {residuals[lev - 1]:.3g} -> "
                            f"{residuals[lev]:.3g} at level {lev}")
    return problems


def measure_ratio(b, kappa, mu_mean, sigma_mean, sigma_sq_mean):
    """((b + mu) + kappa (sigma, nu))^2 / (sigma^2, nu) at given moments."""
    return (b + mu_mean + kappa * sigma_mean) ** 2 / sigma_sq_mean


def grid_min_ratio(b, kappa, rect, n: int = 401):
    """Grid search of the minimal ratio over measures on K, per node.

    For a fixed mean volatility s the largest second moment on [s-, s+] is
    the Bernoulli one, 2 sM s - s- s+, so the search runs over the mean drift
    mu and the mean volatility s on an n x n grid that includes the corners.
    """
    mu_lo, mu_hi, s_lo, s_hi = rect
    mus = np.linspace(mu_lo, mu_hi, n)[:, None]
    ss = np.linspace(s_lo, s_hi, n)[None, :]
    second = (s_lo + s_hi) * ss - s_lo * s_hi
    return np.array([float(np.min((bv + mus + kv * ss) ** 2 / second))
                     for bv, kv in zip(np.ravel(b), np.ravel(kappa))])


def corner_min_gain(b, kappa, q: float, rect, pi_frac):
    """min over atoms of K of the investor's gain
    G(f; mu, s) = f (b + mu + kappa s) - (1-q)/2 f^2 s^2.

    G is linear in the measure, linear in mu and concave in s, so its minimum
    over K sits at one of the four corners.
    """
    mu_lo, mu_hi, s_lo, s_hi = rect
    f = np.asarray(pi_frac, dtype=float)
    gains = [f * (b + mu + kappa * s) - 0.5 * (1.0 - q) * f * f * s * s
             for mu in (mu_lo, mu_hi) for s in (s_lo, s_hi)]
    return np.min(gains, axis=0)


def node_saddle_problems(b, kappa, q: float, rect, mu_mean, sigma_mean,
                         sigma_sq_mean, pi_frac, label: str = "") -> list[str]:
    """At sampled nodes: the policy's measure attains the grid minimum of the
    ratio, and its fraction is the investor's saddle strategy against it.

    The fraction check uses max_f min_nu G = min_nu max_f G = R/(2(1-q)), where
    R is the minimal ratio: a fraction off the saddle loses (1-q)/2 s^2 df^2.
    """
    problems = []
    ratio = measure_ratio(b, kappa, mu_mean, sigma_mean, sigma_sq_mean)
    grid = grid_min_ratio(b, kappa, rect)
    # the policy claims the exact minimum: never above any grid point, and
    # below the grid minimum by no more than the grid spacing allows; a
    # non-finite ratio fails (every comparison with NaN is False)
    above = ratio - grid > 1e-12 + 1e-9 * np.abs(grid)
    below = grid - ratio > 1e-6 + 1e-3 * np.abs(grid)
    bad = above | below | ~np.isfinite(ratio)
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"{label}worst-case ratio {ratio[i]:.10g} vs grid search "
                        f"{grid[i]:.10g} at sampled node {i}")
    gain = corner_min_gain(b, kappa, q, rect, pi_frac)
    target = ratio / (2.0 * (1.0 - q))
    off = ~(np.abs(gain - target) <= 1e-10 * (1.0 + np.abs(target)))
    if np.any(off):
        i = int(np.argmax(off))
        problems.append(f"{label}fraction {pi_frac[i]:.10g} is not the saddle "
                        f"strategy: min gain {gain[i]:.10g} vs {target[i]:.10g}")
    return problems


def regime_shares(b, kappa, rect, atom_mu, sigma_a, sigma_b, weight_a) -> dict:
    """Shares of nodes by the shape of their worst-case measure.

    minus-corner: one atom at (mu-, s+); high-tail: two atoms at mu- on
    {s-, s+} with a weight strictly inside (0, 1); zero: a measure that makes
    b + mu + kappa sigma vanish.
    """
    mu_lo, _, s_lo, s_hi = rect
    single = (weight_a >= 1.0 - 1e-12) | (sigma_a == sigma_b)
    mean_s = weight_a * sigma_a + (1.0 - weight_a) * sigma_b
    drift = b + atom_mu + kappa * mean_s
    zero = np.abs(drift) <= 1e-12 * (1.0 + np.abs(b) + np.abs(kappa))
    corner = single & (atom_mu == mu_lo) & (sigma_a == s_hi) & ~zero
    tail = (~single & (atom_mu == mu_lo) & (sigma_a == s_lo) & (sigma_b == s_hi)
            & (weight_a > 0.0) & (weight_a < 1.0))
    n = float(np.size(weight_a))
    return {"minus-corner": float(np.sum(corner)) / n,
            "high-tail": float(np.sum(tail)) / n,
            "zero": float(np.sum(zero)) / n}


def regime_problems(shares: dict, regime: str, min_share: float,
                    label: str = "") -> list[str]:
    if shares[regime] >= min_share:
        return []
    return [f"{label}{regime} share {shares[regime]:.3f} < {min_share:g} "
            f"(shares {shares})"]


def flat_u(t, q: float, horizon: float, mu_minus: float, sigma_plus: float):
    """Flat model (b = beta = r = 0): u(t) = q (T-t) mu-^2 / (2 (1-q) s+^2)."""
    return q * (horizon - np.asarray(t, dtype=float)) * mu_minus**2 / (
        2.0 * (1.0 - q) * sigma_plus**2)


def flat_fraction(q: float, mu_minus: float, sigma_plus: float) -> float:
    return mu_minus / ((1.0 - q) * sigma_plus**2)


def lognormal_eu(q: float, x0: float, frac: float, mu: float, sigma: float,
                 horizon: float) -> float:
    """E[X_T^q / q] for a constant fraction against a constant (mu, sigma) with
    zero rate: ln X_T is normal with mean (f mu - f^2 s^2/2) T, variance f^2 s^2 T."""
    mean = (frac * mu - 0.5 * frac**2 * sigma**2) * horizon
    var = frac**2 * sigma**2 * horizon
    return x0**q / q * math.exp(q * mean + 0.5 * q * q * var)


def surface_problems(t, u, u_y, q, horizon, mu_minus, sigma_plus,
                     tol: float = 1e-9) -> list[str]:
    """Every node of a flat-model surface matches the closed form, which is
    flat in y."""
    u, u_y = np.asarray(u), np.asarray(u_y)
    if u.size == 0:
        return ["surface is empty"]
    err = float(np.max(np.abs(u - flat_u(t, q, horizon, mu_minus, sigma_plus))))
    slope = float(np.max(np.abs(u_y)))
    problems = []
    if not err <= tol:
        problems.append(f"u deviates from the closed form by {err:.3g}")
    if not slope <= tol:
        problems.append(f"u_y deviates from 0 by {slope:.3g}")
    return problems


def fraction_problems(pi_frac, expected: float, tol: float = 1e-9) -> list[str]:
    pi_frac = np.asarray(pi_frac, dtype=float)
    if pi_frac.size == 0:
        return ["policy is empty"]
    worst = float(np.max(np.abs(pi_frac - expected)))
    return [] if worst <= tol else [f"pi_frac deviates from {expected:.10g} by {worst:.3g}"]


def eu_problems(eu: float, se: float, reference: float, n_se: float,
                slack: float = 0.0, label: str = "") -> list[str]:
    if abs(eu - reference) <= n_se * se + slack:
        return []
    return [f"{label}EU {eu:.8g} is {abs(eu - reference):.3g} from {reference:.8g} "
            f"(allowed {n_se:g} SE = {n_se * se:.3g} + {slack:g})"]


_POINT = re.compile(r"^point\(([^,]+),([^)]+)\)$")


def corner_rows(rows, rect) -> dict:
    """Pick the adversary rows at the four corners of K from a verify report
    (rows of kind, label, eu, se) by the point in their label."""
    mu_lo, mu_hi, s_lo, s_hi = rect
    corners = {}
    for kind, label, eu, se in rows:
        m = _POINT.match(label)
        if kind != "adversary" or m is None:
            continue
        mu, sig = float(m.group(1)), float(m.group(2))
        for cm in (mu_lo, mu_hi):
            for cs in (s_lo, s_hi):
                if math.isclose(mu, cm, rel_tol=1e-5) and math.isclose(sig, cs, rel_tol=1e-5):
                    corners[(cm, cs)] = (float(eu), float(se))
    return corners
