"""Executable policy fields extracted from a solved value surface.

Per grid node the adversary's worst-case measure is the ratio minimizer at
kappa = rho * u_y(t, y), and the optimal portfolio fraction (of wealth) is

    pi_frac = 1/(1-q) * [ (b(y) + (mu, nu*)) + rho (sigma, nu*) u_y ] / (sigma^2, nu*).

pi_frac is interpolated bilinearly in (t, y); measures are looked up at the
nearest node (they are not interpolable without leaving the two-atom family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle
from .pde import ValueSurface, _bilinear
from .worst_case import branch_fields

__all__ = ["PolicyField", "build_policy", "value_function"]


@dataclass(frozen=True)
class PolicyField:
    """Per-node worst-case measure data and optimal fraction on the PDE grid.

    Atom arrays describe the measure at each node: atoms (atom_mu, sigma_a)
    with weight weight_a and (atom_mu, sigma_b) with 1 - weight_a (single-atom
    nodes have weight_a == 1).  Moment arrays are the cached measure moments.
    """

    t: np.ndarray
    y: np.ndarray
    pi_frac: np.ndarray
    mu_mean: np.ndarray
    sigma_mean: np.ndarray
    sigma_sq_mean: np.ndarray
    atom_mu: np.ndarray
    sigma_a: np.ndarray
    sigma_b: np.ndarray
    weight_a: np.ndarray
    branch_code: np.ndarray
    q: float

    def __post_init__(self):
        for arr in (self.t, self.y, self.pi_frac, self.mu_mean, self.sigma_mean,
                    self.sigma_sq_mean, self.atom_mu, self.sigma_a, self.sigma_b,
                    self.weight_a, self.branch_code):
            arr.setflags(write=False)

    def fraction_at(self, t: float, y) -> np.ndarray:
        """Bilinear interpolation of pi_frac; clamped to the grid hull."""
        return _bilinear(self.t, self.y, self.pi_frac, t, y)

    def node_index(self, t: float, y) -> tuple[int, np.ndarray]:
        dt = self.t[1] - self.t[0] if len(self.t) > 1 else 1.0
        dy = self.y[1] - self.y[0] if len(self.y) > 1 else 1.0
        it = int(np.clip(round((float(t) - self.t[0]) / dt), 0, len(self.t) - 1))
        jy = np.clip(np.rint((np.asarray(y, dtype=float) - self.y[0]) / dy).astype(int),
                     0, len(self.y) - 1)
        return it, jy

    def moments_at(self, t: float, y):
        """Nearest-node measure moments (mu, sigma, sigma^2)."""
        it, jy = self.node_index(t, y)
        return (self.mu_mean[it, jy], self.sigma_mean[it, jy],
                self.sigma_sq_mean[it, jy])

    def atoms_at(self, t: float, y):
        """Nearest-node atom data (atom_mu, sigma_a, sigma_b, weight_a)."""
        it, jy = self.node_index(t, y)
        return (self.atom_mu[it, jy], self.sigma_a[it, jy],
                self.sigma_b[it, jy], self.weight_a[it, jy])


def build_policy(s: ValueSurface, m: MarketModel, k: UncertaintyRectangle,
                 util: PowerUtility) -> PolicyField:
    """Evaluate the worst-case measure and optimal fraction at every node."""
    q = util.q
    b_vec = np.asarray(m.b(s.y))
    fields = branch_fields(b_vec[None, :], m.rho * s.u_y, k)
    mu_mean = fields["atom_mu"]
    sigma_mean = fields["weight_a"] * fields["sigma_a"] + (1.0 - fields["weight_a"]) * fields["sigma_b"]
    sigma_sq_mean = (fields["weight_a"] * fields["sigma_a"] ** 2
                     + (1.0 - fields["weight_a"]) * fields["sigma_b"] ** 2)
    pi_frac = ((b_vec[None, :] + mu_mean) + m.rho * sigma_mean * s.u_y) / (
        (1.0 - q) * sigma_sq_mean)
    if not np.all(np.isfinite(pi_frac)):
        raise ValueError("non-finite policy fraction; check the solved surface")
    return PolicyField(
        t=s.t.copy(), y=s.y.copy(), pi_frac=pi_frac,
        mu_mean=mu_mean, sigma_mean=sigma_mean, sigma_sq_mean=sigma_sq_mean,
        atom_mu=fields["atom_mu"], sigma_a=fields["sigma_a"],
        sigma_b=fields["sigma_b"], weight_a=fields["weight_a"],
        branch_code=fields["code"], q=q)


def value_function(s: ValueSurface, t: float, x: float, y: float, q: float) -> float:
    """v(t, x, y) = x^q/q * exp(u(t, y)) with u interpolated bilinearly."""
    if x <= 0:
        raise ValueError("wealth x must be positive")
    return x**q / q * float(np.exp(s.interp_u(t, np.asarray([y]))[0]))
