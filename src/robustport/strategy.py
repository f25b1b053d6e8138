"""Executable policy fields extracted from a solved value surface.

Per grid node the adversary's worst-case measure is the ratio minimizer at
kappa = rho * u_y(t, y), and the optimal portfolio fraction (of wealth) is

    pi_frac = 1/(1-q) * [ (b(y) + (mu, nu*)) + rho (sigma, nu*) u_y ] / (sigma^2, nu*).

The measure is stored once, as branch_fields' four numbers per node.  pi_frac
is interpolated bilinearly in (t, y); measures are looked up at the nearest
node (they are not interpolable without leaving the two-atom family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle
from .pde import ValueSurface, _bilinear
from .worst_case import branch_fields, measure_moments

__all__ = ["PolicyField", "build_policy", "value_function"]


@dataclass(frozen=True)
class PolicyField:
    """Per-node worst-case measure and optimal fraction on the PDE grid.

    At each node the measure has atoms (atom_mu, sigma_a) with weight weight_a
    and (atom_mu, sigma_b) with 1 - weight_a; mu_mean, sigma_mean and
    sigma_sq_mean are its moment surfaces, formed by measure_moments on read.
    """

    t: np.ndarray
    y: np.ndarray
    pi_frac: np.ndarray
    atom_mu: np.ndarray
    sigma_a: np.ndarray
    sigma_b: np.ndarray
    weight_a: np.ndarray
    branch_code: np.ndarray
    q: float

    def __post_init__(self):
        for arr in (self.t, self.y, self.pi_frac, self.atom_mu, self.sigma_a,
                    self.sigma_b, self.weight_a, self.branch_code):
            arr.setflags(write=False)

    def _moments(self, it=slice(None)):
        return measure_moments(self.atom_mu[it], self.sigma_a[it], self.sigma_b[it],
                               self.weight_a[it])

    mu_mean = property(lambda self: self.atom_mu)  # measure_moments returns mu as is
    sigma_mean = property(lambda self: self._moments()[1])
    sigma_sq_mean = property(lambda self: self._moments()[2])

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
        """Nearest-node measure moments (mu, sigma, sigma^2), formed on the row."""
        it, jy = self.node_index(t, y)
        return tuple(m[jy] for m in self._moments(it))

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
    mu_mean, sigma_mean, sigma_sq_mean = measure_moments(
        fields["atom_mu"], fields["sigma_a"], fields["sigma_b"], fields["weight_a"])
    pi_frac = ((b_vec[None, :] + mu_mean) + m.rho * sigma_mean * s.u_y) / (
        (1.0 - q) * sigma_sq_mean)
    if not np.all(np.isfinite(pi_frac)):
        raise ValueError("non-finite policy fraction; check the solved surface")
    return PolicyField(
        t=s.t.copy(), y=s.y.copy(), pi_frac=pi_frac,
        atom_mu=fields["atom_mu"], sigma_a=fields["sigma_a"],
        sigma_b=fields["sigma_b"], weight_a=fields["weight_a"],
        branch_code=fields["code"], q=q)


def value_function(s: ValueSurface, t: float, x: float, y: float, q: float) -> float:
    """v(t, x, y) = x^q/q * exp(u(t, y)) with u interpolated bilinearly."""
    if x <= 0:
        raise ValueError("wealth x must be positive")
    return x**q / q * float(np.exp(s.interp_u(t, np.asarray([y]))[0]))
