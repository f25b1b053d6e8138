"""Executable policy fields extracted from a solved value surface.

Per grid node the adversary's worst-case measure is the ratio minimizer at
kappa = rho * u_y(t, y), and the optimal portfolio fraction (of wealth) is

    pi_frac = 1/(1-q) * [ (b(y) + (mu, nu*)) + rho (sigma, nu*) u_y ] / (sigma^2, nu*).

The measure is stored once, as branch_fields' four numbers per node, and a
surface keeps one number per node only where its values differ: a surface
whose bits are equal at every node (on a market where nu* is one corner of
K everywhere, all four atoms and the branch code) is a read-only broadcast
of its one value, zero strides over the grid's shape.  Where all four atoms
are one value, the moments are formed once from those values and lookups
return them without touching the grid.  pi_frac is interpolated bilinearly
in (t, y); measures are looked up at the nearest node (they are not
interpolable without leaving the two-atom family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketModel, PowerUtility, UncertaintyRectangle
from .pde import ValueSurface, _bilinear
from .worst_case import branch_fields, measure_moments

__all__ = ["PolicyField", "build_policy", "value_function"]


def _one_valued(a: np.ndarray) -> np.ndarray:
    """a, or where all of a holds one bit pattern, a read-only broadcast of
    that value: a's shape and dtype, zero strides, the same bits.  Bits are
    compared, not values, so a surface that mixes -0.0 and 0.0 stays full."""
    bits = a.view(f"u{a.itemsize}")
    return np.broadcast_to(a.flat[0], a.shape) if bits.min() == bits.max() else a


def _one_node(atoms):
    """The single values of the atom surfaces where each is stored as one
    value (zero strides): the measure is one node everywhere.  Else None."""
    if any(any(a.strides) for a in atoms):
        return None
    return tuple(a.flat[0] for a in atoms)


@dataclass(frozen=True)
class PolicyField:
    """Per-node worst-case measure and optimal fraction on the PDE grid.

    At each node the measure has atoms (atom_mu, sigma_a) with weight weight_a
    and (atom_mu, sigma_b) with 1 - weight_a; mu_mean, sigma_mean and
    sigma_sq_mean are its moment surfaces, formed by measure_moments on read
    (once, and broadcast, where the atoms are each one value).
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

    @property
    def _atoms(self):
        return self.atom_mu, self.sigma_a, self.sigma_b, self.weight_a

    @property
    def one_node(self):
        """(atom_mu, sigma_a, sigma_b, weight_a) as single values where the
        measure is stored as one node everywhere (each atom surface a
        broadcast of one value), else None."""
        return _one_node(self._atoms)

    def _moment_surface(self, n: int) -> np.ndarray:
        node = self.one_node
        if node is None:
            return measure_moments(*self._atoms)[n]
        return np.broadcast_to(measure_moments(*node)[n], self.atom_mu.shape)

    mu_mean = property(lambda self: self.atom_mu)  # measure_moments returns mu as is
    sigma_mean = property(lambda self: self._moment_surface(1))
    sigma_sq_mean = property(lambda self: self._moment_surface(2))

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
        """Nearest-node measure moments (mu, sigma, sigma^2), formed on the
        row; scalars where the measure is one node everywhere."""
        node = self.one_node
        if node is not None:
            return measure_moments(*node)
        it, jy = self.node_index(t, y)
        return tuple(m[jy] for m in measure_moments(*(a[it] for a in self._atoms)))

    def atoms_at(self, t: float, y):
        """Nearest-node atom data (atom_mu, sigma_a, sigma_b, weight_a);
        scalars where the measure is one node everywhere."""
        node = self.one_node
        if node is not None:
            return node
        it, jy = self.node_index(t, y)
        return tuple(a[it, jy] for a in self._atoms)


def build_policy(s: ValueSurface, m: MarketModel, k: UncertaintyRectangle,
                 util: PowerUtility) -> PolicyField:
    """Evaluate the worst-case measure and optimal fraction at every node.
    The four atom surfaces and the codes are stored through _one_valued."""
    q = util.q
    b_vec = np.asarray(m.b(s.y))
    fields = branch_fields(b_vec[None, :], m.rho * s.u_y, k)
    atoms = tuple(_one_valued(fields.pop(name))
                  for name in ("atom_mu", "sigma_a", "sigma_b", "weight_a"))
    code = _one_valued(fields.pop("code"))
    mu_mean, sigma_mean, sigma_sq_mean = measure_moments(*(_one_node(atoms) or atoms))
    pi_frac = ((b_vec[None, :] + mu_mean) + m.rho * sigma_mean * s.u_y) / (
        (1.0 - q) * sigma_sq_mean)
    if not np.all(np.isfinite(pi_frac)):
        raise ValueError("non-finite policy fraction; check the solved surface")
    return PolicyField(t=s.t.copy(), y=s.y.copy(), pi_frac=pi_frac, atom_mu=atoms[0],
                       sigma_a=atoms[1], sigma_b=atoms[2], weight_a=atoms[3],
                       branch_code=code, q=q)


def value_function(s: ValueSurface, t: float, x: float, y: float, q: float) -> float:
    """v(t, x, y) = x^q/q * exp(u(t, y)) with u interpolated bilinearly."""
    if x <= 0:
        raise ValueError("wealth x must be positive")
    return x**q / q * float(np.exp(s.interp_u(t, np.asarray([y]))[0]))
