"""Market model primitives: coefficient functions with constant tails, the
uncertainty rectangle, power utility, and grid specifications.

Coefficient functions are restricted to a parametric family (constant,
smooth-ramp, clamped piecewise-linear) with finite parameters.  Every member
is bounded with bounded derivative, is exactly constant outside [-N, N], and
takes its extreme values at its tails or knots.  So the constructors make the
standing assumptions true (bounded, flat-tailed, finite coefficients and
r >= 0), and the one assumption that couples the model to the rectangle,
b(y) + mu_minus >= 0 for every y, is checked exactly at b's tails and knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientFn",
    "MarketModel",
    "UncertaintyRectangle",
    "PowerUtility",
    "GridSpec",
    "default_y_radius",
    "ValidationIssue",
    "ValidationReport",
    "validate_assumptions",
]

@dataclass(frozen=True)
class CoefficientFn:
    """Scalar coefficient y -> f(y), constant outside [-N, N].

    kind:
      * "constant":       f == left == right everywhere
      * "smooth-ramp":    9th-degree (C^4) smoothstep from left (y <= -N) to
        right (y >= N)
      * "piecewise-linear-clamped": linear interpolation through knots inside
        (-N, N), clamped to the tail values outside
    """

    kind: str
    left: float
    right: float
    tail_radius: float = 1.0
    knots: tuple[tuple[float, float], ...] = ()

    # The ramp is the 9th-degree smoothstep: C^4 at the tail junctions, so the
    # solver's a-posteriori residual is not polluted by curvature jumps of the
    # PDE forcing at |y| = N.  Symmetric: f(0) = (left + right) / 2.

    def __post_init__(self):
        if self.kind not in ("constant", "smooth-ramp", "piecewise-linear-clamped"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if not all(map(math.isfinite, (self.left, self.right, self.tail_radius,
                                       *(v for knot in self.knots for v in knot)))):
            raise ValueError("coefficient parameters must be finite")
        if not self.tail_radius > 0:
            raise ValueError("tail_radius must be > 0")
        if self.kind == "constant" and self.left != self.right:
            raise ValueError("constant coefficient needs left == right")
        if self.kind == "piecewise-linear-clamped":
            ys = [k[0] for k in self.knots]
            if any(abs(y) >= self.tail_radius for y in ys):
                raise ValueError("knots must lie strictly inside (-N, N)")
            if sorted(ys) != ys or len(set(ys)) != len(ys):
                raise ValueError("knot locations must be strictly increasing")
        elif self.knots:
            raise ValueError(f"knots are only valid for piecewise-linear-clamped, not {self.kind}")

    @classmethod
    def constant(cls, value: float) -> "CoefficientFn":
        return cls("constant", float(value), float(value))

    @classmethod
    def ramp(cls, left: float, right: float, tail_radius: float) -> "CoefficientFn":
        return cls("smooth-ramp", float(left), float(right), float(tail_radius))

    @classmethod
    def piecewise(cls, left: float, right: float, tail_radius: float,
                  knots) -> "CoefficientFn":
        return cls("piecewise-linear-clamped", float(left), float(right),
                   float(tail_radius), tuple((float(a), float(b)) for a, b in knots))

    def _grid(self):
        n = self.tail_radius
        ys = [-n] + [k[0] for k in self.knots] + [n]
        vs = [self.left] + [k[1] for k in self.knots] + [self.right]
        return np.asarray(ys), np.asarray(vs)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            out = np.full_like(y, self.left)
        elif self.kind == "smooth-ramp":
            step = smoothstep(y, self.tail_radius)
            out = self.ramp_from(step, y, out=step)
        else:
            # np.interp returns the end values, which are the tails, at and
            # beyond the end points
            out = np.interp(y, *self._grid())
        return out if out.ndim else float(out)

    def ramp_from(self, step: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
        """The smooth ramp at y from its smoothstep there (smoothstep(y,
        tail_radius)): left + (right - left) step, with the exact tail
        values where |y| >= N, written into out (step itself may be out)."""
        left = self.left
        out = np.multiply(step, self.right - left, out=out)
        out += left
        # the polynomial rounds at z = 0 and 1; the tails are exact
        np.copyto(out, left, where=y <= -self.tail_radius)
        np.copyto(out, self.right, where=y >= self.tail_radius)
        return out


def smoothstep(y: np.ndarray, n: float) -> np.ndarray:
    """z**5 (126 + z (-420 + z (540 + z (-315 + 70 z)))) at z = clip((y + n)
    / 2n, 0, 1), as a new array, in place and in that expression's order:
    the 9th-degree smoothstep that every smooth ramp of tail radius n maps
    to its values (CoefficientFn.ramp_from).  MarketModel.coefficients_at
    forms it once for all the ramps of one radius."""
    z = np.add(y, n, out=np.empty_like(y))
    z /= 2.0 * n
    np.clip(z, 0.0, 1.0, out=z)
    out = np.multiply(70.0, z, out=np.empty_like(y))
    for c in (-315.0, 540.0, -420.0):
        out += c
        out *= z
    out += 126.0
    out *= np.power(z, 5, out=z)
    return out


@dataclass(frozen=True)
class MarketModel:
    """Coefficients of the traded/non-traded pair: excess drift b(y), the
    non-traded asset drift beta(y), short rate r(y) >= 0, correlation rho."""

    b: CoefficientFn
    beta: CoefficientFn
    r: CoefficientFn
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.r.left < 0 or self.r.right < 0 or any(v < 0 for _, v in self.r.knots):
            raise ValueError("short rate r must be nonnegative")

    @property
    def tail_radius(self) -> float:
        return max(self.b.tail_radius, self.beta.tail_radius, self.r.tail_radius)

    def coefficients_at(self, y: np.ndarray) -> list:
        """[b, beta, r] at y as the steppers read them: a constant as its
        float (None for 0.0 of either sign: a term left out), else a row with
        its call's bits; the ramps of one tail radius share one smoothstep,
        the last of them written into it."""
        fns = (self.b, self.beta, self.r)
        values = [None] * len(fns)
        ramps = {}
        for i, fn in enumerate(fns):
            if fn.kind == "smooth-ramp":
                ramps.setdefault(fn.tail_radius, []).append(i)
            elif fn.kind != "constant":
                values[i] = np.asarray(fn(y))
            elif fn.left:
                values[i] = fn.left
        for n, (*shared, last) in ramps.items():
            step = smoothstep(y, n)
            for i in shared:
                values[i] = fns[i].ramp_from(step, y)
            values[last] = fns[last].ramp_from(step, y, out=step)
        return values


@dataclass(frozen=True)
class UncertaintyRectangle:
    """Admissible (drift perturbation, volatility) set [mu-, mu+] x [sigma-, sigma+].

    sigma_minus must be strictly positive: the closed-form branch values divide
    by sigma_minus^2 and a zero lower bound degenerates the minimized ratio.
    """

    mu_minus: float
    mu_plus: float
    sigma_minus: float
    sigma_plus: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu_minus, self.mu_plus,
                                       self.sigma_minus, self.sigma_plus))):
            raise ValueError("rectangle bounds must be finite")
        if self.mu_minus > self.mu_plus:
            raise ValueError("mu_minus must be <= mu_plus")
        if not 0.0 < self.sigma_minus <= self.sigma_plus:
            raise ValueError("need 0 < sigma_minus <= sigma_plus")

    @property
    def sigma_mid(self) -> float:
        return 0.5 * (self.sigma_minus + self.sigma_plus)

    def contains(self, mu: float, sigma: float) -> bool:
        """Membership up to 1e-12, so a corner recomputed in floating point
        still counts as inside."""
        tol = 1e-12
        return (self.mu_minus - tol <= mu <= self.mu_plus + tol
                and self.sigma_minus - tol <= sigma <= self.sigma_plus + tol)


@dataclass(frozen=True)
class PowerUtility:
    """U(x) = x^q / q with q < 1, q != 0 (strictly increasing, strictly concave)."""

    q: float

    def __post_init__(self):
        if not math.isfinite(self.q) or not self.q < 1 or self.q == 0:
            raise ValueError("power utility needs a finite q < 1 and q != 0")


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid for the value-exponent PDE.

    horizon T with n_t levels (dt = T/(n_t-1)); y in [-y_radius, y_radius]
    with n_y nodes; theta is the implicitness weight of the diffusion term.
    """

    horizon: float
    n_t: int
    n_y: int
    y_radius: float
    theta: float = 0.5

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")
        if self.n_t < 2 or self.n_y < 3:
            raise ValueError("need n_t >= 2 and n_y >= 3")
        if not 0 < self.y_radius < math.inf:
            raise ValueError("y_radius must be finite and > 0")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    @property
    def dt(self) -> float:
        return self.horizon / (self.n_t - 1)

    @property
    def dy(self) -> float:
        return 2.0 * self.y_radius / (self.n_y - 1)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t)

    def y_nodes(self) -> np.ndarray:
        return np.linspace(-self.y_radius, self.y_radius, self.n_y)


def default_y_radius(m: MarketModel) -> float:
    """Computational radius N' = N + 2: tail data is exact only where the
    coefficients are constant, and the margin of 2 buffers the Dirichlet cut."""
    return m.tail_radius + 2.0


@dataclass(frozen=True)
class ValidationIssue:
    assumption: str
    witness_y: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.passed:
            return "all assumptions hold"
        lines = [f"{len(self.issues)} violation(s):"]
        for it in self.issues:
            lines.append(f"  {it.assumption} at y={it.witness_y:g}: {it.detail}")
        return "\n".join(lines)


def validate_assumptions(m: MarketModel, k: UncertaintyRectangle) -> ValidationReport:
    """Check A3, b(y) + mu_minus >= 0 for every y; a violation is returned as
    data, never raised.

    b takes its least value at a tail or a knot, so the check is exact there,
    with no tolerance (rounding aside: near its right tail the ramp's
    polynomial can pass the tail value by 1e-13 of the rise).  The other
    standing assumptions (bounded, flat-tailed, finite coefficients, r >= 0)
    hold for every model the constructors accept.
    """
    ys, vs = m.b._grid()
    i = int(np.argmin(vs))
    if vs[i] + k.mu_minus >= 0:
        return ValidationReport()
    y = float(ys[i])
    return ValidationReport((ValidationIssue(
        "A3", y, f"b({y:g}) + mu_minus = {vs[i] + k.mu_minus:g} < 0"),))
