"""Backward IMEX solver for the value-exponent PDE.

The power-utility value separates as v(t,x,y) = (1/q) x^q e^{u(t,y)} where u
solves, backward from u(T, .) = 0,

    u_t + 1/2 u_yy + H(y, u_y) = 0,
    H(y, p) = beta(y) p + 1/2 p^2 + q r(y)
              + q/(2(1-q)) * min_K (b(y) + mu + rho sigma p)^2 / (2 sM sigma - s- s+).

Note the factor q on the min term: it comes out of the e^{u} ansatz (the
quadratic term scales with v_x^2 / (v v_xx) = q/(q-1)); dropping it is
inconsistent with the flat-coefficient closed form and the Monte-Carlo value
(see tests).  H is written once (`_operator`) and prepared once per solve:
its y-only terms, with the b-only parts of the min term
(`worst_case.ratio_kernel`), are formed before the time loop.  The stepper
and the boundary data evaluate it; the residual of a solve reuses the
predictor's H rows (H lagged at each level, the same values bit for bit), so
H is formed once per time level.  Diffusion is treated
theta-implicitly (one LAPACK dgtsv tridiagonal solve for the predictor and
one for the corrector per step); H is explicit: a lagged predictor from the
later-time level plus one trapezoidal correction (second order in time at
theta = 1/2, no Newton iterations on the nonsmooth min term).  Boundary data
at +-y_radius are the flat-tail solutions u = (T - t) H(+-y_radius, 0): H at
u_y = 0 on constant coefficients, hence y_radius >= tail radius N (default
N + 2 for margin).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .model import (GridSpec, MarketModel, PowerUtility, UncertaintyRectangle,
                    validate_assumptions)
from .worst_case import ratio_kernel

# not called: bench/tracing.py wraps pde.min_ratio_values and pde.solve_banded
# by name, so both must resolve here
from scipy.linalg import solve_banded  # noqa: F401
from .worst_case import min_ratio_values  # noqa: F401

__all__ = [
    "SolverError",
    "SolveDiagnostics",
    "ValueSurface",
    "solve_hjbi",
    "residual_norm",
]

_CFL_EPS = 1e-2


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveDiagnostics:
    time_steps: int
    max_abs_u: float
    max_abs_u_y: float
    max_advection_cfl: float
    max_residual: float


@dataclass(frozen=True)
class ValueSurface:
    """Grid solution u(t_i, y_j) with its discrete y-derivative.

    u has shape (n_t, n_y); row -1 is the terminal level (all zeros), columns
    0 / -1 carry the tail Dirichlet data.  u_y uses central differences inside
    and one-sided second-order stencils at the boundary columns.
    """

    grid: GridSpec
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    u_y: np.ndarray
    diagnostics: SolveDiagnostics | None = None

    def __post_init__(self):
        for arr in (self.t, self.y, self.u, self.u_y):
            arr.setflags(write=False)

    @classmethod
    def from_u(cls, grid: GridSpec, u: np.ndarray) -> "ValueSurface":
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.n_t, grid.n_y):
            raise ValueError(f"u must have shape {(grid.n_t, grid.n_y)}")
        return cls(grid, grid.t_nodes(), grid.y_nodes(), u, _d_dy(u, grid.dy))

    def interp_u(self, t: float, y) -> np.ndarray:
        """Bilinear interpolation of u at (t, y); clamped to the grid hull."""
        return _bilinear(self.t, self.y, self.u, t, y)


def _d_dy(u: np.ndarray, dy: float) -> np.ndarray:
    """Central differences inside, second-order one-sided at the edges."""
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dy)
    out[..., 0] = (-3.0 * u[..., 0] + 4.0 * u[..., 1] - u[..., 2]) / (2.0 * dy)
    out[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dy)
    return out


def _bilinear(t_nodes: np.ndarray, y_nodes: np.ndarray, values: np.ndarray,
              t: float, y) -> np.ndarray:
    """Linear in t between the two bracketing rows, then linear in y;
    clamped to the grid hull.

    y_nodes must be evenly spaced (GridSpec.y_nodes()).  The y-step is then
    np.interp(y, y_nodes, row) bit for bit on a finite row, with the bracket
    found from the spacing instead of by np.interp's binary search."""
    t = min(max(float(t), t_nodes[0]), t_nodes[-1])
    i0 = int(np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, len(t_nodes) - 2))
    w = (t - t_nodes[i0]) / (t_nodes[i0 + 1] - t_nodes[i0])
    row = (1.0 - w) * values[i0] + w * values[i0 + 1]

    # each temporary is dropped once used: the path engine calls this with a
    # batch of 65536 points per step
    y = np.asarray(y, dtype=float)
    shape = y.shape
    y = np.clip(y.ravel(), y_nodes[0], y_nodes[-1])
    last = len(y_nodes) - 2
    # the floor of the index from the spacing (a NaN lands on `last`), then
    # one correction against the nodes: y_nodes[j] <= y < y_nodes[j + 1]
    s = y - y_nodes[0]
    s /= (y_nodes[-1] - y_nodes[0]) / (last + 1)
    j = np.fmin(s, last, out=s).astype(np.intp)
    del s
    j -= y < y_nodes[j]
    j += y >= y_nodes[j + 1]
    # np.interp's formula slope[j] * (y - y_nodes[j]) + row[j], except on a
    # node (also a clamped y), where it returns the node's value; the
    # trailing 0 slope serves y == y_nodes[-1]
    y_j = y_nodes[j]
    on_node = y == y_j
    y -= y_j
    del y_j
    out = np.append((row[1:] - row[:-1]) / (y_nodes[1:] - y_nodes[:-1]), 0.0)[j]
    out *= y
    del y
    row_j = row[j]
    out += row_j
    np.copyto(out, row_j, where=on_node)
    return out.reshape(shape)


def checked_b(m: MarketModel, k: UncertaintyRectangle, y: np.ndarray) -> np.ndarray:
    """b at the nodes y, where A3 (b + mu_minus >= 0) must hold as evaluated:
    validate_assumptions checks it exactly at b's tails and knots, but a
    ramp's polynomial can round past its tail value between them.

    Raises SolverError naming the first node where b + mu_minus < 0."""
    b = np.asarray(m.b(y))
    m_lo = b + k.mu_minus
    if np.any(m_lo < 0):
        j = int(np.argmax(m_lo < 0))
        raise SolverError(f"precondition b + mu_minus >= 0 violated at y = {y[j]:.9g}: "
                          f"b(y) + mu_minus = {m_lo[j]:.3g}")
    return b


def _operator(m: MarketModel, k: UncertaintyRectangle, q: float, y: np.ndarray):
    """H(y, .) at the nodes y: u_y -> beta u_y + u_y^2/2 + q r
    + q/(2(1-q)) min_ratio(b, rho u_y).  u_y may carry leading axes.
    Everything that depends on y alone is formed here, once per solve.

    Raises SolverError naming the first node where b + mu_minus < 0 (A3)."""
    min_ratio = ratio_kernel(checked_b(m, k, y), k)
    beta = np.asarray(m.beta(y))
    qr = q * np.asarray(m.r(y))
    coef = q / (2.0 * (1.0 - q))  # > 0 for q in (0,1), < 0 for q < 0
    rho = m.rho

    def h(u_y: np.ndarray) -> np.ndarray:
        # the min term first: its temporaries peak before the others exist
        min_term = min_ratio(rho * u_y)
        return beta * u_y + 0.5 * u_y**2 + qr + coef * min_term

    return h


def solve_hjbi(m: MarketModel, k: UncertaintyRectangle, util: PowerUtility,
               g: GridSpec) -> ValueSurface:
    """Backward theta-IMEX solve of the value-exponent PDE on the grid.

    Raises SolverError on assumption violations, stability-guard violations,
    or non-finite values (with the offending dt / grid location).
    """
    report = validate_assumptions(m, k)
    if not report.passed:
        raise SolverError("assumptions fail:\n" + report.summary())
    if g.y_radius < m.tail_radius:
        raise SolverError(
            f"y_radius {g.y_radius:g} < coefficient tail radius {m.tail_radius:g}")

    dt, dy, theta = g.dt, g.dy, g.theta
    dt_cap = dy * dy / (2.0 * (1.0 - theta) + _CFL_EPS)
    if dt > dt_cap:
        raise SolverError(
            f"dt = {dt:.3g} violates the explicit-diffusion guard "
            f"dy^2/(2(1-theta)+eps) = {dt_cap:.3g}; refine n_t or coarsen n_y")

    q = util.q
    t_nodes = g.t_nodes()
    y_nodes = g.y_nodes()
    abs_beta = np.abs(np.asarray(m.beta(y_nodes)))
    abs_beta_lo, abs_beta_hi = abs_beta[[0, -1]].tolist()
    abs_beta = abs_beta[1:-1]
    h = _operator(m, k, q, y_nodes[1:-1])
    # flat tails: u is y-independent there, so u_y = 0 and u_t = -H(edge, 0)
    bc = (g.horizon - t_nodes)[:, None] * _operator(m, k, q, y_nodes[[0, -1]])(np.zeros(2))

    # tridiagonal (I - theta*dt/2 * D2) on the interior nodes: its off and
    # main diagonals, which dgtsv copies before factoring
    a = theta * dt / (2.0 * dy * dy)
    n_int = g.n_y - 2
    off = np.full(n_int - 1, -a)
    diag = np.full(n_int, 1.0 + 2.0 * a)

    def implicit_solve(rhs: np.ndarray, out: np.ndarray, i: int):
        """Diffusion solve with the Dirichlet data of level i into row out."""
        rhs[0] += a * bc[i, 0]
        rhs[-1] += a * bc[i, 1]
        if n_int == 1:  # dgtsv's wrapper refuses n = 1; a 1x1 solve is a division
            out[1] = rhs[0] / diag[0]
        else:
            _, _, _, x, info = dgtsv(off, diag, off, rhs, overwrite_b=True)
            if info:
                raise SolverError(f"tridiagonal solve failed at t = {t_nodes[i]:.6g} "
                                  f"(LAPACK dgtsv info {info})")
            out[1:-1] = x
        out[0] = bc[i, 0]
        out[-1] = bc[i, 1]

    def check_finite(row: np.ndarray, i: int):
        if not np.isfinite(row).all():
            j = int(np.argmax(~np.isfinite(row)))
            raise SolverError(
                f"non-finite value at t = {t_nodes[i]:.6g}, y = {y_nodes[j]:.6g}")

    u = np.zeros((g.n_t, g.n_y))
    u[-1, [0, -1]] = bc[-1]
    # the predictor's H at each level's interior nodes, which the residual
    # reuses (levels 1..n_t-2).  Shaped like u rather than like the
    # interior: once freed, a block of u's size serves the next surface-
    # sized array (u_y, the policy fields), where a slightly smaller one
    # stays a hole in the heap and raises the process's peak RSS.
    h_u = np.empty((g.n_t, g.n_y))

    d_exp = (1.0 - theta) * dt / (2.0 * dy * dy)
    two_dy = 2.0 * dy
    pred = np.empty(g.n_y)
    max_cfl = 0.0
    prev_max = 0.0

    for i in range(g.n_t - 2, -1, -1):
        uo = u[i + 1]
        uy = (uo[2:] - uo[:-2]) / two_dy
        # the advection CFL covers the edge columns too: _d_dy's one-sided
        # stencils there, on Python floats; uo is finite, so the max is the
        # one over _d_dy(uo)
        u0, u1, u2 = uo[:3].tolist()
        v2, v1, v0 = uo[-3:].tolist()
        cfl = dt * max(float((abs_beta + np.abs(uy)).max()),
                       abs_beta_lo + abs((-3.0 * u0 + 4.0 * u1 - u2) / two_dy),
                       abs_beta_hi + abs((3.0 * v0 - 4.0 * v1 + v2) / two_dy)) / dy
        max_cfl = max(max_cfl, cfl)
        if cfl > 1.0:
            raise SolverError(
                f"dt = {dt:.3g} violates the advection CFL bound at t = {t_nodes[i]:.6g} "
                f"(dt*max(|beta| + |u_y|)/dy = {cfl:.3g} > 1)")

        # predictor: H lagged at the later-time level
        base = uo[1:-1] + d_exp * (uo[:-2] - 2.0 * uo[1:-1] + uo[2:])
        h_old = h(uy)
        h_u[i + 1, 1:-1] = h_old
        implicit_solve(base + dt * h_old, pred, i)
        check_finite(pred, i)
        # one trapezoidal correction of H (2nd order in time), with the
        # predictor's u_y on the interior only: _d_dy's central difference
        implicit_solve(base + 0.5 * dt * (h_old + h((pred[2:] - pred[:-2]) / two_dy)),
                       u[i], i)

        # the growth detector's max is also the finiteness test of the row;
        # check_finite then names the node
        new_max = float(np.abs(u[i]).max())
        if not np.isfinite(new_max):
            check_finite(u[i], i)
        if new_max > max(10.0 * prev_max + 1.0, 1e6):
            raise SolverError(
                f"explicit update growth detected at t = {t_nodes[i]:.6g} "
                f"(|u| jumped to {new_max:.3g}); dt = {dt:.3g} is too large")
        prev_max = new_max

    surface = ValueSurface.from_u(g, u)
    return replace(surface, diagnostics=SolveDiagnostics(
        time_steps=g.n_t - 1,
        max_abs_u=float(np.max(np.abs(u))),
        max_abs_u_y=float(np.max(np.abs(surface.u_y))),
        max_advection_cfl=max_cfl,
        max_residual=residual_norm(surface, m, k, util, h=h_u[1:-1, 1:-1]),
    ))


def residual_norm(s: ValueSurface, m: MarketModel, k: UncertaintyRectangle,
                  util: PowerUtility, h: np.ndarray | None = None) -> float:
    """A-posteriori PDE residual: max over interior nodes of the centered-
    difference assembly u_t + u_yy/2 + H(u_y) (same operator as the solver).

    h, if given, is H(u_y) at the interior nodes of rows 1..n_t-2, shape
    (n_t-2, n_y-2): solve_hjbi passes its predictor's rows, which are these
    values bit for bit.  Without it H is formed here.  Raises ValueError on
    an h of another shape."""
    g = s.grid
    if h is not None and np.shape(h) != (g.n_t - 2, g.n_y - 2):
        raise ValueError(f"h must have shape {(g.n_t - 2, g.n_y - 2)}, not {np.shape(h)}")
    if g.n_t < 3:
        return 0.0
    dt, dy = g.dt, g.dy
    u = s.u
    u_mid = u[1:-1, :]
    if h is None:
        # H first: its min term's temporaries peak before u_t and u_yy exist
        h = _operator(m, k, util.q, s.y[1:-1])((u_mid[:, 2:] - u_mid[:, :-2]) / (2.0 * dy))
    # u_t + 0.5 u_yy + h assembled in place, in the operand order of that
    # expression: two interior-sized buffers instead of about four
    res = np.subtract(u[2:, 1:-1], u[:-2, 1:-1])
    res /= 2.0 * dt
    half_u_yy = np.multiply(2.0, u_mid[:, 1:-1])
    np.subtract(u_mid[:, 2:], half_u_yy, out=half_u_yy)
    half_u_yy += u_mid[:, :-2]
    half_u_yy /= dy * dy
    half_u_yy *= 0.5
    res += half_u_yy
    del half_u_yy
    res += h
    return float(np.max(np.abs(res, out=res)))
