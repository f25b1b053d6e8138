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
H is formed once per time level.  H leaves out beta u_y where beta is 0 at
every node and q r where it is +-0 at every node; both skips keep the bits.
A time step writes only into rows that the solve allocates once: the
stencil row, both right-hand sides, H and the kernel's values are formed in
place, and a step allocates nothing but the kernel's region masks.
Diffusion is treated theta-implicitly: its tridiagonal matrix is the same at
every step, so LAPACK dgttrf factors it once per solve and each step
back-substitutes twice (dgttrs), for the predictor and the corrector, in
place in the output rows.
H is explicit: a lagged predictor from the later-time level plus one
trapezoidal correction (second order in time at theta = 1/2, no Newton
iterations on the nonsmooth min term).  The stepper's central differences
u_y are stored as the surface's u_y, and the advection CFL and the u_y
diagnostics are read off them once, after the time loop.  Boundary data
at +-y_radius are the flat-tail solutions u = (T - t) H(+-y_radius, 0): H at
u_y = 0 on constant coefficients, hence y_radius >= tail radius N (default
N + 2 for margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .model import (GridSpec, MarketModel, PowerUtility, UncertaintyRectangle,
                    validate_assumptions)
from .worst_case import all_finite, ratio_kernel

# not called: bench/tracing.py wraps pde.min_ratio_values by name, so it must
# resolve here
from .worst_case import min_ratio_values  # noqa: F401

__all__ = [
    "SolverError",
    "SolveDiagnostics",
    "ValueSurface",
    "solve_hjbi",
    "residual_norm",
]

_CFL_EPS = 1e-2
# the passes over u_y after the time loop take rows of about this many nodes
# at a time
_BLOCK_NODES = 1 << 15


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveDiagnostics:
    time_steps: int
    max_abs_u: float
    max_abs_u_y: float
    max_advection_cfl: float
    max_residual: float
    # max |u_y| on the two Dirichlet edge columns over all t: a large value
    # means u is not flat there and y_radius truncates the solution
    max_edge_abs_u_y: float


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
    _edge_d_dy(u, dy, out)
    return out


def _edge_d_dy(u: np.ndarray, dy: float, out: np.ndarray):
    """_d_dy's one-sided stencils, written into the edge columns of out."""
    out[..., 0] = (-3.0 * u[..., 0] + 4.0 * u[..., 1] - u[..., 2]) / (2.0 * dy)
    out[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dy)


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
    """H(y, .) at the nodes y: h(u_y, out) -> beta u_y + u_y^2/2 + q r
    + q/(2(1-q)) min_ratio(b, rho u_y), written into out.  u_y may carry
    leading axes.  Everything that depends on y alone is formed here, once
    per solve, with the scratch rows of an out of y's shape; without out, h
    allocates its result and scratch.

    beta u_y is left out where beta is 0 at every node, and q r where it is
    +-0 at every node, with the same bits: u_y is finite once the kernel has
    checked kappa, so beta u_y is +-0, and neither u_y^2/2 nor beta u_y +
    u_y^2/2 is ever -0.

    Raises SolverError naming the first node where b + mu_minus < 0 (A3)."""
    min_ratio = ratio_kernel(checked_b(m, k, y), k)
    beta = np.asarray(m.beta(y))
    qr = q * np.asarray(m.r(y))
    beta = beta if np.any(beta) else None
    qr = qr if np.any(qr) else None
    coef = q / (2.0 * (1.0 - q))  # > 0 for q in (0,1), < 0 for q < 0
    # the scalars as 0-d arrays: a ufunc then takes them without converting
    # a Python float on each call, with the same bits
    coef, rho, half = np.asarray(coef), np.asarray(m.rho), np.asarray(0.5)
    held = np.empty(y.shape), np.empty(y.shape)

    def h(u_y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            # np.multiply allocates beta u_y where term is None
            out = np.empty(np.shape(u_y))
            x, term = np.empty_like(out), None
        else:
            x, term = held
        # the min term first, in out; the kernel's return value, which need
        # not be out, is read
        np.multiply(rho, u_y, out=x)
        np.multiply(coef, min_ratio(x, out=out), out=out)
        # then beta u_y + 0.5 u_y**2 + q r in x, in that expression's order
        np.square(u_y, out=x)
        x *= half
        if beta is not None:
            np.add(np.multiply(beta, u_y, out=term), x, out=x)
        if qr is not None:
            x += qr
        return np.add(x, out, out=out)

    return h


def _diffusion_solver(a: float, n: int):
    """solve(x): x := (I - a D2)^-1 x in place, for the n x n tridiagonal
    matrix with 1 + 2a on the diagonal and -a beside it.  x must be a
    contiguous float64 row (LAPACK then writes into it, not into a copy).

    The matrix is strictly diagonally dominant, so LAPACK never pivots:
    dgttrf factors it once here, and each dgttrs back-substitution then does
    dgtsv's elimination on the right-hand side, giving its result bit for
    bit.  f2py's dgttrf refuses n = 1 and n = 2, which keep solve_banded (a
    division and dgtsv there)."""
    off = np.full(n - 1, -a)
    diag = np.full(n, 1.0 + 2.0 * a)
    if n < 3:
        ab = np.array([[0.0, *off], diag, [*off, 0.0]])

        def solve(x: np.ndarray):
            x[:] = solve_banded((1, 1), ab, x, check_finite=False)
        return solve
    dl, d, du, du2, ipiv, info = dgttrf(off, diag, off)
    if info:
        raise SolverError(f"tridiagonal factorization failed (LAPACK dgttrf info {info})")
    # info is non-zero only for an illegal argument
    return partial(dgttrs, dl, d, du, du2, ipiv, overwrite_b=True)


def _advection_cfl(u_y: np.ndarray, abs_beta: np.ndarray, dt: float, dy: float,
                   t_nodes: np.ndarray, first: int) -> tuple[float, float]:
    """The advection CFL number dt*max(|beta| + |u_y|)/dy of each row r >=
    first of u_y, which the step from level r to level r-1 reads.

    The rows are read in blocks from the terminal row down, the stepper's
    order.  Returns the largest CFL number and the largest |u_y| over those
    rows; raises SolverError at the first row whose number passes 1."""
    n_t, n_y = u_y.shape
    rows = max(1, _BLOCK_NODES // n_y)
    max_cfl = max_u_y = 0.0
    for stop in range(n_t, first, -rows):
        start = max(first, stop - rows)
        block = np.abs(u_y[start:stop])
        max_u_y = max(max_u_y, float(block.max()))
        block += abs_beta
        cfl = dt * block.max(axis=1) / dy
        over = np.flatnonzero(cfl > 1.0)
        if over.size:
            r = start + int(over[-1])
            raise SolverError(
                f"dt = {dt:.3g} violates the advection CFL bound at t = {t_nodes[r - 1]:.6g} "
                f"(dt*max(|beta| + |u_y|)/dy = {cfl[r - start]:.3g} > 1)")
        max_cfl = max(max_cfl, float(cfl.max()))
    return max_cfl, max_u_y


def check_solvable(m: MarketModel, k: UncertaintyRectangle, g: GridSpec):
    """solve_hjbi's input checks, which need no solve: the standing
    assumptions, y_radius against the coefficients' tail radius, and the
    explicit-diffusion guard on dt.  Raises SolverError naming the first that
    fails."""
    report = validate_assumptions(m, k)
    if not report.passed:
        raise SolverError("assumptions fail:\n" + report.summary())
    if g.y_radius < m.tail_radius:
        raise SolverError(
            f"y_radius {g.y_radius:g} < coefficient tail radius {m.tail_radius:g}")
    dt_cap = g.dy * g.dy / (2.0 * (1.0 - g.theta) + _CFL_EPS)
    if g.dt > dt_cap:
        raise SolverError(
            f"dt = {g.dt:.3g} violates the explicit-diffusion guard "
            f"dy^2/(2(1-theta)+eps) = {dt_cap:.3g}; refine n_t or coarsen n_y")


def solve_hjbi(m: MarketModel, k: UncertaintyRectangle, util: PowerUtility,
               g: GridSpec) -> ValueSurface:
    """Backward theta-IMEX solve of the value-exponent PDE on the grid.

    Raises SolverError on assumption violations, stability-guard violations,
    or non-finite values (with the offending dt / grid location).
    """
    check_solvable(m, k, g)
    dt, dy, theta = g.dt, g.dy, g.theta
    q = util.q
    t_nodes = g.t_nodes()
    y_nodes = g.y_nodes()
    abs_beta = np.abs(np.asarray(m.beta(y_nodes)))
    h = _operator(m, k, q, y_nodes[1:-1])
    # flat tails: u is y-independent there, so u_y = 0 and u_t = -H(edge, 0)
    bc = (g.horizon - t_nodes)[:, None] * _operator(m, k, q, y_nodes[[0, -1]])(np.zeros(2))
    bc_rows = bc.tolist()

    # (I - theta*dt/2 * D2) on the interior nodes, factored once
    a = theta * dt / (2.0 * dy * dy)
    diffuse = _diffusion_solver(a, g.n_y - 2)

    def non_finite(row: np.ndarray, i: int) -> SolverError:
        j = int(np.argmax(~np.isfinite(row)))
        return SolverError(f"non-finite value at t = {t_nodes[i]:.6g}, y = {y_nodes[j]:.6g}")

    u = np.zeros((g.n_t, g.n_y))
    u[-1, [0, -1]] = bc[-1]
    # the predictor's H at each level's interior nodes, which the residual
    # reuses (levels 1..n_t-2).  Shaped like u rather than like the
    # interior: once freed, a block of u's size serves the next surface-
    # sized array (the policy fields), where a slightly smaller one stays a
    # hole in the heap and raises the process's peak RSS.
    h_u = np.empty((g.n_t, g.n_y))
    # the stepper's central differences of each level it leaves: rows
    # 1..n_t-1 of the surface's u_y
    u_y = np.empty((g.n_t, g.n_y))

    # the step's scalars as 0-d arrays, as in _operator
    d_exp, two_dy, dt_0d, half_dt = map(np.asarray, (
        (1.0 - theta) * dt / (2.0 * dy * dy), 2.0 * dy, dt, 0.5 * dt))
    # a step writes only into rows of these arrays, allocated here: the
    # predicted level, the stencil row, the corrector's u_y and H, and |u|
    pred = np.empty(g.n_y)
    pred_in, pred_lo, pred_hi = pred[1:-1], pred[:-2], pred[2:]
    base, uy_c, h_c = (np.empty(g.n_y - 2) for _ in range(3))
    abs_row = np.empty(g.n_y)
    u_in, u_lo, u_hi = u[:, 1:-1], u[:, :-2], u[:, 2:]
    h_rows, uy_rows = h_u[:, 1:-1], u_y[:, 1:-1]
    max_abs_u = float(np.abs(u[-1]).max())
    prev_max = 0.0

    try:
        for i in range(g.n_t - 2, -1, -1):
            uo_in, uo_lo, uo_hi = u_in[i + 1], u_lo[i + 1], u_hi[i + 1]
            uy = np.subtract(uo_hi, uo_lo, out=uy_rows[i + 1])
            uy /= two_dy
            lo, hi = bc_rows[i]
            # the stencil row uo + d_exp (uo[:-2] - 2 uo + uo[2:]) of both
            # right-hand sides, in that expression's order (uo + uo is 2 uo
            # exactly)
            np.add(uo_in, uo_in, out=base)
            np.subtract(uo_lo, base, out=base)
            base += uo_hi
            base *= d_exp
            base += uo_in

            # predictor: H lagged at the later-time level.  Each right-hand
            # side is formed in the interior of the row it solves for, and
            # the diffusion solve takes the level's Dirichlet data.
            h_old = h(uy, out=h_rows[i + 1])
            np.multiply(dt_0d, h_old, out=pred_in)
            pred_in += base
            pred_in[0] += a * lo
            pred_in[-1] += a * hi
            diffuse(pred_in)
            pred[0] = lo
            pred[-1] = hi
            if not all_finite(pred):
                raise non_finite(pred, i)
            # one trapezoidal correction of H (2nd order in time), with the
            # predictor's u_y on the interior only: _d_dy's central difference
            np.subtract(pred_hi, pred_lo, out=uy_c)
            uy_c /= two_dy
            row, x = u[i], u_in[i]
            np.add(h_old, h(uy_c, out=h_c), out=x)
            x *= half_dt
            x += base
            x[0] += a * lo
            x[-1] += a * hi
            diffuse(x)
            row[0] = lo
            row[-1] = hi

            # the growth detector's max is also the finiteness test of the
            # row; non_finite then names the node
            new_max = float(np.abs(row, out=abs_row).max())
            if not math.isfinite(new_max):
                raise non_finite(row, i)
            if new_max > max(10.0 * prev_max + 1.0, 1e6):
                raise SolverError(
                    f"explicit update growth detected at t = {t_nodes[i]:.6g} "
                    f"(|u| jumped to {new_max:.3g}); dt = {dt:.3g} is too large")
            prev_max = new_max
            max_abs_u = max(max_abs_u, new_max)
    except Exception:
        # the steps before this one checked their CFL first: a violation
        # among the levels already left is the error to report
        _edge_d_dy(u[i + 1:], dy, u_y[i + 1:])
        _advection_cfl(u_y, abs_beta, dt, dy, t_nodes, i + 1)
        raise

    np.subtract(u[0, 2:], u[0, :-2], out=u_y[0, 1:-1])
    u_y[0, 1:-1] /= two_dy
    _edge_d_dy(u, dy, u_y)
    max_cfl, max_abs_u_y = _advection_cfl(u_y, abs_beta, dt, dy, t_nodes, 1)
    surface = ValueSurface(g, t_nodes, y_nodes, u, u_y)
    return replace(surface, diagnostics=SolveDiagnostics(
        time_steps=g.n_t - 1,
        max_abs_u=max_abs_u,
        max_abs_u_y=max(max_abs_u_y, float(np.abs(u_y[0]).max())),
        max_advection_cfl=max_cfl,
        max_residual=residual_norm(surface, m, k, util, h=h_u[1:-1, 1:-1]),
        max_edge_abs_u_y=float(np.abs(u_y[:, [0, -1]]).max()),
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
