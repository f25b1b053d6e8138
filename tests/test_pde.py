import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv, dgttrf

from robustport import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                        UncertaintyRectangle, pde, residual_norm, solve_hjbi)
from robustport.config import load_config
from robustport.pde import SolverError, ValueSurface
from robustport.worst_case import BranchRegion, branch_fields

from oracles import closed_form_b0, flat_tail_u, minus_corner_reference

K = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)


@pytest.fixture(scope="module")
def tails_surfaces(smoke_util):
    """Distinct left and right tails in b, beta and r (tail radius 2), solved
    with r = 0.01 -> 0.03 and with r = 0."""
    b, beta = CoefficientFn.ramp(0.0, 0.2, 2.0), CoefficientFn.ramp(0.1, -0.1, 2.0)
    g = GridSpec(1.0, 201, 41, 3.0, 0.5)
    return [solve_hjbi(MarketModel(b, beta, r, 0.5), K, smoke_util, g)
            for r in (CoefficientFn.ramp(0.01, 0.03, 2.0), CoefficientFn.constant(0.0))]


class TestTailValues:
    """Dirichlet columns of solved surfaces against the flat-tail closed form."""

    def test_terminal_is_zero(self, tails_surfaces):
        for s in tails_surfaces:
            assert np.all(s.u[-1] == 0.0)

    def test_flat_zero_drift_reference(self, surface):
        # worst corner (mu-, sigma+): rate q*(b+mu-)^2/(2(1-q)sigma+^2)
        s, _ = surface
        assert s.u[0, 0] == pytest.approx(0.5 * 0.1**2 / (2 * 0.5 * 0.4**2), abs=1e-14)
        assert s.u[0, -1] == pytest.approx(0.5 * 0.1**2 / (2 * 0.5 * 0.4**2), abs=1e-14)

    def test_rate_term_is_additive(self, tails_surfaces):
        with_r, without_r = tails_surfaces
        added = with_r.u[:, [0, -1]] - without_r.u[:, [0, -1]]
        expect = 0.5 * np.array([0.01, 0.03])[None, :] * (1.0 - with_r.t)[:, None]
        assert np.max(np.abs(added - expect)) <= 1e-14

    def test_sides_use_their_tail_constants(self, tails_surfaces):
        s = tails_surfaces[0]
        left = flat_tail_u(s.t, 0.0, 0.01, K, 0.5, 1.0)
        right = flat_tail_u(s.t, 0.2, 0.03, K, 0.5, 1.0)
        assert np.max(np.abs(s.u[:, 0] - left)) <= 1e-12
        assert np.max(np.abs(s.u[:, -1] - right)) <= 1e-12
        assert right[0] - left[0] > 0.05


class TestClosedFormB0:
    def test_terminal(self):
        assert closed_form_b0(1.0, K, 0.5, 1.0) == 0.0

    def test_flat_reference_value(self):
        # q mu-^2 T / (2 (1-q) sigma+^2) = 0.5 * 0.01 / 0.16
        assert closed_form_b0(0.0, K, 0.5, 1.0) == pytest.approx(0.03125)

    def test_sign_by_utility_exponent(self):
        assert closed_form_b0(0.0, K, 0.5, 1.0) > 0
        assert closed_form_b0(0.0, K, -1.0, 1.0) < 0


@pytest.fixture(scope="module")
def surface(smoke_model, smoke_util):
    g = GridSpec(1.0, 401, 101, 3.0, 0.5)
    return solve_hjbi(smoke_model, K, smoke_util, g), g


class TestSolveFlatDrift:
    def test_matches_closed_form(self, surface):
        s, g = surface
        expect = closed_form_b0(s.t, K, 0.5, 1.0)[:, None]
        assert np.max(np.abs(s.u - expect)) < 1e-6

    def test_y_independent(self, surface):
        s, _ = surface
        assert np.max(s.u.max(axis=1) - s.u.min(axis=1)) <= 1e-8

    def test_terminal_and_boundary_conditions(self, surface):
        s, g = surface
        assert np.all(s.u[-1] == 0.0)
        expect = flat_tail_u(s.t, 0.0, 0.0, K, 0.5, 1.0)
        assert np.max(np.abs(s.u[:, 0] - expect)) <= 1e-12
        assert np.max(np.abs(s.u[:, -1] - expect)) <= 1e-12

    def test_gradient_bounded(self, surface):
        s, _ = surface
        assert np.all(np.isfinite(s.u_y))
        assert np.max(np.abs(s.u_y)) < 1e-6

    def test_solved_residual_tiny(self, surface, smoke_model, smoke_util):
        s, _ = surface
        assert residual_norm(s, smoke_model, K, smoke_util) <= 1e-3

    def test_diagnostics_populated(self, surface):
        s, g = surface
        assert s.diagnostics.time_steps == g.n_t - 1
        assert s.diagnostics.max_residual < 1e-8


class TestSolvePointRectangle:
    def test_merton_reduction(self, smoke_model, smoke_util):
        k = UncertaintyRectangle(0.2, 0.2, 0.3, 0.3)
        g = GridSpec(1.0, 401, 101, 3.0, 0.5)
        s = solve_hjbi(smoke_model, k, smoke_util, g)
        expect = 0.5 * 0.2**2 / (2 * 0.5 * 0.3**2)
        assert s.u[0] == pytest.approx(expect, abs=1e-8)


class TestTinyGrids:
    @pytest.mark.parametrize("n_y", [3, 4])  # one and two interior nodes
    def test_flat_drift_matches_closed_form(self, smoke_model, smoke_util, n_y):
        s = solve_hjbi(smoke_model, K, smoke_util, GridSpec(1.0, 101, n_y, 3.0, 0.5))
        expect = closed_form_b0(s.t, K, 0.5, 1.0)[:, None]
        assert np.max(np.abs(s.u - expect)) <= 1e-12
        assert np.max(np.abs(s.u[:, 0] - flat_tail_u(s.t, 0.0, 0.0, K, 0.5, 1.0))) <= 1e-12


def patch_kernel(monkeypatch, wrap):
    """Route every evaluation of the prepared ratio kernel through
    wrap(values, kappa); values writes into the out its caller passes."""
    factory = pde.ratio_kernel

    def prepared(b, k):
        values = factory(b, k)
        return lambda kappa, out=None: wrap(lambda kap: values(kap, out), kappa)

    monkeypatch.setattr(pde, "ratio_kernel", prepared)


class TestKernelCalls:
    def test_two_calls_per_step_plus_boundary_and_residual(self, ramp_model, smoke_util,
                                                           monkeypatch):
        calls = []
        patch_kernel(monkeypatch, lambda values, kap: calls.append(kap.shape) or values(kap))
        g = GridSpec(1.0, 101, 21, 4.0, 0.5)
        solve_hjbi(ramp_model, K, smoke_util, g)
        assert len(calls) == 2 * (g.n_t - 1) + 1
        # boundary data first, then both stepper calls of each step on the
        # interior; the residual reuses the predictor's H rows
        assert calls[0] == (2,)
        assert set(calls[1:]) == {(g.n_y - 2,)}

    def test_non_finite_predictor_is_a_solver_error(self, ramp_model, smoke_util,
                                                    monkeypatch):
        calls = []

        def first_predictor_inf(values, kap):
            calls.append(None)
            v = values(kap)
            return np.full_like(v, np.inf) if len(calls) == 2 else v

        patch_kernel(monkeypatch, first_predictor_inf)
        g = GridSpec(1.0, 101, 21, 4.0, 0.5)
        with pytest.raises(SolverError, match=r"non-finite value at t = 0\.99, y = -3\.6"):
            solve_hjbi(ramp_model, K, smoke_util, g)
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_corrector_is_a_solver_error(self, ramp_model, smoke_util,
                                                    monkeypatch, bad):
        # the corrected row's finiteness is read off the growth detector's max
        calls = []

        def first_corrector_bad(values, kap):
            calls.append(None)
            v = values(kap)
            return np.full_like(v, bad) if len(calls) == 3 else v

        patch_kernel(monkeypatch, first_corrector_bad)
        g = GridSpec(1.0, 101, 21, 4.0, 0.5)
        with pytest.raises(SolverError, match=r"non-finite value at t = 0\.99, y = -3\.6"):
            solve_hjbi(ramp_model, K, smoke_util, g)
        assert len(calls) == 3


class TestDiffusionSolve:
    """The stepper factors I - a D2 once (dgttrf) and back-substitutes twice
    per step (dgttrs).  The matrix is strictly diagonally dominant, so
    neither routine pivots, and the solve is dgtsv's elimination: the same
    bits as one dgtsv call per right-hand side.  One and two interior nodes
    go through solve_banded, which divides and calls dgtsv there."""

    WIDTHS = [*range(1, 41), 59, 79, 119, 159, 239, 319, 479]

    @staticmethod
    def words(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("a", [1e-4, 0.02, 0.5, 1.0, 6.25, 100.0])
    def test_factored_solve_is_dgtsv_bit_for_bit(self, a):
        rng = np.random.default_rng(int(a * 1e4))
        for n in self.WIDTHS:
            off, diag = np.full(n - 1, -a), np.full(n, 1.0 + 2.0 * a)
            if n >= 3:  # f2py's dgttrf refuses n = 1 and n = 2
                ipiv = dgttrf(off, diag, off)[4]
                assert np.array_equal(ipiv, np.arange(1, n + 1)), n
            solve = pde._diffusion_solver(a, n)
            for _ in range(4):
                rhs = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
                # solved in place in the interior of a row, as the stepper does
                row = np.concatenate(([7.0], rhs, [-7.0]))
                solve(row[1:-1])
                # f2py's dgtsv refuses n = 1, a division
                expect = rhs / diag if n == 1 else dgtsv(off, diag, off, rhs)[3]
                assert np.array_equal(self.words(row[1:-1]), self.words(expect)), n
                assert row[0] == 7.0 and row[-1] == -7.0

    def test_one_factorization_and_two_solves_per_step(self, ramp_model, smoke_util,
                                                       monkeypatch):
        calls = []
        for name in ("dgttrf", "dgttrs", "solve_banded", "residual_norm"):
            def counted(*args, _name=name, _f=getattr(pde, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(pde, name, counted)
        g = GridSpec(1.0, 101, 21, 4.0, 0.5)
        solve_hjbi(ramp_model, K, smoke_util, g)
        assert calls.count("dgttrf") == 1
        assert calls.count("dgttrs") == 2 * (g.n_t - 1)
        assert calls.count("residual_norm") == 1
        assert "solve_banded" not in calls
        # two interior nodes: solve_banded twice per step, nothing factored
        calls.clear()
        solve_hjbi(ramp_model, K, smoke_util, replace(g, n_y=4))
        assert calls.count("solve_banded") == 2 * (g.n_t - 1)
        assert "dgttrf" not in calls and "dgttrs" not in calls


class TestNegativeExponent:
    def test_flat_drift_negative_q(self, smoke_model):
        g = GridSpec(1.0, 401, 101, 3.0, 0.5)
        s = solve_hjbi(smoke_model, K, PowerUtility(-1.0), g)
        expect = closed_form_b0(0.0, K, -1.0, 1.0)
        assert expect < 0
        assert s.u[0] == pytest.approx(expect, abs=1e-8)


class TestSolveGenericRamp:
    def test_residual_halves_under_refinement(self, ramp_model, smoke_util):
        res = []
        for n_t, n_y in ((501, 81), (1001, 161)):
            g = GridSpec(1.0, n_t, n_y, 4.0, 0.5)
            s = solve_hjbi(ramp_model, K, smoke_util, g)
            res.append(residual_norm(s, ramp_model, K, smoke_util))
        assert res[0] / res[1] >= 2.0

    def test_gradient_stable_under_refinement(self, ramp_model, smoke_util):
        maxes = []
        for n_t, n_y in ((501, 81), (1001, 161)):
            g = GridSpec(1.0, n_t, n_y, 4.0, 0.5)
            s = solve_hjbi(ramp_model, K, smoke_util, g)
            maxes.append(np.max(np.abs(s.u_y)))
        assert all(np.isfinite(maxes))
        assert abs(maxes[0] - maxes[1]) < 0.1 * maxes[1]

    def test_enlarging_uncertainty_never_helps(self, ramp_model, smoke_util):
        g = GridSpec(1.0, 501, 81, 4.0, 0.5)
        rects = [UncertaintyRectangle(0.10, 0.3, 0.2, 0.40),
                 UncertaintyRectangle(0.05, 0.3, 0.2, 0.45),
                 UncertaintyRectangle(0.02, 0.3, 0.2, 0.55)]
        values = []
        for k in rects:
            s = solve_hjbi(ramp_model, k, smoke_util, g)
            j0 = np.argmin(np.abs(s.y))
            values.append(np.exp(s.u[0, j0]) / 0.5)  # x0 = 1, q = 0.5
        assert values[0] >= values[1] >= values[2]


class TestGuardsAndErrors:
    def test_diffusion_guard_names_dt(self, smoke_model, smoke_util):
        g = GridSpec(1.0, 51, 201, 3.0, 0.5)  # dt = 0.02 >> dy^2
        with pytest.raises(SolverError, match="dt = 0.02"):
            solve_hjbi(smoke_model, K, smoke_util, g)

    def test_advection_guard_names_dt_and_bound(self, smoke_util):
        # theta = 1 passes the diffusion guard at dt = 0.5; 0.5 * 5 / 0.1 = 25
        zero = CoefficientFn.constant(0.0)
        m = MarketModel(zero, CoefficientFn.constant(5.0), zero, 0.5)
        g = GridSpec(1.0, 3, 61, 3.0, theta=1.0)
        msg = (r"dt = 0\.5 violates the advection CFL bound at t = 0\.5 "
               r"\(dt\*max\(\|beta\| \+ \|u_y\|\)/dy = 25 > 1\)")
        with pytest.raises(SolverError, match=msg):
            solve_hjbi(m, K, smoke_util, g)

    # the advection CFL is read off the stored u_y rows after the time loop,
    # and must still name the level the stepper meets first

    def test_advection_guard_names_the_first_failing_level(self):
        # u_y grows as t falls: the levels near T pass, and t = 0.6 fails first
        zero = CoefficientFn.constant(0.0)
        m = MarketModel(CoefficientFn.ramp(1.0, 0.0, 1.0), zero, zero, 0.9)
        with pytest.raises(SolverError) as err:
            solve_hjbi(m, K, PowerUtility(0.8), GridSpec(1.0, 21, 61, 3.0, theta=1.0))
        assert str(err.value) == ("dt = 0.05 violates the advection CFL bound at t = 0.6 "
                                  "(dt*max(|beta| + |u_y|)/dy = 1.78 > 1)")

    def test_advection_guard_wins_over_later_growth(self, monkeypatch):
        # the first step already violates the bound; stepped on regardless,
        # the solve meets explicit growth at t = 0.3
        m = MarketModel(CoefficientFn.ramp(1.0, 0.0, 1.0), CoefficientFn.ramp(-8.0, 8.0, 1.0),
                        CoefficientFn.constant(0.0), 0.9)
        g = GridSpec(1.0, 11, 61, 3.0, theta=1.0)
        with pytest.raises(SolverError) as err:
            solve_hjbi(m, K, PowerUtility(0.8), g)
        assert str(err.value) == ("dt = 0.1 violates the advection CFL bound at t = 0.9 "
                                  "(dt*max(|beta| + |u_y|)/dy = 8 > 1)")
        monkeypatch.setattr(pde, "_advection_cfl", lambda *args: (0.0, 0.0))
        with pytest.raises(SolverError, match=r"explicit update growth detected at t = 0\.3 "):
            solve_hjbi(m, K, PowerUtility(0.8), g)

    def test_advection_guard_wins_over_a_later_non_finite_row(self, smoke_util, monkeypatch):
        # the kernel's fourth call, the second step's predictor, turns
        # infinite; the first step has already violated the bound
        zero = CoefficientFn.constant(0.0)
        m = MarketModel(zero, CoefficientFn.constant(5.0), zero, 0.5)
        calls = []

        def fourth_inf(values, kap):
            calls.append(None)
            v = values(kap)
            return np.full_like(v, np.inf) if len(calls) == 4 else v

        patch_kernel(monkeypatch, fourth_inf)
        with pytest.raises(SolverError) as err:
            solve_hjbi(m, K, smoke_util, GridSpec(1.0, 11, 61, 3.0, theta=1.0))
        assert len(calls) == 4
        assert str(err.value) == ("dt = 0.1 violates the advection CFL bound at t = 0.9 "
                                  "(dt*max(|beta| + |u_y|)/dy = 5 > 1)")

    def test_radius_check(self, ramp_model, smoke_util):
        g = GridSpec(1.0, 401, 101, 1.5, 0.5)  # tail radius is 2
        with pytest.raises(SolverError, match="tail radius"):
            solve_hjbi(ramp_model, K, smoke_util, g)

    def test_failing_assumptions_refuse_to_solve(self, smoke_util):
        m = MarketModel(CoefficientFn.constant(-0.5), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), 0.5)
        g = GridSpec(1.0, 401, 101, 3.0, 0.5)
        with pytest.raises(SolverError, match="A3"):
            solve_hjbi(m, K, smoke_util, g)

    def test_narrow_dip_refuses_to_solve(self, dip_model, smoke_util):
        g = GridSpec(1.0, 401, 101, 3.0, 0.5)
        with pytest.raises(SolverError, match="A3 at y=0.005"):
            solve_hjbi(dip_model, K, smoke_util, g)


class TestEdgeSlope:
    """max_edge_abs_u_y: max |u_y| on the two Dirichlet columns over all t.
    On the farfield market u is not flat at y = -3, so the flat-tail edge
    data truncate the solution there; at y_radius 5 (the same dy) u is flat
    at the edges."""

    M = MarketModel(CoefficientFn.ramp(0.0, 0.6, 1.0), CoefficientFn.constant(0.0),
                    CoefficientFn.constant(0.0), 1.0)
    RECT = UncertaintyRectangle(0.01, 0.3, 0.2, 0.4)

    @pytest.mark.parametrize("n_y, y_radius, low, high", [
        (61, 3.0, 1.0, np.inf),  # reads 6.718, at t = 0
        (101, 5.0, 0.0, 1e-3),   # reads 3.9e-5
    ])
    def test_farfield_edge(self, n_y, y_radius, low, high):
        s = solve_hjbi(self.M, self.RECT, PowerUtility(0.8), GridSpec(1.0, 501, n_y, y_radius))
        edge = s.diagnostics.max_edge_abs_u_y
        assert edge == np.max(np.abs(s.u_y[:, [0, -1]]))
        assert low < edge < high


class TestResidualNorm:
    def test_injected_closed_form_has_tiny_residual(self, smoke_model, smoke_util):
        g = GridSpec(1.0, 201, 51, 3.0, 0.5)
        u = np.repeat(closed_form_b0(g.t_nodes(), K, 0.5, 1.0)[:, None], g.n_y, axis=1)
        s = ValueSurface.from_u(g, u)
        assert residual_norm(s, smoke_model, K, smoke_util) <= 1e-8

    def test_given_h_rows_must_cover_the_interior(self, smoke_model, smoke_util):
        g = GridSpec(1.0, 21, 11, 3.0, 0.5)
        s = solve_hjbi(smoke_model, K, smoke_util, g)
        for bad in (np.zeros(g.n_y - 2), np.zeros((g.n_t - 1, g.n_y - 2))):
            with pytest.raises(ValueError, match=r"h must have shape \(19, 9\)"):
                residual_norm(s, smoke_model, K, smoke_util, h=bad)


class TestNodeLookup:
    """_bilinear finds the y-bracket from the node spacing; its y-step must be
    np.interp on the same row, word for word."""

    @staticmethod
    def words(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("n_y, y_radius", [(3, 3.0), (4, 3.0), (5, 1.0), (121, 4.0),
                                               (201, 3.0), (2001, 7.3)])
    def test_matches_np_interp(self, n_y, y_radius):
        rng = np.random.default_rng(n_y)
        y_nodes = GridSpec(1.0, 2, n_y, y_radius).y_nodes()
        t_nodes = np.array([0.0, 1.0])
        values = rng.standard_normal((2, n_y))
        values[:, n_y // 2] = -0.0  # a node value whose sign a formula could lose
        ys = np.concatenate([
            rng.uniform(-y_radius, y_radius, 20_000),
            y_nodes, np.nextafter(y_nodes, np.inf), np.nextafter(y_nodes, -np.inf),
            rng.uniform(-3 * y_radius, 3 * y_radius, 2_000),
            [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]])
        for t in (0.0, 0.37, 1.0):
            row = (1.0 - t) * values[0] + t * values[1]
            got = pde._bilinear(t_nodes, y_nodes, values, t, ys)
            assert np.array_equal(self.words(got), self.words(np.interp(ys, y_nodes, row)))

    def test_nan_gives_nan_without_warning(self):
        # tier-1 turns RuntimeWarnings into errors, so this also checks that no
        # NaN reaches an integer cast
        g = GridSpec(1.0, 3, 5, 3.0)
        values = np.arange(15.0).reshape(3, 5)
        got = pde._bilinear(g.t_nodes(), g.y_nodes(), values, 0.25, [np.nan, 1.5, np.nan])
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == np.interp(1.5, g.y_nodes(), 0.5 * values[0] + 0.5 * values[1])

    def test_keeps_the_shape_of_y(self):
        g = GridSpec(1.0, 3, 5, 3.0)
        values = np.arange(15.0).reshape(3, 5)
        ys = np.array([[0.2, -4.0], [1.5, 3.0]])
        got = pde._bilinear(g.t_nodes(), g.y_nodes(), values, 0.5, ys)
        assert got.shape == (2, 2)
        assert np.array_equal(got, np.interp(ys, g.y_nodes(), values[1]))
        assert pde._bilinear(g.t_nodes(), g.y_nodes(), values, 0.5, 0.2) == got[0, 0]


class TestGoldenBits:
    """u and the diagnostics on small grids, pinned to the bit: a change to
    the stepper or the kernel that claims identical output must keep these.
    Each market also checks that the solver's max_residual, which reuses the
    stepper's H rows, is residual_norm's own assembly bit for bit."""

    TAIL_B = CoefficientFn.ramp(0.0, 0.4, 1.0)
    TAIL_K = UncertaintyRectangle(0.0, 0.3, 0.2, 0.4)
    ZERO = CoefficientFn.constant(0.0)

    @staticmethod
    def fingerprint(s):
        return hashlib.sha256(s.u.tobytes()).hexdigest(), repr(s.diagnostics)

    @staticmethod
    def region_counts(s, m, k):
        codes = branch_fields(m.b(s.y)[None, :], m.rho * s.u_y, k)["code"]
        return {r: int(np.sum(codes == i)) for i, r in enumerate(BranchRegion)}

    @staticmethod
    def assert_residual_reused(s, m, k, util):
        assert s.diagnostics.max_residual.hex() == residual_norm(s, m, k, util).hex()

    @pytest.mark.parametrize("q, region, count, digest, diagnostics", [
        (0.5, BranchRegion.HIGH_TAIL, 1929,
         "e76454fbadb55ee737edf2966b2d57f07cd89b225ebcb873155761a51d5ff1ad",
         "SolveDiagnostics(time_steps=200, max_abs_u=0.5, "
         "max_abs_u_y=0.3408246067704204, max_advection_cfl=0.006794126479329373, "
         "max_residual=4.576881549955836e-05, max_edge_abs_u_y=0.0006717804688028844)"),
        (-2.0, BranchRegion.ZERO, 1969,
         "5add78373db5d203def6c80d57538e77f084b472c70062e849cccafebea737ed",
         "SolveDiagnostics(time_steps=200, max_abs_u=0.3333333333333333, "
         "max_abs_u_y=0.1791686099314178, max_advection_cfl=0.003573774538170456, "
         "max_residual=3.282474314975081e-05, max_edge_abs_u_y=0.005656052353783303)"),
    ], ids=["high-tail", "zero"])
    def test_tail_market(self, q, region, count, digest, diagnostics):
        m = MarketModel(self.TAIL_B, self.ZERO, self.ZERO, 0.9)
        util = PowerUtility(q)
        s = solve_hjbi(m, self.TAIL_K, util, GridSpec(1.0, 201, 25, 3.0))
        assert self.region_counts(s, m, self.TAIL_K)[region] == count
        assert self.fingerprint(s) == (digest, diagnostics)
        self.assert_residual_reused(s, m, self.TAIL_K, util)

    def test_plus_corner_and_zero_market(self):
        # b falls 1 -> 0, so nature moves through the kernel's inner branches
        m = MarketModel(CoefficientFn.ramp(1.0, 0.0, 1.0), self.ZERO, self.ZERO, 0.9)
        util = PowerUtility(0.8)
        s = solve_hjbi(m, K, util, GridSpec(1.0, 201, 25, 3.0))
        counts = self.region_counts(s, m, K)
        assert counts[BranchRegion.PLUS_CORNER] == 10 and counts[BranchRegion.ZERO] == 1294
        assert self.fingerprint(s) == (
            "50c38f8fd60a2a23c9e9269c3d040ed4cd8f8917f6a68c37d852bb9a37c7dc2a",
            "SolveDiagnostics(time_steps=200, max_abs_u=15.125000000000004, "
            "max_abs_u_y=6.609868837981498, max_advection_cfl=0.13219737675962998, "
            "max_residual=0.017580647579167774, max_edge_abs_u_y=6.609868837981498)")
        self.assert_residual_reused(s, m, K, util)

    def test_ramp_model(self, ramp_model, smoke_util):
        s = solve_hjbi(ramp_model, K, smoke_util, GridSpec(1.0, 201, 25, 4.0))
        assert self.fingerprint(s) == (
            "e461d19993fa8d0fb669269ab6d8d35ea5fdce66169e492b1831b916443bcafc",
            "SolveDiagnostics(time_steps=200, max_abs_u=0.28625, "
            "max_abs_u_y=0.11112716616349012, max_advection_cfl=0.0023991298096162207, "
            "max_residual=1.3533285511679871e-06, max_edge_abs_u_y=7.587065736741269e-05)")
        self.assert_residual_reused(s, ramp_model, K, smoke_util)

    # H leaves out beta u_y where beta is 0 at every node, and q r where it
    # is +-0 at every node: one market for each side of each rule
    @pytest.mark.parametrize("beta, r, digest, diagnostics", [
        (0.05, 0.0,
         "f492ca54ad9784c6037e05ac9b9845e172b236e716a7aef8b24ee4466b131e08",
         "SolveDiagnostics(time_steps=200, max_abs_u=0.28125, "
         "max_abs_u_y=0.114713417027162, max_advection_cfl=0.0024638418883239353, "
         "max_residual=1.3509656248689161e-06, max_edge_abs_u_y=6.360943618911874e-05)"),
        (0.0, 0.02,
         "68223c7287bea821869568b4f825b7ab1f46ac1f9fb3d7808255045771325971",
         "SolveDiagnostics(time_steps=200, max_abs_u=0.29125, "
         "max_abs_u_y=0.1147134090161428, max_advection_cfl=0.0017137971670073606, "
         "max_residual=1.3301091718043168e-06, max_edge_abs_u_y=5.252017922894453e-05)"),
    ], ids=["constant-beta", "constant-rate"])
    def test_constant_beta_or_rate(self, smoke_util, beta, r, digest, diagnostics):
        m = MarketModel(CoefficientFn.ramp(0.0, 0.2, 2.0), CoefficientFn.constant(beta),
                        CoefficientFn.constant(r), 0.5)
        s = solve_hjbi(m, K, smoke_util, GridSpec(1.0, 201, 25, 4.0))
        assert self.fingerprint(s) == (digest, diagnostics)
        self.assert_residual_reused(s, m, K, smoke_util)


@pytest.mark.memory
class TestSolveMemory:
    def test_traced_peak_is_a_few_surfaces(self, ramp_model, smoke_util):
        # u, its u_y and the stepper's H rows are three surfaces, and the
        # residual, assembled in place, two more (about 5x).  Assembled out
        # of place it peaks near 7x, and a residual that forms H over the
        # whole surface again, with every branch value at every node, near
        # 11x: both fail.
        g = GridSpec(1.0, 2001, 321, 4.0)
        tracemalloc.start()
        try:
            s = solve_hjbi(ramp_model, K, smoke_util, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * s.u.nbytes, peak / s.u.nbytes


class TestMinusCornerReference:
    """Error, not residual: configs/ramp.yaml's market keeps nature at the
    (mu-, sigma+) corner everywhere, where the exact reference of
    oracles.minus_corner_reference applies (its own error on |y| <= 2 is
    2e-7 against a 7681-node reference)."""

    @pytest.fixture(scope="class")
    def ramp(self):
        cfg = load_config(str(Path(__file__).parent.parent / "configs" / "ramp.yaml"))
        t, y, u = minus_corner_reference(cfg.model, cfg.rectangle, cfg.utility.q,
                                         cfg.grid.horizon)
        return cfg, y, u

    def test_reference_stays_on_the_corner(self, ramp):
        cfg, y, u = ramp
        m, corner = cfg.model, list(BranchRegion).index(BranchRegion.MINUS_CORNER)
        b = m.b(y)[None, :]
        for rows in np.array_split(u, 12):
            kappa = m.rho * np.gradient(rows, y, axis=1)
            assert np.all(branch_fields(b, kappa, cfg.rectangle)["code"] == corner)

    def test_interior_error_is_second_order(self, ramp):
        cfg, y, u = ramp
        errors = []
        for n_t, n_y in ((501, 81), (1001, 161), (2001, 321)):
            s = solve_hjbi(cfg.model, cfg.rectangle, cfg.utility,
                           replace(cfg.grid, n_t=n_t, n_y=n_y))
            inner = np.abs(s.y) <= 2.0
            j = np.rint((s.y[inner] - y[0]) / (y[1] - y[0])).astype(int)
            assert np.max(np.abs(y[j] - s.y[inner])) <= 1e-12  # shared nodes
            errors.append(np.max(np.abs(s.u[0, inner] - u[0, j])))
        # dy/2 and dt/2 per level: about 4x (4.9e-5, 1.2e-5, 3.1e-6)
        assert errors[0] / errors[1] >= 3.0 and errors[1] / errors[2] >= 3.0, errors
