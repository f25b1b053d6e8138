import numpy as np
import pytest

from robustport import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                        UncertaintyRectangle, default_y_radius,
                        validate_assumptions)

from oracles import smooth_ramp


class TestCoefficientFn:
    def test_constant_everywhere(self):
        f = CoefficientFn.constant(0.1)
        assert f(5.0) == 0.1
        assert f(-123.0) == 0.1

    def test_ramp_tail_clamp(self):
        f = CoefficientFn.ramp(0.0, 0.2, 2.0)
        assert f(-3.0) == 0.0
        assert f(3.0) == 0.2

    def test_ramp_midpoint_symmetric(self):
        f = CoefficientFn.ramp(0.0, 0.2, 2.0)
        assert f(0.0) == pytest.approx(0.1, abs=1e-15)

    def test_exact_tails(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            left, right, n = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)
            for f in (CoefficientFn.ramp(left, right, n),
                      CoefficientFn.piecewise(left, right, n, [(-n / 2, 0.3), (n / 3, -0.1)])):
                for y in (-n, -n - 1, -10 * n):
                    assert f(y) == left
                for y in (n, n + 1, 10 * n):
                    assert f(y) == right

    def test_ramp_is_the_written_out_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for left, right, n in ((0.0, 0.2, 2.0), (0.1, -0.1, 2.0), (-0.7, 0.3, 0.6)):
            f = CoefficientFn.ramp(left, right, n)
            ys = np.concatenate([rng.normal(0.0, 0.6, 65536),
                                 [-n, n, *np.nextafter([-n, n], 0.0)],
                                 [-3 * n, 3 * n, *np.nextafter([-n, n], [-np.inf, np.inf])]])
            expect = smooth_ramp(ys, left, right, n)
            assert np.array_equal(f(ys).view(np.uint64), expect.view(np.uint64))
            for y in (0.0, -n, 0.3 * n, 2 * n, np.float64(0.1), np.array(-0.2)):
                got = f(y)
                assert type(got) is float
                assert got.hex() == float(smooth_ramp(y, left, right, n)).hex()

    def test_piecewise_interpolation_and_slopes(self):
        f = CoefficientFn.piecewise(0.0, 1.0, 2.0, [(0.0, 0.5)])
        assert f(-1.0) == pytest.approx(0.25)
        assert f(1.0) == pytest.approx(0.75)

    def test_extremes_at_tails_and_knots(self):
        # The premise of validate_assumptions' check.  Only rounding passes
        # it: the ramp's polynomial exceeds 1 by up to 9.1e-14 within 0.1%
        # of the right tail, and np.interp's sum can round past a knot value.
        rng = np.random.default_rng(2)
        for _ in range(100):
            left, right, n = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)
            knots = [(y, rng.uniform(-1, 1))
                     for y in np.sort(rng.uniform(-n, n, rng.integers(0, 5)))]
            vs = [left, right] + [v for _, v in knots]
            tol = 1e-13 * (max(vs) - min(vs)) + 4 * np.spacing(np.abs(vs).max())
            ys = np.concatenate([np.linspace(-2 * n, 2 * n, 4001),
                                 np.nextafter([-n, n], 0.0), n - np.geomspace(1e-9, 1e-2, 200)])
            for f in (CoefficientFn("constant", left, left, n),
                      CoefficientFn.ramp(left, right, n),
                      CoefficientFn.piecewise(left, right, n, knots)):
                vals = f(ys)
                assert min(vs) - tol <= vals.min() and vals.max() <= max(vs) + tol

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CoefficientFn("constant", 0.0, 1.0)
        with pytest.raises(ValueError):
            CoefficientFn.ramp(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            CoefficientFn.piecewise(0, 1, 1.0, [(2.0, 0.5)])  # knot outside (-N, N)
        with pytest.raises(ValueError):
            CoefficientFn.piecewise(0, 1, 1.0, [(0.5, 0.1), (0.2, 0.3)])  # unsorted
        with pytest.raises(ValueError):
            CoefficientFn("bogus", 0.0, 0.0)

    @pytest.mark.parametrize("make", [
        lambda x: CoefficientFn.constant(x),
        lambda x: CoefficientFn.ramp(x, 0.2, 1.0),
        lambda x: CoefficientFn.ramp(0.0, x, 1.0),
        lambda x: CoefficientFn.ramp(0.0, 0.2, x),
        lambda x: CoefficientFn.piecewise(0.0, 0.2, 1.0, [(x, 0.1)]),
        lambda x: CoefficientFn.piecewise(0.0, 0.2, 1.0, [(0.5, x)]),
    ], ids=["constant", "ramp-left", "ramp-right", "ramp-radius", "knot-y", "knot-value"])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, make, x):
        with pytest.raises(ValueError, match="finite"):
            make(x)


class TestUncertaintyRectangle:
    def test_sigma_mid_identity_machine_precision(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s_lo = rng.uniform(0.01, 1.0)
            s_hi = s_lo + rng.uniform(0.0, 1.0)
            k = UncertaintyRectangle(0.0, 0.1, s_lo, s_hi)
            lhs = k.sigma_mid**2 - ((s_hi - s_lo) / 2.0) ** 2
            assert lhs == pytest.approx(s_lo * s_hi, abs=1e-15, rel=1e-14)

    def test_invariants(self):
        with pytest.raises(ValueError):
            UncertaintyRectangle(0.3, 0.1, 0.2, 0.4)
        with pytest.raises(ValueError):
            UncertaintyRectangle(0.1, 0.3, 0.0, 0.4)  # sigma_minus must be > 0
        with pytest.raises(ValueError):
            UncertaintyRectangle(0.1, 0.3, 0.5, 0.4)

    def test_non_finite_bounds_rejected(self):
        for i in range(4):
            for x in (np.nan, np.inf, -np.inf):
                bounds = [0.1, 0.3, 0.2, 0.4]
                bounds[i] = x
                with pytest.raises(ValueError, match="finite"):
                    UncertaintyRectangle(*bounds)

    def test_contains(self):
        k = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)
        assert k.contains(0.2, 0.3)
        assert not k.contains(0.0, 0.3)


class TestPowerUtility:
    def test_q_validation(self):
        for q in (0.0, 1.0, 1.5, np.nan, -np.inf):
            with pytest.raises(ValueError):
                PowerUtility(q)


class TestGridSpec:
    def test_steps(self):
        g = GridSpec(1.0, 11, 21, 2.0)
        assert g.dt == pytest.approx(0.1)
        assert g.dy == pytest.approx(0.2)
        assert len(g.t_nodes()) == 11 and len(g.y_nodes()) == 21

    def test_invariants(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 11, 21, 2.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 1, 21, 2.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 11, 2, 2.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 11, 21, 2.0, theta=1.5)
        for x in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                GridSpec(x, 11, 21, 2.0)
            with pytest.raises(ValueError, match="finite"):
                GridSpec(1.0, 11, 21, x)

    def test_default_radius_margin(self, ramp_model):
        assert default_y_radius(ramp_model) == pytest.approx(4.0)


class TestMarketModel:
    def test_rho_validation(self):
        with pytest.raises(ValueError):
            MarketModel(CoefficientFn.constant(0.0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), rho=1.2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            MarketModel(CoefficientFn.constant(0.0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(-0.01), rho=0.5)


class TestValidateAssumptions:
    def test_zero_b_passes(self, smoke_rect):
        m = MarketModel(CoefficientFn.constant(0.0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), 0.5)
        assert validate_assumptions(m, smoke_rect).passed

    def test_constant_violation_reported_not_raised(self, smoke_rect):
        m = MarketModel(CoefficientFn.constant(-0.2), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), 0.5)
        report = validate_assumptions(m, smoke_rect)
        assert not report.passed
        assert any(i.assumption == "A3" for i in report.issues)
        assert "A3" in report.summary()

    def test_ramp_min_above_negative_mu(self, smoke_rect):
        m = MarketModel(CoefficientFn.ramp(-0.05, 0.3, 2.0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), 0.5)
        assert validate_assumptions(m, smoke_rect).passed

    def test_narrow_dip_reported_at_its_knot(self, dip_model, smoke_rect):
        report = validate_assumptions(dip_model, smoke_rect)
        assert [(i.assumption, i.witness_y) for i in report.issues] == [("A3", 0.005)]
        assert "A3 at y=0.005: b(0.005) + mu_minus = -0.4 < 0" in report.summary()

    def test_ramp_violation_reported_at_its_tail(self, smoke_rect):
        m = MarketModel(CoefficientFn.ramp(-0.2, 0.3, 2.0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(0.0), 0.5)
        report = validate_assumptions(m, smoke_rect)
        assert [(i.assumption, i.witness_y) for i in report.issues] == [("A3", -2.0)]

    def test_boundary_case_passes(self):
        # b + mu_minus == 0 at the least knot: no tolerance either way
        m = MarketModel(CoefficientFn.piecewise(0.0, 0.0, 1.0, [(0.5, -0.25)]),
                        CoefficientFn.constant(0.0), CoefficientFn.constant(0.0), 0.5)
        assert validate_assumptions(m, UncertaintyRectangle(0.25, 0.3, 0.2, 0.4)).passed
        assert not validate_assumptions(
            m, UncertaintyRectangle(np.nextafter(0.25, 0), 0.3, 0.2, 0.4)).passed

