import collections
import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from robustport import (AdversaryPolicy, CoefficientFn, GridSpec, MarketModel,
                        PowerUtility, SimConfig, UncertaintyRectangle,
                        UtilityEstimate, build_policy, simulate_eu,
                        solve_hjbi, terminal_wealths, value_function, verify_saddle)
from robustport import simulate
from robustport.simulate import (BATCH_SIZE, _estimates, _log_wealth, _loading_key,
                                 _n_rows, _own_columns, _plan, _point_moments,
                                 _saddle_adversaries, _step_times, _wealth_batches)
from robustport.worst_case import drawable_sigmas, measure_moments

from oracles import constant_field, lognormal_eu, record_results, traced_peak, words

K = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)


@pytest.fixture
def draws(monkeypatch):
    """A Counter of the standard_normal and random draws of the generators
    made by np.random.default_rng while the test runs, one per call."""
    counts = collections.Counter()
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, *args, **kwargs):
            counts["standard_normal"] += 1
            return self._gen.standard_normal(*args, **kwargs)

        def random(self, *args, **kwargs):
            counts["random"] += 1
            return self._gen.random(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(self._gen, attr)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: Counting(default_rng(*a, **k)))
    return counts


def path_sets(groups, rho, cfg):
    """The indices of the (adversary, scales) groups in each path set of
    _plan, in order: a group's set is the one whose row block holds its
    first row."""
    sets, slots = _plan(groups, rho, cfg)
    ends = np.cumsum([_n_rows(run) for run in sets])
    members = [[] for _ in sets]
    for i, rows in enumerate(slots):
        members[int(np.searchsorted(ends, rows[0], side="right"))].append(i)
    return members


def full_arrays(pf):
    """pf with its measure stored node by node: the same values, not one node."""
    return dataclasses.replace(pf, **{name: np.array(getattr(pf, name))
                                      for name in ("atom_mu", "sigma_a", "sigma_b",
                                                   "weight_a", "branch_code")})


def const_model(b=0.0, beta=0.0, r=0.0, rho=0.5):
    return MarketModel(CoefficientFn.constant(b), CoefficientFn.constant(beta),
                       CoefficientFn.constant(r), rho)


@pytest.fixture(scope="module")
def smoke_pipeline(smoke_model, smoke_util):
    g = GridSpec(1.0, 401, 101, 3.0, 0.5)
    s = solve_hjbi(smoke_model, K, smoke_util, g)
    pf = build_policy(s, smoke_model, K, smoke_util)
    return s, pf


TAIL_K = UncertaintyRectangle(0.0, 0.3, 0.2, 0.4)
TAIL_UTIL = PowerUtility(0.5)
TAIL_MODEL = MarketModel(CoefficientFn.ramp(0.0, 0.4, 1.0), CoefficientFn.constant(0.0),
                         CoefficientFn.constant(0.0), 0.9)


@pytest.fixture(scope="module")
def tail_pipeline():
    """mu- = 0 lets the tail branch win: two-atom measures on ~40% of nodes."""
    m = TAIL_MODEL
    s = solve_hjbi(m, TAIL_K, TAIL_UTIL, GridSpec(1.0, 201, 61, 3.0))
    pf = build_policy(s, m, TAIL_K, TAIL_UTIL)
    assert 0.3 < np.mean(pf.weight_a < 1.0) < 0.5
    return m, s, pf


@pytest.fixture(scope="module")
def bench_tail_pf():
    """nu* of the tail market on the 801 x 121 surface the benchmark's
    mc-saddle workload solves."""
    s = solve_hjbi(TAIL_MODEL, TAIL_K, TAIL_UTIL, GridSpec(1.0, 801, 121, 3.0))
    return build_policy(s, TAIL_MODEL, TAIL_K, TAIL_UTIL)


@pytest.fixture(scope="module")
def ramp_pipeline(ramp_model, smoke_rect, smoke_util):
    """configs/ramp.yaml's market on a coarse grid: b and beta are ramps of
    one tail radius, and nu* is the (mu-, sigma+) corner at every node."""
    s = solve_hjbi(ramp_model, smoke_rect, smoke_util, GridSpec(1.0, 201, 41, 4.0))
    pf = build_policy(s, ramp_model, smoke_rect, smoke_util)
    assert pf.one_node is not None
    return s, pf


class TestSimulateEU:
    def test_lognormal_reference(self):
        m = const_model(rho=0.5)
        cfg = SimConfig(n_paths=40_000, n_steps=50, seed=4, x0=1.0, y0=0.0, horizon=1.0)
        adv = AdversaryPolicy.constant_point(0.1, 0.3)
        est = simulate_eu(0.5, adv, m, cfg, q=0.5)
        exact = lognormal_eu(1.0, 0.5, 0.5, 0.1, 0.3, 0.0, 0.0, 1.0)
        assert abs(est.mean - exact) <= 3 * est.std_error

    def test_zero_fraction_is_deterministic(self):
        m = const_model()
        cfg = SimConfig(n_paths=5_000, n_steps=20, seed=5, x0=1.3, y0=0.0, horizon=1.0)
        est = simulate_eu(0.0, AdversaryPolicy.constant_point(0.2, 0.3), m, cfg, q=0.5)
        assert est.mean == pytest.approx(1.3**0.5 / 0.5, abs=1e-12)
        assert est.std_error == 0.0
        assert est.min_terminal_wealth == pytest.approx(1.3)

    def test_rate_compounds_without_exposure(self):
        m = const_model(r=0.04)
        cfg = SimConfig(n_paths=2_000, n_steps=16, seed=6, x0=1.0, y0=0.0, horizon=2.0)
        est = simulate_eu(0.0, AdversaryPolicy.constant_point(0.2, 0.3), m, cfg, q=0.5)
        assert est.mean == pytest.approx(np.exp(0.04 * 2.0) ** 0.5 / 0.5, rel=1e-12)

    def test_wealth_stays_positive(self, smoke_pipeline, smoke_model):
        _, pf = smoke_pipeline
        cfg = SimConfig(n_paths=20_000, n_steps=50, seed=7, x0=1.0, y0=0.0, horizon=1.0)
        est = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        assert est.min_terminal_wealth > 0.0
        w = terminal_wealths(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        assert np.all(w > 0) and len(w) == cfg.n_paths
        assert w.min() == pytest.approx(est.min_terminal_wealth)

    def test_same_seed_bit_identical(self, smoke_pipeline, smoke_model):
        _, pf = smoke_pipeline
        cfg = SimConfig(n_paths=10_000, n_steps=30, seed=8, x0=1.0, y0=0.0, horizon=1.0)
        a = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        b = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        assert a == b

    def test_different_seeds_differ(self, smoke_pipeline, smoke_model):
        _, pf = smoke_pipeline
        cfg = SimConfig(n_paths=10_000, n_steps=30, seed=8, x0=1.0, y0=0.0, horizon=1.0)
        cfg2 = SimConfig(n_paths=10_000, n_steps=30, seed=9, x0=1.0, y0=0.0, horizon=1.0)
        a = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        b = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg2)
        assert a.mean != b.mean

    def test_step_refinement_within_noise(self, smoke_pipeline, smoke_model):
        _, pf = smoke_pipeline
        base = SimConfig(n_paths=50_000, n_steps=50, seed=10, x0=1.0, y0=0.0, horizon=1.0)
        fine = SimConfig(n_paths=50_000, n_steps=100, seed=10, x0=1.0, y0=0.0, horizon=1.0)
        a = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, base)
        b = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, fine)
        assert abs(a.mean - b.mean) < 2 * max(a.std_error, b.std_error)

    def test_perfect_correlation_with_single_driver(self):
        # single-atom adversary and rho = 1: X and Y share the Brownian driver
        m = const_model(rho=1.0)
        cfg = SimConfig(n_paths=4_000, n_steps=25, seed=11, x0=1.0, y0=0.0, horizon=1.0)
        w = terminal_wealths(0.8, AdversaryPolicy.constant_point(0.15, 0.25), m, cfg)
        # ln X_T = (mu f - f^2 s^2/2) T + f s W_T, so W_T is recoverable
        wt = (np.log(w) - (0.8 * 0.15 - 0.5 * 0.64 * 0.0625)) / (0.8 * 0.25)
        assert abs(np.std(wt) - 1.0) < 0.05

    def test_constant_measure_adversary(self):
        # a relaxed two-atom field acts through its moments: lognormal at
        # sigma = sqrt((sigma^2, nu))
        m = const_model(rho=0.5)
        pf = constant_field(0.5, 0.2, 0.2, 0.4, 0.5)
        cfg = SimConfig(n_paths=30_000, n_steps=40, seed=12, x0=1.0, y0=0.0, horizon=1.0)
        est = simulate_eu(0.5, AdversaryPolicy.field(pf), m, cfg, q=0.5)
        exact = lognormal_eu(1.0, 0.5, 0.5, 0.2, np.sqrt(0.5 * 0.04 + 0.5 * 0.16),
                             0.0, 0.0, 1.0)
        assert abs(est.mean - exact) <= 3 * est.std_error

    def test_field_equals_its_constant_point(self, smoke_pipeline, smoke_model):
        # the flat field is the (mu-, sigma+) corner at every node: the relaxed
        # adversaries share their normals, and scalar moments equal array ones
        _, pf = smoke_pipeline
        cfg = SimConfig(n_paths=10_000, n_steps=30, seed=17, x0=1.0, y0=0.0, horizon=1.0)
        field = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        point = simulate_eu(pf, AdversaryPolicy.constant_point(K.mu_minus, K.sigma_plus),
                            smoke_model, cfg)
        assert field == point

    def test_non_finite_wealth_raises(self):
        cfg = SimConfig(n_paths=10, n_steps=2, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        with pytest.raises(FloatingPointError, match="non-finite wealth on path 0"):
            simulate_eu(float("nan"), AdversaryPolicy.constant_point(0.1, 0.3),
                        const_model(), cfg, q=0.5)

    def test_field_on_another_horizon_refused(self, smoke_pipeline, smoke_model, smoke_util):
        # the grid ends at t = 1: run to t = 2, the paths would read its last
        # time row for a second unit of time and blame the saddle
        s, pf = smoke_pipeline
        cfg = SimConfig(n_paths=10, n_steps=2, seed=1, x0=1.0, y0=0.0, horizon=2.0)
        point = AdversaryPolicy.constant_point(0.2, 0.3)
        refused = pytest.raises(ValueError, match=r"policy field horizon 1\.0 differs "
                                r"from the simulation horizon 2\.0")
        for policy, adv in ((pf, point), (0.5, AdversaryPolicy.field(pf)),
                            (0.5, AdversaryPolicy.chattering(pf))):
            with refused:
                simulate_eu(policy, adv, smoke_model, cfg, q=0.5)
            with refused:
                terminal_wealths(policy, adv, smoke_model, cfg)
        with refused:
            verify_saddle(s, pf, smoke_model, K, smoke_util, cfg)

    def test_q_required_for_constant_fraction(self):
        cfg = SimConfig(n_paths=10, n_steps=2, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_eu(0.5, AdversaryPolicy.constant_point(0.1, 0.3), const_model(), cfg)


class TestSimConfig:
    @pytest.mark.parametrize("field", ["x0", "y0", "horizon"])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, x):
        kwargs = dict(n_paths=10, n_steps=5, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        kwargs[field] = x
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**kwargs)


class TestAdversaryValidation:
    def test_point_must_lie_in_rectangle(self):
        with pytest.raises(ValueError):
            AdversaryPolicy.constant_point(0.5, 0.3, K)
        with pytest.raises(ValueError):
            AdversaryPolicy.constant_point(0.2, 0.0)

    def test_exactly_one_of_point_and_field(self):
        pf = constant_field(0.5, 0.2, 0.2, 0.4, 0.5)
        with pytest.raises(ValueError, match="exactly one"):
            AdversaryPolicy("x")
        with pytest.raises(ValueError, match="exactly one"):
            AdversaryPolicy("x", point=(0.1, 0.3), pf=pf)

    @pytest.mark.parametrize("point", [(0.1, 0.0), (0.1, -0.3), (0.1, np.nan),
                                       (0.1, np.inf), (np.nan, 0.3), (-np.inf, 0.3)])
    def test_point_needs_finite_mu_and_positive_sigma(self, point):
        with pytest.raises(ValueError, match="finite"):
            AdversaryPolicy("x", point=point)

    def test_chatter_needs_a_field(self):
        with pytest.raises(ValueError, match="chatter"):
            AdversaryPolicy("x", point=(0.1, 0.3), chatter=True)

    def test_field_moments_checked(self):
        # moments that no measure has ((sigma, nu)^2 > (sigma^2, nu)) are refused:
        # weight 1.5 gives (sigma, nu) = 0.1 and (sigma^2, nu) = -0.02
        pf = constant_field(0.5, 0.2, 0.2, 0.4, 1.5)
        cfg = SimConfig(n_paths=10, n_steps=2, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        with pytest.raises(AssertionError, match="invariant"):
            simulate_eu(pf, AdversaryPolicy.field(pf), const_model(), cfg)
        # such a one-node field has no loading key: it keeps a path set of its
        # own, where the engine's check still fires, also where its loadings
        # are finite (weight 1.2: (sigma, nu) = 0.16 and (sigma^2, nu) = 0.016)
        for weight in (1.5, 1.2):
            pf = constant_field(0.5, 0.2, 0.2, 0.4, weight)
            groups = [(AdversaryPolicy.constant_point(0.2, 0.3), (1.0,)),
                      (AdversaryPolicy.field(pf), (1.0,)), (AdversaryPolicy.field(pf), (1.0,))]
            assert path_sets(groups, 0.5, cfg) == [[0], [1], [2]]
            with pytest.raises(AssertionError, match="invariant"):
                _estimates(pf, groups, const_model(), cfg, None)


class TestFixed:
    """AdversaryPolicy.fixed: the (mu, sigma, sigma^2) the paths see at every
    node and draw, or None; draws_atoms and moments read it."""

    TWO_ATOMS = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)

    @pytest.mark.parametrize("adv, fixed, draws_atoms", [
        (AdversaryPolicy.constant_point(0.1, 0.3), (0.1, 0.3, 0.3 * 0.3), False),
        (AdversaryPolicy.field(TWO_ATOMS), (0.15, 0.4 * 0.2 + (1.0 - 0.4) * 0.4,
                                            0.4 * (0.2 * 0.2) + (1.0 - 0.4) * (0.4 * 0.4)),
         False),
        (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.2, 0.4, 1.0)),
         (0.15, 0.2, 0.2 * 0.2), False),
        (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.2, 0.4, 0.0)),
         (0.15, 0.4, 0.4 * 0.4), False),
        # no uniform falls below a NaN weight: every path draws sigma_b
        (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.2, 0.4, np.nan)),
         (0.15, 0.4, 0.4 * 0.4), False),
        (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.3, 0.3, 0.4)),
         (0.15, 0.3, 0.3 * 0.3), False),
        (AdversaryPolicy.chattering(TWO_ATOMS), None, True),
        (AdversaryPolicy.field(full_arrays(TWO_ATOMS)), None, False),
        (AdversaryPolicy.chattering(full_arrays(constant_field(0.7, 0.15, 0.2, 0.4, 1.0))),
         None, True),
    ], ids=["point", "one-node-field", "chattering-weight-1", "chattering-weight-0",
            "chattering-nan-weight", "chattering-equal-sigmas", "chattering-two-sigmas",
            "field-not-one-node", "chattering-not-one-node"])
    def test_fixed(self, adv, fixed, draws_atoms):
        assert words(adv.fixed) == words(fixed)
        assert adv.draws_atoms is draws_atoms
        if fixed is not None:
            assert adv.moments(0.3, np.zeros(4), None) is adv.fixed

    def test_tail_field_is_not_fixed(self, tail_pipeline):
        _, _, pf = tail_pipeline
        assert AdversaryPolicy.field(pf).fixed is None
        assert AdversaryPolicy.chattering(pf).draws_atoms


class TestFieldLookup:
    def test_moments_at_gathers_the_moment_surfaces(self, tail_pipeline):
        # the row-first moments equal the whole surfaces gathered at the node,
        # bit for bit, also where y is clamped beyond the grid
        _, _, pf = tail_pipeline
        surfaces = (pf.mu_mean, pf.sigma_mean, pf.sigma_sq_mean)
        y = np.array([-9.0, -3.0, -1.234, 0.0, 0.02, 0.77, 2.99, 3.0, 12.0])
        for t in (0.0, 0.013, 0.5, 0.999, 1.0, 1.7):
            it, jy = pf.node_index(t, y)
            for got, surface in zip(pf.moments_at(t, y), surfaces):
                want = surface[it, jy]
                assert got.tobytes() == want.tobytes()
        assert np.any(pf.weight_a < 1.0)


class TestChattering:
    def test_chattering_matches_moment_simulation(self, smoke_model, smoke_util):
        # on a single-atom field chattering degenerates to the field itself, and
        # its uniforms come from their own stream: the paths are the same
        g = GridSpec(1.0, 201, 51, 3.0, 0.5)
        s = solve_hjbi(smoke_model, K, smoke_util, g)
        pf = build_policy(s, smoke_model, K, smoke_util)
        assert np.all(pf.weight_a == 1.0)
        cfg = SimConfig(n_paths=50_000, n_steps=50, seed=13, x0=1.0, y0=0.0, horizon=1.0)
        field = simulate_eu(pf, AdversaryPolicy.field(pf), smoke_model, cfg)
        chat = simulate_eu(pf, AdversaryPolicy.chattering(pf), smoke_model, cfg)
        assert field == chat

    def test_two_atom_chattering_agrees_with_moments(self):
        # constant fraction, constant two-atom field: relaxed vs per-step atoms
        m = const_model(rho=0.5)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        cfg = SimConfig(n_paths=120_000, n_steps=60, seed=14, x0=1.0, y0=0.0, horizon=1.0)
        moment = simulate_eu(0.7, AdversaryPolicy.field(pf), m, cfg, q=0.5)
        chat = simulate_eu(0.7, AdversaryPolicy.chattering(pf), m, cfg, q=0.5)
        se = np.hypot(moment.std_error, chat.std_error)
        assert abs(moment.mean - chat.mean) <= 3 * se

    def test_atom_moments_keep_the_bits_of_a_one_atom_measure(self, tail_pipeline):
        # the atoms chattering draws on the tail field, and the floats where
        # the moments must break (NaN, so the invariant check raises): every
        # bit as measure_moments forms it, but where a finite sigma squares to
        # infinity, whose sigma^2 is NaN either way
        _, _, pf = tail_pipeline
        sig = np.concatenate([drawable_sigmas(pf.sigma_a, pf.sigma_b, pf.weight_a),
                              [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]])
        mu = np.arange(sig.size, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _point_moments(mu, sig), measure_moments(mu, sig, sig, 1.0)
            squares = np.isfinite(sig * sig) | ~np.isfinite(sig)
        assert squares.sum() == sig.size - 2
        assert got[0] is mu
        assert got[2].tobytes() == want[2].tobytes()
        assert got[1][squares].tobytes() == want[1][squares].tobytes()
        assert np.all(np.isnan(got[1][~squares])) and np.all(np.isnan(got[2][~squares]))
        for s in (0.0, -0.0, 0.3, math.inf, math.nan):  # a point's floats
            assert np.array(_point_moments(0.1, s)).tobytes() == np.array(
                measure_moments(0.1, s, s, 1.0)).tobytes()


class TestVerifySaddle:
    def test_smoke_report_passes(self, smoke_pipeline, smoke_model, smoke_util):
        s, pf = smoke_pipeline
        cfg = SimConfig(n_paths=40_000, n_steps=100, seed=15, x0=1.0, y0=0.0, horizon=1.0)
        report = verify_saddle(s, pf, smoke_model, K, smoke_util, cfg)
        assert report.passed, report.summary()
        kinds = {f.kind for f in report.findings}
        assert kinds == {"value-match", "adversary", "policy-scale"}
        assert sum(f.kind == "adversary" for f in report.findings) == 4 + 3 + 1
        assert sum(f.kind == "policy-scale" for f in report.findings) == 5
        assert report.pde_value == pytest.approx(
            value_function(s, 0.0, 1.0, 0.0, 0.5), rel=1e-12)
        assert "V0_hat" in report.summary()

    def test_violations_reported_not_raised(self, smoke_pipeline, smoke_model, smoke_util):
        # a deliberately bad "policy": huge constant over-exposure cannot be
        # optimal, so the scale-1.0 entry stays but deviations flag nothing;
        # instead check the value-match finding fails against the PDE value.
        s, _ = smoke_pipeline
        bad_pf = build_policy(s, smoke_model, K, smoke_util)
        cfg = SimConfig(n_paths=20_000, n_steps=50, seed=16, x0=1.0, y0=0.0, horizon=1.0)
        report = verify_saddle(s, bad_pf, smoke_model, K, smoke_util, cfg,
                               policy_scales=(3.0,))
        scale_findings = [f for f in report.findings if f.kind == "policy-scale"]
        assert scale_findings and all(f.passed for f in scale_findings)

    @pytest.mark.xfail(strict=True,
                       reason="the gates combine the SEs of paired estimates as if "
                              "independent, so a policy 30% off pi* passes all 14; "
                              "ROADMAP item 2 (paired saddle gates) mends it")
    def test_a_scaled_policy_fails(self, smoke_pipeline, smoke_model, smoke_util):
        s, pf = smoke_pipeline
        cfg = SimConfig(n_paths=16384, n_steps=50, seed=20240, x0=1.0, y0=0.0, horizon=1.0)
        for factor in (1.3, 0.7):
            wrong = dataclasses.replace(pf, pi_frac=pf.pi_frac * factor)
            report = verify_saddle(s, wrong, smoke_model, K, smoke_util, cfg)
            assert not report.passed, f"{factor} x pi* passes:\n{report.summary()}"


def test_zero_ramps_give_the_bits_of_zero_constants(smoke_util):
    # beta = r = 0 as a constant the steppers leave out, or as a ramp whose
    # rows of +-0 they add: the solve and the saddle report keep every bit
    b = CoefficientFn.ramp(0.0, 0.2, 2.0)
    zeros = [CoefficientFn.ramp(0.0, 0.0, 2.0), CoefficientFn.ramp(-0.0, -0.0, 2.0),
             CoefficientFn.constant(0.0), CoefficientFn.constant(-0.0)]
    cfg = SimConfig(n_paths=4096, n_steps=20, seed=31001, x0=1.0, y0=0.0, horizon=1.0)
    seen = set()
    for zero in zeros:
        m = MarketModel(b, zero, zero, 0.5)
        s = solve_hjbi(m, K, smoke_util, GridSpec(1.0, 501, 81, 4.0))
        report = verify_saddle(s, build_policy(s, m, K, smoke_util), m, K, smoke_util, cfg)
        seen.add((s.u.tobytes(), s.u_y.tobytes(), repr(report)))
    assert len(seen) == 1


class TestSharedPaths:
    """The policy scalings of one adversary, and the fixed points that load
    the factor alike, run on one set of paths."""

    @pytest.mark.parametrize("chatter", [False, True])
    def test_scales_equal_single_scale_runs(self, tail_pipeline, chatter):
        m, _, pf = tail_pipeline
        adv = AdversaryPolicy(pf=pf, label="nu*", chatter=chatter)
        cfg = SimConfig(n_paths=BATCH_SIZE + 500, n_steps=6, seed=21, x0=1.3, y0=0.2,
                        horizon=1.0)
        scales = (0.0, 0.5, 1.0, 1.5)
        together = _estimates(pf, [(adv, scales)], m, cfg, None)
        assert together == (tuple(simulate_eu(pf, adv, m, cfg, policy_scale=s)
                                  for s in scales),)

    @pytest.mark.parametrize("seed, n_sets", [(31001, 2), (20240, 4)])
    def test_grouped_equals_alone(self, tail_pipeline, seed, n_sets):
        # at seed 31001 all 7 constant points load the factor alike; at 20240
        # two random points round rho*sigma/sigma differently from the rest.
        # Chattering joins the corners: the rows its paths read before the
        # last step (0 and 67 of 201) draw sigma- or sigma+ only
        m, s, pf = tail_pipeline
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=seed, x0=1.0, y0=0.0,
                        horizon=1.0)
        # a multi-scale entry comes first in the field's path set and in the
        # corners' one: its rows must not shift the entries after it
        field = AdversaryPolicy.field(pf)
        first, *rest = adversaries = _saddle_adversaries(pf, TAIL_K, seed)
        groups = [(field, (1.0, 0.5)), (first, (1.0, 0.5)), *((adv, (1.0,)) for adv in rest)]
        assert len(path_sets(groups, m.rho, cfg)) == n_sets
        grouped = _estimates(pf, groups, m, cfg, TAIL_UTIL)
        assert grouped == tuple(tuple(simulate_eu(pf, adv, m, cfg, policy_scale=scale)
                                      for scale in scales) for adv, scales in groups)

        report = verify_saddle(s, pf, m, TAIL_K, TAIL_UTIL, cfg, policy_scales=(0.5,))
        (base, scaled), *deviations = grouped
        assert report.base == base
        found = [(f.kind, f.label, f.eu, f.std_error) for f in report.findings[1:]]
        assert found == [("adversary", adv.label, est.mean, est.std_error)
                         for adv, (est, *_) in zip(adversaries, deviations)] + [
            ("policy-scale", "0.5*pi*", scaled.mean, scaled.std_error)]

    def test_rows_must_share_the_factor_path(self, tail_pipeline):
        # the groups of one path set share the factor path: the engine gives
        # one row per scale of each group, in order
        m, _, pf = tail_pipeline
        cfg = SimConfig(n_paths=10, n_steps=2, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        adversaries = _saddle_adversaries(pf, TAIL_K, 20240)
        (a, b, *_), *_ = path_sets([(adv, (1.0,)) for adv in adversaries], m.rho, cfg)
        x_t = next(_wealth_batches(
            pf, [[(adversaries[a], (1.0, 2.0)), (adversaries[b], (0.5,))]], m, cfg))
        assert x_t.shape == (3, 10)

    def test_tail_report_is_pinned(self, tail_pipeline):
        # the values of the engine that ran each (adversary, scale) pair alone
        m, s, pf = tail_pipeline
        cfg = SimConfig(n_paths=4096, n_steps=10, seed=31001, x0=1.0, y0=0.0, horizon=1.0)
        report = verify_saddle(s, pf, m, TAIL_K, TAIL_UTIL, cfg)
        assert report.base == UtilityEstimate(
            mean=2.671484343424079, std_error=0.053746303189019955, n_paths=4096,
            min_terminal_wealth=0.02089384130130669, max_terminal_wealth=1002.2704845486858)
        assert report.pde_value == 2.6577349121978466
        assert [(f.kind, f.label, f.eu, f.std_error, f.bound, f.passed)
                for f in report.findings] == [
            ('value-match', 'EU(pi*, nu*) vs PDE', 2.671484343424079, 0.053746303189019955,
             2.6577349121978466, True),
            ('adversary', 'point(0,0.2)', 3.328723612936602, 0.036699133229550825,
             2.4762423823179236, True),
            ('adversary', 'point(0,0.4)', 2.6728006867195573, 0.05379306451706498,
             2.443358873408983, True),
            ('adversary', 'point(0.3,0.2)', 6.102179647501579, 0.08378607763312766,
             2.3728559000288207, True),
            ('adversary', 'point(0.3,0.4)', 4.999348274142724, 0.11550523900933195,
             2.2892918158861892, True),
            ('adversary', 'random(0.295,0.378)', 5.119284892654624, 0.11177150900148485,
             2.299417389800681, True),
            ('adversary', 'random(0.170,0.237)', 4.584053568259211, 0.06439740043820665,
             2.419847278175012, True),
            ('adversary', 'random(0.176,0.344)', 4.174570553840946, 0.07905227840499669,
             2.384706815630208, True),
            ('adversary', 'chattering', 2.672534476237545, 0.053784917160779586,
             2.4433761634210334, True),
            ('policy-scale', '0*pi*', 2.0, 0.0, 2.832723252991139, True),
            ('policy-scale', '0.5*pi*', 2.46173888930319, 0.02122860662465713,
             2.844844862607065, True),
            ('policy-scale', '0.8*pi*', 2.6398340119483312, 0.03966400381464758,
             2.871876670487392, True),
            ('policy-scale', '1.2*pi*', 2.6153563993201474, 0.06827608139853726,
             2.932161529956832, True),
            ('policy-scale', '1.5*pi*', 2.3616274501760586, 0.08791339848634715,
             2.9806070968071774, True),
        ]

    def test_corner_report_is_pinned(self, smoke_pipeline, smoke_model, smoke_util):
        # nu* is the (mu-, sigma+) corner at every node and b, beta and r are
        # constants: the values of the engine that formed b(Y) as a row and
        # added r = 0 and beta dt = 0 row by row.  y0 = -0.0 reads as 0.0
        s, pf = smoke_pipeline
        cfg = SimConfig(n_paths=4096, n_steps=10, seed=31001, x0=1.0, y0=0.0, horizon=1.0)
        report = verify_saddle(s, pf, smoke_model, K, smoke_util, cfg)
        assert report.base == UtilityEstimate(
            mean=2.0812595204984623, std_error=0.008231823779743554, n_paths=4096,
            min_terminal_wealth=0.17677561035036846, max_terminal_wealth=5.910443355629244)
        assert report.pde_value == 2.0634868149982046
        assert [(f.kind, f.label, f.eu, f.std_error, f.bound, f.passed)
                for f in report.findings] == [
            ('value-match', 'EU(pi*, nu*) vs PDE', 2.0812595204984623, 0.008231823779743554,
             2.0634868149982046, True),
            ('adversary', 'point(0.1,0.2)', 2.1215443921123462, 0.004154589126643305,
             2.0535970585334136, True),
            ('adversary', 'point(0.1,0.4)', 2.0812595204984623, 0.008231823779743554,
             2.046334850001326, True),
            ('adversary', 'point(0.3,0.2)', 2.4040247460347057, 0.004707766241984119,
             2.0528107266475932, True),
            ('adversary', 'point(0.3,0.4)', 2.3583760060834367, 0.009327878381935122,
             2.0439372732370726, True),
            ('adversary', 'random(0.297,0.378)', 2.3602063038813332, 0.008818638686422622,
             2.045068612811561, True),
            ('adversary', 'random(0.214,0.237)', 2.272109833547908, 0.005286550631336565,
             2.05190999132224, True),
            ('adversary', 'random(0.217,0.344)', 2.254740278285312, 0.007651797898741441,
             2.0475428124086235, True),
            ('adversary', 'chattering', 2.0812595204984623, 0.008231823779743554,
             2.046334850001326, True),
            ('policy-scale', '0*pi*', 2.0, 0.0, 2.105954991837693, True),
            ('policy-scale', '0.5*pi*', 2.056271333252199, 0.004026765857136741,
             2.1087513355364074, True),
            ('policy-scale', '0.8*pi*', 2.0751309732564396, 0.006535226203311742,
             2.1127912337158383, True),
            ('policy-scale', '1.2*pi*', 2.082163903562456, 0.009939529752100544,
             2.1199766300225833, True),
            ('policy-scale', '1.5*pi*', 2.073698927366429, 0.012505926643210534,
             2.126175554556636, True),
        ]
        negative = dataclasses.replace(cfg, y0=-0.0)
        assert verify_saddle(s, pf, smoke_model, K, smoke_util, negative) == report

    def test_one_path_set_per_adversary(self, tail_pipeline, draws):
        # at seed 5: nu* with the base and its five scalings; the 4 corners,
        # 2 random points and chattering, whose factor loadings are equal
        # floats (at 2 steps its paths read row 0 before the last step,
        # where it draws sigma- or sigma+ only); the third random point,
        # whose loading rounds differently.  3 path sets, advancing together
        # on one normal draw per step and batch (one pass per set drew 3
        # times as many, one run per (adversary, scale) pair 14 times), and
        # one uniform draw for chattering
        m, s, pf = tail_pipeline
        cfg = SimConfig(n_paths=BATCH_SIZE + 1, n_steps=2, seed=5, x0=1.0, y0=0.0,
                        horizon=1.0)
        groups = [(AdversaryPolicy.field(pf), (1.0,)),
                  *((adv, (1.0,)) for adv in _saddle_adversaries(pf, TAIL_K, cfg.seed))]
        assert len(path_sets(groups, m.rho, cfg)) == 3
        verify_saddle(s, pf, m, TAIL_K, TAIL_UTIL, cfg)
        assert draws == {"standard_normal": cfg.n_steps * 2, "random": cfg.n_steps * 2}

    def test_chattering_sets_share_one_uniform_draw(self, draws):
        # at rho = 0.9 the atoms 0.2 and 0.4 load the factor by rho, the atom
        # 0.3 does not: two chattering adversaries on two path sets, which
        # read the same uniforms a step, as each set run alone draws them;
        # without chattering there is no uniform draw
        m = const_model(rho=0.9)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        cfg = SimConfig(n_paths=2 * BATCH_SIZE + 7, n_steps=4, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        groups = [(AdversaryPolicy.chattering(pf), (1.0, 0.5)),
                  (AdversaryPolicy.field(pf), (1.0,)),
                  (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.3, 0.3, 1.0)),
                   (1.0,))]
        assert path_sets(groups, m.rho, cfg) == [[0], [1], [2]]
        _estimates(0.7, groups, m, cfg, 0.5)
        assert draws == {"standard_normal": cfg.n_steps * 3, "random": cfg.n_steps * 3}
        draws.clear()
        _estimates(0.7, groups[1:2], m, cfg, 0.5)
        assert draws == {"standard_normal": cfg.n_steps * 3}

    @pytest.mark.memory
    def test_verify_saddle_memory(self, tail_pipeline, monkeypatch):
        # two path sets advance together in one chunk (nu* with its
        # scalings; the points with chattering, which draws sigma- or
        # sigma+ on the rows 3 steps read before the last): 14 ln X rows, 2
        # Y rows, the step's 2 normal rows and 1 uniform row, with at most
        # 10 more rows alive within a set's step.  The peak is chattering's
        # atom draw: the fraction, b(Y), the points' f and f^2 / 2 (its
        # scale reuses them) and its atoms and moments.  Each batch dies
        # before the next one starts: two full batches peak as one does.
        # Keeping the last batch's wealths (42 rows), moving Y after the
        # rows (29.04) or forming r(Y) as a row where r is constant (29.17)
        # fail; the step peaks at 28.17
        m, s, pf = tail_pipeline
        monkeypatch.setattr(simulate, "_CPUS", 1)
        cfg = SimConfig(n_paths=2 * BATCH_SIZE, n_steps=3, seed=31001, x0=1.0, y0=0.0,
                        horizon=1.0)
        tracemalloc.start()
        try:
            verify_saddle(s, pf, m, TAIL_K, TAIL_UTIL, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 29 * 8 * BATCH_SIZE, peak / (8 * BATCH_SIZE)

    @pytest.mark.memory
    def test_verify_saddle_memory_with_two_ramps(self, ramp_pipeline, ramp_model,
                                                 smoke_rect, smoke_util, monkeypatch):
        # one path set in one chunk: 12 ln X rows (the base pair, the (mu-,
        # sigma+) corner and chattering share one), 1 Y row and the step's 2
        # normal rows, with at most 8 more rows alive within a step
        # (fraction, b(Y), beta(Y), b(Y) + mu_m, f, f^2 / 2 and the row
        # update's two).  Holding the smoothstep past the ramps it serves
        # (24.04) or a row per entry (25.04) fail
        s, pf = ramp_pipeline
        monkeypatch.setattr(simulate, "_CPUS", 1)
        cfg = SimConfig(n_paths=2 * BATCH_SIZE, n_steps=3, seed=31001, x0=1.0, y0=0.0,
                        horizon=1.0)
        peak = traced_peak(lambda: verify_saddle(s, pf, ramp_model, smoke_rect,
                                                 smoke_util, cfg))
        assert peak <= 23.5 * 8 * BATCH_SIZE, peak / (8 * BATCH_SIZE)

    def test_one_failing_set_raises_as_alone(self):
        # a field whose drift is NaN where Y rounds to the node y = 3 makes
        # its paths non-finite once they cross y = 1.5; the sets that finish
        # their batches do not change the path the error names
        m = const_model(rho=0.5)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        mu = pf.atom_mu.copy()
        mu[:, 2] = np.nan
        nan_field = AdversaryPolicy.field(dataclasses.replace(pf, atom_mu=mu), "nan")
        groups = [(AdversaryPolicy.constant_point(0.2, 0.3), (1.0,)),
                  (nan_field, (1.0, 0.5)),
                  (AdversaryPolicy.chattering(pf), (1.0,))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=1.4,
                        horizon=1.0)
        assert path_sets(groups, m.rho, cfg) == [[0, 2], [1]]
        with pytest.raises(FloatingPointError) as alone:
            simulate_eu(0.7, nan_field, m, cfg, q=0.5, policy_scale=0.5)
        with pytest.raises(FloatingPointError) as grouped:
            _estimates(0.7, groups, m, cfg, 0.5)
        assert str(grouped.value) == str(alone.value) == "non-finite wealth on path 2"

    def test_one_set_breaking_the_invariant_raises_as_alone(self):
        # moments that no measure has, at the node y = 3 only, in the second
        # of two path sets
        m = const_model(rho=0.5)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        weight = pf.weight_a.copy()
        weight[:, 2] = 1.5
        bad = AdversaryPolicy.field(dataclasses.replace(pf, weight_a=weight), "bad")
        groups = [(AdversaryPolicy.field(pf), (1.0,)), (bad, (1.0, 0.5))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=1.4,
                        horizon=1.0)
        assert path_sets(groups, m.rho, cfg) == [[0], [1]]
        with pytest.raises(AssertionError) as alone:
            simulate_eu(0.7, bad, m, cfg, q=0.5)
        with pytest.raises(AssertionError) as grouped:
            _estimates(0.7, groups, m, cfg, 0.5)
        assert str(grouped.value) == str(alone.value) == (
            "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)")

    def test_failing_chattering_in_the_points_set_raises_as_alone(self):
        # chattering whose drift is NaN at the node y = 3 draws sigma 0.2 or
        # 0.4 at every node, which load the factor like any point at rho =
        # 0.5: it joins the point's path set, where its row is the only one
        # to turn non-finite, and the error names the path its run alone names
        m = const_model(rho=0.5)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        mu = pf.atom_mu.copy()
        mu[:, 2] = np.nan
        chattering = AdversaryPolicy.chattering(dataclasses.replace(pf, atom_mu=mu), "nan")
        groups = [(AdversaryPolicy.field(pf), (1.0,)),
                  (AdversaryPolicy.constant_point(0.2, 0.3), (1.0, 0.5)),
                  (chattering, (1.0,))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=1.4,
                        horizon=1.0)
        assert path_sets(groups, m.rho, cfg) == [[0], [1, 2]]
        with pytest.raises(FloatingPointError) as alone:
            simulate_eu(0.7, chattering, m, cfg, q=0.5)
        with pytest.raises(FloatingPointError) as grouped:
            _estimates(0.7, groups, m, cfg, 0.5)
        assert str(grouped.value) == str(alone.value) == "non-finite wealth on path 2"


class TestLoadingKeys:
    """A field adversary joins the path set of the adversaries that give the
    factor the same loading floats wherever it acts."""

    def test_single_atom_field_runs_one_path_set(self, smoke_pipeline, smoke_model,
                                                 smoke_util, draws):
        # nu* is the (mu-, sigma+) corner at every node of the smoke market,
        # and every sigma of K loads the factor by rho at rho = 0.5: nu*,
        # chattering and the 7 points run their 14 pairs on one path set.
        # Chattering's atoms are one point, so no uniform is drawn
        s, pf = smoke_pipeline
        cfg = SimConfig(n_paths=BATCH_SIZE + 1, n_steps=2, seed=5, x0=1.0, y0=0.0,
                        horizon=1.0)
        report = verify_saddle(s, pf, smoke_model, K, smoke_util, cfg)
        assert draws == {"standard_normal": cfg.n_steps * 2}

        field = AdversaryPolicy.field(pf)
        assert report.base == simulate_eu(pf, field, smoke_model, cfg)
        alone = [("adversary", adv.label, simulate_eu(pf, adv, smoke_model, cfg))
                 for adv in _saddle_adversaries(pf, K, cfg.seed)]
        alone += [("policy-scale", f"{scale:g}*pi*",
                   simulate_eu(pf, field, smoke_model, cfg, policy_scale=scale))
                  for scale in (0.0, 0.5, 0.8, 1.2, 1.5)]
        assert [(f.kind, f.label, f.eu, f.std_error) for f in report.findings[1:]] == [
            (kind, label, est.mean, est.std_error) for kind, label, est in alone]

    def test_chattering_adversaries_share_a_path_set(self):
        # both atoms of this constant two-atom field load the factor like any
        # point at rho = 0.5, its moments do not: the chattering adversaries
        # key with the point, the relaxed field alone.  A full-array copy of
        # the field is not one node, but it can draw the same two atoms at
        # every node: it keys with them too, and has the estimate of the
        # one-node field.  They read the step's one row of uniforms, as each
        # does run alone
        m = const_model(rho=0.5)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        full = full_arrays(pf)
        groups = [(AdversaryPolicy.chattering(pf), (1.0, 0.5)),
                  (AdversaryPolicy.field(pf), (1.0,)),
                  (AdversaryPolicy.constant_point(0.2, 0.3), (1.0,)),
                  (AdversaryPolicy.chattering(pf, "again"), (1.0,)),
                  (AdversaryPolicy.chattering(full, "full"), (1.0,))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        assert path_sets(groups, m.rho, cfg) == [[0, 2, 3, 4], [1]]
        grouped = _estimates(0.7, groups, m, cfg, 0.5)
        assert grouped == tuple(
            tuple(simulate_eu(0.7, adv, m, cfg, q=0.5, policy_scale=scale)
                  for scale in scales) for adv, scales in groups)
        assert grouped[4] == grouped[3]

    def test_varying_field_keeps_its_identity(self, tail_pipeline):
        # two-atom nodes load below rho: the relaxed field never shares a
        # path set, not even with a copy of itself.  Its chattering draws the
        # atom 0.3 on the ZERO nodes of rows 171-200 (t >= 0.855): at 20
        # steps its paths read row 180 before the last step, so it has no
        # key either; at 10 they read rows 0-160 only, and it keys with the
        # corner (0, 0.4)
        m, _, pf = tail_pipeline
        chattering = AdversaryPolicy.chattering(pf)
        corner = AdversaryPolicy.constant_point(0.0, 0.4)
        cfg = SimConfig(n_paths=10, n_steps=20, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        assert _loading_key(AdversaryPolicy.field(pf), m.rho, cfg) is None
        assert _loading_key(chattering, m.rho, cfg) is None
        groups = [(AdversaryPolicy.field(pf), (1.0,)), (AdversaryPolicy.field(pf), (1.0,))]
        assert path_sets(groups, m.rho, cfg) == [[0], [1]]
        ten = dataclasses.replace(cfg, n_steps=10)
        assert _loading_key(AdversaryPolicy.field(pf), m.rho, ten) is None
        assert _loading_key(chattering, m.rho, ten) == _loading_key(corner, m.rho, ten)

    def test_benchmark_tail_market_runs_two_path_sets(self, bench_tail_pf, monkeypatch):
        # 20 steps read rows 0, 40, ..., 720 before the last step, which reads
        # row 760; nu*'s ZERO nodes, where chattering can draw the interior
        # sigma 0.3, lie on rows 749-800.  So chattering loads the factor like
        # the corners wherever a later step reads it, and verify_saddle's
        # entries form 2 path sets: nu* with its scalings, and the 7 points
        # with chattering.  Each estimate is its pair's run alone, in 1 or 2
        # chunks
        m, pf = TAIL_MODEL, bench_tail_pf
        cfg = SimConfig(n_paths=2 * simulate._CHUNK_MIN, n_steps=20, seed=31001, x0=1.0,
                        y0=0.0, horizon=1.0)

        def interior(sig):
            return (sig != TAIL_K.sigma_minus) & (sig != TAIL_K.sigma_plus)

        drawn = (((pf.weight_a > 0) & interior(pf.sigma_a))
                 | (~(pf.weight_a >= 1.0) & interior(pf.sigma_b)))
        assert np.flatnonzero(drawn.any(axis=1)).min() == 749
        assert pf.row_index(_step_times(cfg)[-2]) == 720
        assert pf.row_index(_step_times(cfg)[-1]) == 760
        groups = [(AdversaryPolicy.field(pf), (1.0, 0.0, 0.5, 0.8, 1.2, 1.5)),
                  *((adv, (1.0,)) for adv in _saddle_adversaries(pf, TAIL_K, cfg.seed))]
        assert path_sets(groups, m.rho, cfg) == [[0], list(range(1, 9))]
        alone = tuple(tuple(simulate_eu(pf, adv, m, cfg, policy_scale=scale)
                            for scale in scales) for adv, scales in groups)
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_CPUS", cpus)
            assert _estimates(pf, groups, m, cfg, None) == alone

    @pytest.mark.parametrize("n_steps, sets", [(3, [[0, 1]]), (5, [[0], [1]])])
    def test_interior_atom_counts_before_the_last_step(self, n_steps, sets):
        # a two-atom field drawing sigma 0.2 or 0.4 on the row t = 0 and 0.3 or
        # 0.4 on the row t = 1; at rho = 0.9 all but 0.3 load the factor like
        # the point (0.15, 0.4).  At 3 steps (t = 0, 1/3, 2/3) only the last
        # step reads row 1, and chattering keys with the point; at 5 steps
        # the fourth (t = 0.6) does, and chattering has a set of its own.
        # Each estimate is its pair's run alone
        m = const_model(rho=0.9)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        sigma_a = pf.sigma_a.copy()
        sigma_a[1] = 0.3
        chattering = AdversaryPolicy.chattering(dataclasses.replace(pf, sigma_a=sigma_a))
        groups = [(AdversaryPolicy.constant_point(0.15, 0.4), (1.0,)), (chattering, (1.0, 0.5))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=n_steps, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        assert path_sets(groups, m.rho, cfg) == sets
        assert _estimates(0.7, groups, m, cfg, 0.5) == tuple(
            tuple(simulate_eu(0.7, adv, m, cfg, q=0.5, policy_scale=scale)
                  for scale in scales) for adv, scales in groups)

    def test_undrawable_atom_does_not_block_the_key(self):
        # the interior sigma 0.3 as atom a of weight 0 at y = 0 and as atom b
        # of weight 0 (weight_a = 1) at y = 3: no uniform in [0, 1) draws it,
        # so chattering draws 0.2 or 0.4 only and keys with the corner at rho
        # = 0.9.  The least weight that makes 0.3 drawable takes the key away
        m = const_model(rho=0.9)
        pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)

        def chattering(w_y0, w_y3):
            sigma_a, sigma_b, weight = (a.copy() for a in (pf.sigma_a, pf.sigma_b, pf.weight_a))
            sigma_a[:, 1], weight[:, 1] = 0.3, w_y0
            sigma_b[:, 2], weight[:, 2] = 0.3, w_y3
            return AdversaryPolicy.chattering(dataclasses.replace(
                pf, sigma_a=sigma_a, sigma_b=sigma_b, weight_a=weight))

        corner = AdversaryPolicy.constant_point(0.15, 0.4)
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        keyed = chattering(0.0, 1.0)
        assert _loading_key(corner, m.rho, cfg) is not None
        assert _loading_key(keyed, m.rho, cfg) == _loading_key(corner, m.rho, cfg)
        assert _loading_key(chattering(5e-324, 1.0), m.rho, cfg) is None
        assert _loading_key(chattering(0.0, np.nextafter(1.0, 0.0)), m.rho, cfg) is None
        groups = [(corner, (1.0,)), (keyed, (1.0,))]
        assert path_sets(groups, m.rho, cfg) == [[0, 1]]
        assert _estimates(0.7, groups, m, cfg, 0.5) == tuple(
            (simulate_eu(0.7, adv, m, cfg, q=0.5),) for adv, _ in groups)

    def test_one_step_reads_no_row(self, tail_pipeline):
        # at n_steps = 1 no step reads the factor after a move.  A field
        # that is not one node then reads no row and has no key: nu* and its
        # chattering keep sets of their own.  Points and one-node fields key
        # by their one node, as at any step count: the one-node chattering
        # between 0.2 and 0.4 joins the points.  Each estimate is its pair's
        # run alone
        m, _, pf = tail_pipeline
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=1, seed=31001, x0=1.0, y0=0.0,
                        horizon=1.0)
        assert _step_times(cfg)[:-1] == []
        groups = [(AdversaryPolicy.field(pf), (1.0, 0.5)),
                  *((adv, (1.0,)) for adv in _saddle_adversaries(pf, TAIL_K, cfg.seed)),
                  (AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.2, 0.4, 0.4)), (1.0,))]
        assert path_sets(groups, m.rho, cfg) == [[0], [1, 2, 3, 4, 5, 6, 7, 9], [8]]
        assert _estimates(pf, groups, m, cfg, None) == tuple(
            tuple(simulate_eu(pf, adv, m, cfg, policy_scale=scale) for scale in scales)
            for adv, scales in groups)


class TestEqualEntries:
    """In a path set, (adversary, scale) entries that form the same moments
    at the same scale, on one node and without drawing atoms, advance one
    ln X row; no other entries share one."""

    @pytest.mark.parametrize("market", ["smoke", "ramp"])
    def test_one_corner_saddle_runs_12_rows(self, market, smoke_pipeline, smoke_model,
                                            ramp_pipeline, ramp_model, smoke_util,
                                            monkeypatch):
        # nu* is the (mu-, sigma+) corner at every node: the base pair, the
        # point (0.1, 0.4) and chattering, which draws no atom, share a row.
        # The cfg is test_corner_report_is_pinned's, and with no key (a row
        # per entry, 14) the report is the same
        (s, pf), m = ((smoke_pipeline, smoke_model) if market == "smoke"
                      else (ramp_pipeline, ramp_model))
        cfg = SimConfig(n_paths=4096, n_steps=10, seed=31001, x0=1.0, y0=0.0, horizon=1.0)
        rows = record_results(monkeypatch, simulate, "_log_wealth", len)
        report = verify_saddle(s, pf, m, K, smoke_util, cfg)
        assert rows == [12]
        monkeypatch.setattr(simulate, "_entry_key", lambda adv, scale: None)
        assert verify_saddle(s, pf, m, K, smoke_util, cfg) == report
        assert rows == [12, 14]
        base, corner, chattering = (report.findings[i] for i in (0, 2, 8))
        assert (corner.label, chattering.label) == ("point(0.1,0.4)", "chattering")
        assert base.eu == corner.eu == chattering.eu
        if market == "smoke":
            assert report.base == UtilityEstimate(
                mean=2.0812595204984623, std_error=0.008231823779743554, n_paths=4096,
                min_terminal_wealth=0.17677561035036846,
                max_terminal_wealth=5.910443355629244)

    def test_entries_share_a_row_only_on_equal_bits(self):
        # the point (0.1, 0.4), the one-node field at it and its chattering
        # form one moment triple; one ulp of mu or sigma, the sign of a zero
        # scale, chattering that draws atoms and a field that is not one node
        # (a full-array copy) each keep a row of their own, even repeated
        m = const_model(rho=0.5)
        corner = constant_field(0.7, 0.1, 0.4, 0.4, 1.0)
        two_atoms = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
        full = full_arrays(corner)
        groups = [(AdversaryPolicy.constant_point(0.1, 0.4), (1.0, 0.5, 1.0, 0.0, -0.0)),
                  (AdversaryPolicy.field(corner), (1.0,)),
                  (AdversaryPolicy.chattering(corner), (0.5,)),
                  (AdversaryPolicy.constant_point(np.nextafter(0.1, 1.0), 0.4), (1.0,)),
                  (AdversaryPolicy.constant_point(0.1, np.nextafter(0.4, 1.0)), (1.0,)),
                  (AdversaryPolicy.chattering(two_atoms), (1.0, 1.0)),
                  (AdversaryPolicy.chattering(two_atoms, "again"), (1.0,)),
                  (AdversaryPolicy.field(full), (1.0, 1.0))]
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        sets, slots = _plan(groups, m.rho, cfg)
        (one, half, again, zero, negative_zero), (field,), (chattering,) = slots[:3]
        assert (again, field, chattering) == (one, one, half)
        unshared = [one, half, zero, negative_zero, *(k for ks in slots[3:] for k in ks)]
        assert sorted(unshared) == list(range(11)) == list(range(sum(map(_n_rows, sets))))
        assert _estimates(0.7, groups, m, cfg, 0.5) == tuple(
            tuple(simulate_eu(0.7, adv, m, cfg, q=0.5, policy_scale=scale)
                  for scale in scales) for adv, scales in groups)


    @pytest.mark.parametrize("weight, sigma", [(1.0, 0.2), (0.0, 0.4)])
    def test_chattering_on_a_sure_atom_is_its_point(self, weight, sigma, draws):
        # every uniform in [0, 1) falls below weight_a = 1.0, none below 0.0:
        # one-node chattering draws sigma_a or sigma_b on every path, so it
        # is that point, draws no uniform and reads the point's row
        m = const_model(rho=0.5)
        chattering = AdversaryPolicy.chattering(constant_field(0.7, 0.15, 0.2, 0.4, weight))
        point = AdversaryPolicy.constant_point(0.15, sigma)
        assert words(chattering.fixed) == words(point.fixed)
        cfg = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=3, seed=3, x0=1.0, y0=0.0,
                        horizon=1.0)
        sets, slots = _plan([(point, (1.0,)), (chattering, (1.0,))], m.rho, cfg)
        assert slots == [[0], [0]] and _n_rows(sets[0]) == 1
        assert simulate_eu(0.7, chattering, m, cfg, q=0.5) == simulate_eu(0.7, point, m, cfg,
                                                                         q=0.5)
        assert draws == {"standard_normal": 2 * 2 * cfg.n_steps}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the thread pools the engine builds while the test
    runs, one per pool."""
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
    return built


def tail_node_field(name, value):
    """constant_field(0.7, 0.15, 0.2, 0.4, 0.4) with name set to value at the
    node y = 3, which the paths reach once Y crosses 1.5.  From y0 = -1.5 in
    two steps at seed 13 only paths 50816 and 53658 of the first batch do:
    both lie in the last chunk of 2 or 3."""
    pf = constant_field(0.7, 0.15, 0.2, 0.4, 0.4)
    surface = np.array(getattr(pf, name))
    surface[:, 2] = value
    return AdversaryPolicy.field(dataclasses.replace(pf, **{name: surface}), name)


TAIL_NODE_CFG = SimConfig(n_paths=BATCH_SIZE + 300, n_steps=2, seed=13, x0=1.0, y0=-1.5,
                          horizon=1.0)


class TestChunks:
    """Each step advances a batch's paths in column chunks on threads, one
    chunk per CPU: no row, estimate or error depends on the chunking."""

    @pytest.mark.parametrize("fraction", ["field", 0.7])
    def test_rows_do_not_depend_on_the_chunking(self, tail_pipeline, monkeypatch, pools,
                                                fraction):
        # chattering with scales that include 0.0, the relaxed field and the
        # points of verify_saddle; batch 0 splits into up to 4 chunks, batch 1
        # (40001 paths) into up to 2
        m, _, pf = tail_pipeline
        policy = pf if fraction == "field" else fraction
        cfg = SimConfig(n_paths=BATCH_SIZE + 40001, n_steps=4, seed=8, x0=1.0, y0=0.3,
                        horizon=1.0)
        groups = [(AdversaryPolicy.chattering(pf), (1.0, 0.0, 0.5)),
                  (AdversaryPolicy.field(pf), (0.0, 1.2)),
                  *((adv, (1.0,)) for adv in _saddle_adversaries(pf, TAIL_K, cfg.seed)[:-1])]
        sets, _ = _plan(groups, m.rho, cfg)
        rows = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_CPUS", cpus)
            rows[cpus] = [_log_wealth(policy, sets, m, cfg, bi).tobytes() for bi in (0, 1)]
        assert rows[2] == rows[3] == rows[1]
        # 1 CPU builds no pool; 2 CPUs one 1-worker pool a batch; 3 CPUs 3
        # chunks of batch 0 and 2 of batch 1
        assert pools == [1, 1, 2, 1]
        # from the second step on, the calling thread's chunk at its extremes:
        # 1 path, or all but one path of each pool chunk (nb - 1 at 2 CPUs),
        # with the threads switching as often as the interpreter lets them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cut in (lambda nb, n, *_: 1, lambda nb, n, *_: nb - n + 1):
                monkeypatch.setattr(simulate, "_own_columns", cut)
                for cpus in (2, 3):
                    monkeypatch.setattr(simulate, "_CPUS", cpus)
                    assert [_log_wealth(policy, sets, m, cfg, bi).tobytes()
                            for bi in (0, 1)] == rows[1]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, own_s, pool_s, draw_s", [
        (2, 1.0, 1.0, 0.0), (2, 1.0, 1.2, 0.3 * BATCH_SIZE), (3, 2.0, 1.0, 0.1 * BATCH_SIZE),
        (2, 1.0, 1.0, 2.0 * BATCH_SIZE), (2, 1.0, 1e9, 0.0)])
    def test_the_calling_thread_ends_with_the_pool(self, n, own_s, pool_s, draw_s):
        # seconds per column on each side: the calling thread's chunk and its
        # draws end within one column of each pool chunk, or the cut stops
        # at one path a chunk
        nb = BATCH_SIZE
        own = _own_columns(nb, n, own_s, pool_s, draw_s)
        assert 1 <= own <= nb - n + 1
        gap = own * own_s + draw_s - (nb - own) / (n - 1) * pool_s
        if 1 < own < nb - n + 1:
            assert abs(gap) <= own_s + pool_s / (n - 1)
        else:
            assert gap > 0 if own == 1 else gap < 0

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("name, value, errstate, error, message", [
        ("weight_a", 1.5, {}, AssertionError,
         "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)"),
        ("atom_mu", 1e308, {"over": "raise"}, FloatingPointError,
         "overflow encountered in multiply"),
        ("atom_mu", 1e308, {"all": "ignore"}, FloatingPointError,
         "non-finite wealth on path 759"),
    ])
    def test_error_in_a_pool_chunk_while_drawing_ahead(self, monkeypatch, draws, cpus, name,
                                                       value, errstate, error, message):
        # from y0 = -1 the paths first reach the node y = 3 at step 1 of 3,
        # while the calling thread, its chunk cut to path 0 alone, draws
        # step 2: the pool's chunks raise, or overflow, as one chunk does
        m = const_model(rho=0.5)
        adv = tail_node_field(name, value)
        cfg = dataclasses.replace(TAIL_NODE_CFG, n_steps=3, y0=-1.0)
        monkeypatch.setattr(simulate, "_own_columns", lambda nb, n, *_: 1)
        before = threading.enumerate()
        for n in (1, cpus):
            monkeypatch.setattr(simulate, "_CPUS", n)
            draws.clear()
            with pytest.raises(error) as err, np.errstate(**errstate):
                simulate_eu(2.0, adv, m, cfg, q=0.5)
            assert str(err.value) == message
            assert threading.enumerate() == before
        # the calling thread had drawn step 2 when the pool's chunks failed
        assert draws == {"standard_normal": 3}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_chunks_run_in_the_callers_error_state(self, monkeypatch, cpus):
        # mu = 1e308 overflows f * (b + mu) on the paths of the last chunk
        # only: under errstate(all="ignore") the overflow must not warn in a
        # worker thread, and the wealth check names the path one chunk names
        m = const_model(rho=0.5)
        adv = tail_node_field("atom_mu", 1e308)
        errors = {}
        for n in (1, cpus):
            monkeypatch.setattr(simulate, "_CPUS", n)
            with pytest.raises(FloatingPointError) as err, np.errstate(all="ignore"):
                simulate_eu(2.0, adv, m, TAIL_NODE_CFG, q=0.5)
            errors[n] = str(err.value)
        assert errors[cpus] == errors[1] == "non-finite wealth on path 50816"

    def test_error_in_the_last_chunk_raises_as_alone(self, monkeypatch, pools):
        # moments that no measure has, at the node only the last chunk reaches
        m = const_model(rho=0.5)
        bad = tail_node_field("weight_a", 1.5)
        before = threading.enumerate()
        errors = {}
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_CPUS", cpus)
            with pytest.raises(AssertionError) as err:
                simulate_eu(0.7, bad, m, TAIL_NODE_CFG, q=0.5)
            errors[cpus] = str(err.value)
            assert threading.enumerate() == before
        assert errors[2] == errors[1] == (
            "internal invariant failure: (sigma,nu)^2 > (sigma^2,nu)")
        assert pools == [1]

    @pytest.mark.memory
    def test_chunks_add_at_most_a_row(self, tail_pipeline, monkeypatch):
        # the chunks' temporaries are column slices of one chunk's: two
        # chunks peak within one batch row of a single chunk
        m, s, pf = tail_pipeline
        cfg = SimConfig(n_paths=2 * BATCH_SIZE, n_steps=3, seed=31001, x0=1.0, y0=0.0,
                        horizon=1.0)
        peaks = {}
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_CPUS", cpus)
            tracemalloc.start()
            try:
                verify_saddle(s, pf, m, TAIL_K, TAIL_UTIL, cfg)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 8 * BATCH_SIZE, (peaks[2] - peaks[1]) / (8 * BATCH_SIZE)
