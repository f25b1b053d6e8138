"""Verification gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s -rX`).

One criterion is a documented expected failure (strict xfail): the legacy
flat-drift reference constant 0.0625 = mu-^2 T/(2(1-q) sigma+^2) omits the
factor q that the e^u value separation produces on the worst-case quadratic
term.  The self-consistent constant q mu-^2 T/(2(1-q) sigma+^2) = 0.03125 is
what the lognormal oracle and the Monte-Carlo value match require (the legacy
constant implies an expected utility no admissible policy attains), and the
companion criterion pins it at the same tolerance.
"""

import time

import numpy as np
import pytest
import yaml

from robustport import (AdversaryPolicy, CoefficientFn, GridSpec, MarketModel,
                        PowerUtility, SimConfig, UncertaintyRectangle,
                        build_policy, simulate_eu, solve_hjbi, value_function,
                        verify_saddle)
from robustport.cli import main as cli_main
from robustport.pde import residual_norm
from robustport.worst_case import BranchRegion, brute_force_min, minimize_ratio

from oracles import DerivativeBundle, grid_minimax_value, lognormal_eu, saddle_point

SMOKE_RECT = UncertaintyRectangle(0.1, 0.3, 0.2, 0.4)
SMOKE_MODEL = MarketModel(CoefficientFn.constant(0.0), CoefficientFn.constant(0.0),
                          CoefficientFn.constant(0.0), rho=0.5)
SMOKE_UTIL = PowerUtility(0.5)
SMOKE_GRID = GridSpec(horizon=1.0, n_t=2001, n_y=201, y_radius=3.0, theta=0.5)
SMOKE_SIM = SimConfig(n_paths=200_000, n_steps=500, seed=20240, x0=1.0, y0=0.0,
                      horizon=1.0)


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def smoke_surface():
    t0 = time.perf_counter()
    s = solve_hjbi(SMOKE_MODEL, SMOKE_RECT, SMOKE_UTIL, SMOKE_GRID)
    return s, time.perf_counter() - t0


@pytest.fixture(scope="module")
def smoke_policy(smoke_surface):
    s, _ = smoke_surface
    return build_policy(s, SMOKE_MODEL, SMOKE_RECT, SMOKE_UTIL)


@pytest.fixture(scope="module")
def smoke_base_estimate(smoke_policy):
    t0 = time.perf_counter()
    est = simulate_eu(smoke_policy, AdversaryPolicy.field(smoke_policy),
                      SMOKE_MODEL, SMOKE_SIM, q=SMOKE_UTIL)
    return est, time.perf_counter() - t0


@pytest.fixture(scope="module")
def smoke_verify_report(smoke_surface, smoke_policy):
    s, _ = smoke_surface
    return verify_saddle(s, smoke_policy, SMOKE_MODEL, SMOKE_RECT, SMOKE_UTIL,
                         SMOKE_SIM)


def test_closed_form_minimizer_vs_brute_force():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s_lo = rng.uniform(0.1, 0.7)
        s_hi = s_lo + rng.uniform(0.02, 1.0 - s_lo)
        mu_lo = rng.uniform(0.0, 0.4)
        k = UncertaintyRectangle(mu_lo, mu_lo + rng.uniform(0.0, 0.5), s_lo, s_hi)
        b_val = -mu_lo + rng.uniform(0.0, 0.6)
        kappa = rng.uniform(-10.0, 10.0)
        closed = minimize_ratio(b_val, kappa, k)
        brute = brute_force_min(b_val, kappa, k, resolution=500)
        assert brute.value >= closed.value - 1e-9
        worst = max(worst, abs(closed.value - brute.value) / (1 + abs(closed.value)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 60.0
    report("closed_form_vs_brute_force", ok,
           f"1000 draws, worst rel dev {worst:.2e} (tol 5e-3), {elapsed:.1f}s (< 60s)")
    assert worst <= 5e-3
    assert elapsed < 60.0


def test_branch_continuity_and_exact_zero_branch():
    rng = np.random.default_rng(43)
    worst = 0.0
    zero_checked = 0
    for _ in range(300):
        s_lo = rng.uniform(0.1, 0.7)
        s_hi = s_lo + rng.uniform(0.02, 0.6)
        mu_lo = rng.uniform(0.0, 0.4)
        k = UncertaintyRectangle(mu_lo, mu_lo + rng.uniform(0.0, 0.5), s_lo, s_hi)
        b_val = rng.uniform(-mu_lo, 0.5)
        br = minimize_ratio(b_val, 0.0, k).branch
        for t in (br.t1, br.t2, br.t3, br.t4):
            lo = minimize_ratio(b_val, t - 1e-9, k).value
            hi = minimize_ratio(b_val, t + 1e-9, k).value
            worst = max(worst, abs(hi - lo) / (1 + abs(lo)))
        mid = 0.5 * (br.t2 + br.t3)
        res = minimize_ratio(b_val, mid, k)
        if res.branch.region is BranchRegion.ZERO:
            zero_checked += 1
            assert res.value == 0.0
    ok = worst <= 1e-6 and zero_checked > 200
    report("branch_continuity", ok,
           f"worst rel jump {worst:.2e} (tol 1e-6); {zero_checked} exact-zero checks")
    assert worst <= 1e-6
    assert zero_checked > 200


@pytest.mark.xfail(strict=True,
                   reason="legacy constant mu-^2 T/(2(1-q) sigma+^2) omits the "
                          "factor q from the e^u reduction; the companion "
                          "criterion and the Monte-Carlo value match pin the "
                          "self-consistent q mu-^2 T/(2(1-q) sigma+^2)")
def test_flat_drift_legacy_reference_constant(smoke_surface):
    s, elapsed = smoke_surface
    dev = float(np.max(np.abs(s.u[0] - 0.0625)))
    ok = dev <= 1e-5 and elapsed < 60.0
    report("flat_drift_legacy_constant", ok,
           f"max |u(0,y) - 0.0625| = {dev:.3g} on 2001x201 grid, solve {elapsed:.1f}s "
           f"(solver returns q*mu-^2*T/(2(1-q)sigma+^2) = 0.03125)")
    assert dev <= 1e-5
    assert elapsed < 60.0


def test_flat_drift_self_consistent_constant(smoke_surface):
    s, elapsed = smoke_surface
    expect = 0.5 * 0.1**2 / (2 * (1 - 0.5) * 0.4**2)  # 0.03125
    dev = float(np.max(np.abs(s.u[0] - expect)))
    ok = dev <= 1e-5 and elapsed < 60.0
    report("flat_drift_closed_form", ok,
           f"max |u(0,y) - {expect}| = {dev:.3g} on 2001x201 grid, solve {elapsed:.1f}s (< 60s)")
    assert dev <= 1e-5
    assert elapsed < 60.0


def test_solver_self_convergence():
    m = MarketModel(CoefficientFn.ramp(0.0, 0.2, 2.0),
                    CoefficientFn.ramp(0.1, -0.1, 2.0),
                    CoefficientFn.constant(0.01), rho=0.5)
    t0 = time.perf_counter()
    residuals = []
    for n_t, n_y in ((501, 81), (1001, 161), (2001, 321)):
        g = GridSpec(1.0, n_t, n_y, 4.0, 0.5)
        s = solve_hjbi(m, SMOKE_RECT, SMOKE_UTIL, g)
        residuals.append(residual_norm(s, m, SMOKE_RECT, SMOKE_UTIL))
    elapsed = time.perf_counter() - t0
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    ok = all(r >= 2.0 for r in ratios) and elapsed < 600.0
    report("pde_self_convergence", ok,
           f"residuals {[f'{r:.2e}' for r in residuals]}, ratios "
           f"{[f'{r:.2f}' for r in ratios]} (>= 2 each), {elapsed:.1f}s (< 600s)")
    assert all(r >= 2.0 for r in ratios)
    assert elapsed < 600.0


def test_pointwise_saddle_vs_grid_minimax():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(500):
        mu_lo = rng.uniform(0.05, 0.25)
        mu_hi = mu_lo + rng.uniform(0.02, 0.05)
        s_lo = rng.uniform(0.3, 0.5)
        s_hi = s_lo + rng.uniform(0.08, 0.2)
        k = UncertaintyRectangle(mu_lo, mu_hi, s_lo, s_hi)
        b_val = rng.uniform(-mu_lo, 0.3)
        rho = rng.uniform(0.3, 1.0)
        mdl = MarketModel(CoefficientFn.constant(b_val),
                          CoefficientFn.constant(rng.uniform(-0.3, 0.3)),
                          CoefficientFn.constant(rng.uniform(0.0, 0.05)), rho)
        p1 = rng.uniform(0.3, 1.5)
        q11 = -rng.uniform(0.5, 3.0)
        p2, q22 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        x, yy = rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
        if i % 25 == 24:
            p1, q12 = 0.0, rng.uniform(-2.0, 2.0)
        else:
            br = minimize_ratio(b_val, 0.0, k).branch
            t1, t2, t3, t4 = br.t1, br.t2, br.t3, br.t4
            region = i % 5
            if region == 0:
                kap = t1 - rng.uniform(0.25, 2.0) * (1 + abs(t1))
            elif region == 1:
                kap = t1 + rng.uniform(0.15, 0.85) * (t2 - t1)
            elif region == 2:
                kap = t2 + rng.uniform(0.15, 0.85) * (t3 - t2)
            elif region == 3:
                kap = t3 + rng.uniform(0.15, 0.85) * (t4 - t3)
            else:
                kap = t4 + rng.uniform(0.25, 2.0) * (1 + abs(t4))
            q12 = kap * p1 / rho
        d = DerivativeBundle(p1=p1, p2=p2, q11=q11, q12=q12, q22=q22)
        sp = saddle_point(x, yy, d, mdl, k)
        oracle = grid_minimax_value(x, yy, d, mdl, k, n=400)
        worst = max(worst, abs(sp.value - oracle) / (1 + abs(sp.value)))
    ok = worst <= 1e-6
    report("pointwise_saddle_minimax", ok,
           f"500 bundles vs 400x400 grid minimax, worst rel dev {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_monte_carlo_value_match(smoke_surface, smoke_base_estimate):
    s, _ = smoke_surface
    est, elapsed = smoke_base_estimate
    v0 = value_function(s, 0.0, SMOKE_SIM.x0, SMOKE_SIM.y0, SMOKE_UTIL.q)
    tol = 3 * est.std_error + 1e-3
    dev = abs(est.mean - v0)
    ok = dev <= tol and elapsed < 300.0
    report("monte_carlo_value_match", ok,
           f"EU = {est.mean:.5f} +/- {est.std_error:.1e} vs v(0,x0,y0) = {v0:.5f}, "
           f"|dev| = {dev:.2e} <= {tol:.2e}; {elapsed:.0f}s (< 300s), 200k x 500")
    assert dev <= tol
    assert elapsed < 300.0


def test_saddle_inequalities_by_simulation(smoke_verify_report):
    rep = smoke_verify_report
    adversary = [f for f in rep.findings if f.kind == "adversary"]
    scales = [f for f in rep.findings if f.kind == "policy-scale"]
    corners = adversary[:4]
    violations = [f for f in adversary + scales if not f.passed]
    ok = len(corners) == 4 and not violations and len(scales) == 5
    report("saddle_inequalities_mc", ok,
           f"{len(adversary)} adversary deviations (4 corners) and "
           f"{len(scales)} policy scalings, {len(violations)} violations")
    assert len(corners) == 4 and len(scales) == 5
    assert not violations, rep.summary()


def test_lognormal_oracle_constant_coefficients():
    rng = np.random.default_rng(99)
    worst_z = 0.0
    for _ in range(10):
        q = float(rng.uniform(-1.5, 0.9))
        if abs(q) < 0.05:
            q = 0.3
        f = float(rng.uniform(-0.5, 1.5))
        mu = float(rng.uniform(-0.1, 0.3))
        sigma = float(rng.uniform(0.1, 0.5))
        r0 = float(rng.uniform(0.0, 0.05))
        b0 = float(rng.uniform(0.0, 0.1))
        x0 = float(rng.uniform(0.5, 2.0))
        horizon = float(rng.uniform(0.5, 2.0))
        m = MarketModel(CoefficientFn.constant(b0), CoefficientFn.constant(0.0),
                        CoefficientFn.constant(r0), rho=float(rng.uniform(0.0, 1.0)))
        cfg = SimConfig(n_paths=50_000, n_steps=16, seed=int(rng.integers(1, 2**31)),
                        x0=x0, y0=0.0, horizon=horizon)
        adv = AdversaryPolicy.constant_point(mu, sigma)
        est = simulate_eu(f, adv, m, cfg, q=q)
        exact = lognormal_eu(x0, q, f, mu, sigma, r0, b0, horizon)
        z = abs(est.mean - exact) / est.std_error
        worst_z = max(worst_z, z)
        assert z <= 3.0, (q, f, mu, sigma, r0, b0, x0, horizon, est.mean, exact)
    report("lognormal_oracle", True,
           f"10 random constant-coefficient draws, worst |z| = {worst_z:.2f} (<= 3)")


def test_csv_byte_determinism(tmp_path):
    config = {
        "model": {"b": {"kind": "constant", "value": 0.0},
                  "beta": {"kind": "constant", "value": 0.0},
                  "r": {"kind": "constant", "value": 0.0}, "rho": 0.5},
        "rectangle": {"mu_minus": 0.1, "mu_plus": 0.3,
                      "sigma_minus": 0.2, "sigma_plus": 0.4},
        "utility": {"q": 0.5},
        "grid": {"horizon": 1.0, "n_t": 201, "n_y": 51, "y_radius": 3.0},
        "sim": {"n_paths": 20000, "n_steps": 50, "seed": 321, "x0": 1.0, "y0": 0.0},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert cli_main(["strategy", "--config", str(path), "--out", str(out)]) == 0
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        digests.append(tuple((out / f).read_bytes()
                             for f in ("surface.csv", "policy.csv", "sim_report.csv")))
    ok = digests[0] == digests[1]
    report("csv_determinism", ok,
           "identical seed/config produced identical surface/policy/report bytes")
    assert ok
