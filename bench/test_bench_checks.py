"""Each benchmark check accepts a right output and rejects a deliberately
wrong one.  Run with: python3 -m pytest bench -q

Right outputs come from robustport where one is needed; the checks under test
never call it.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from robustport.model import UncertaintyRectangle  # noqa: E402
from robustport.worst_case import branch_fields  # noqa: E402

RECT = (0.0, 0.3, 0.2, 0.4)


def ladder(order: int, levels: int = 3, n: int = 61):
    """u(0, y) on each level, with an error of (dy)^order times a smooth shape."""
    us = []
    for lev in range(levels):
        y = np.linspace(-3.0, 3.0, (n - 1) * 2**lev + 1)
        h = 0.1 / 2**lev
        us.append(np.cos(y) + h**order * (1.0 + 0.3 * np.sin(y)))
    return us


def test_second_order_ladder_passes():
    assert checks.ladder_problems(ladder(2), [1e-3, 2.5e-4, 6e-5]) == []


def test_first_order_ladder_is_rejected():
    problems = checks.ladder_problems(ladder(1), [1e-3, 2.5e-4, 6e-5])
    assert any("shrinks x2" in p for p in problems)


def test_growing_residual_is_rejected():
    problems = checks.ladder_problems(ladder(2), [9.6e-3, 1.7e-2, 2.8e-2])
    assert problems and all("residual" in p for p in problems)


def policy_at(b, kappa, q):
    """Worst-case moments and saddle fraction from robustport's minimizer."""
    f = branch_fields(b, kappa, UncertaintyRectangle(*RECT))
    wa = f["weight_a"]
    mean_s = wa * f["sigma_a"] + (1 - wa) * f["sigma_b"]
    mean_s2 = wa * f["sigma_a"] ** 2 + (1 - wa) * f["sigma_b"] ** 2
    pi = (b + f["atom_mu"] + kappa * mean_s) / ((1 - q) * mean_s2)
    return f, mean_s, mean_s2, pi


@pytest.fixture
def nodes():
    rng = np.random.Generator(np.random.PCG64(5))
    b = rng.uniform(0.0, 0.4, 40)
    kappa = rng.uniform(-3.0, 3.0, 40)
    return b, kappa


def test_saddle_nodes_pass_on_every_branch(nodes):
    b, kappa = nodes
    f, mean_s, mean_s2, pi = policy_at(b, kappa, 0.5)
    assert len(set(f["code"].tolist())) >= 3
    assert checks.node_saddle_problems(b, kappa, 0.5, RECT, f["atom_mu"], mean_s,
                                       mean_s2, pi) == []


def test_wrong_fraction_is_rejected(nodes):
    b, kappa = nodes
    f, mean_s, mean_s2, pi = policy_at(b, kappa, 0.5)
    wrong = pi.copy()
    wrong[int(np.argmax(np.abs(pi)))] *= 1.01
    problems = checks.node_saddle_problems(b, kappa, 0.5, RECT, f["atom_mu"], mean_s,
                                           mean_s2, wrong)
    assert any("not the saddle strategy" in p for p in problems)


def test_wrong_measure_is_rejected(nodes):
    b, kappa = nodes
    f, mean_s, mean_s2, pi = policy_at(b, kappa, 0.5)
    # nature at the (mu+, s-) corner everywhere is not the worst case
    s_lo = np.full_like(b, RECT[2])
    problems = checks.node_saddle_problems(b, kappa, 0.5, RECT, np.full_like(b, RECT[1]),
                                           s_lo, s_lo**2, pi)
    assert any("grid search" in p for p in problems)


def test_nan_moments_and_fraction_are_rejected(nodes):
    b, kappa = nodes
    f, mean_s, mean_s2, pi = policy_at(b, kappa, 0.5)
    nan_mean = mean_s.copy()
    nan_mean[3] = np.nan
    problems = checks.node_saddle_problems(b, kappa, 0.5, RECT, f["atom_mu"], nan_mean,
                                           mean_s2, pi)
    assert any("grid search" in p for p in problems)
    nan_pi = pi.copy()
    nan_pi[3] = np.nan
    problems = checks.node_saddle_problems(b, kappa, 0.5, RECT, f["atom_mu"], mean_s,
                                           mean_s2, nan_pi)
    assert any("not the saddle strategy" in p for p in problems)


def test_regime_shares_and_a_collapsed_tail():
    b = np.linspace(0.0, 0.1, 201)
    kappa = np.linspace(3.0, 0.0, 201)
    f = branch_fields(b, kappa, UncertaintyRectangle(*RECT))
    shares = checks.regime_shares(b, kappa, RECT, f["atom_mu"], f["sigma_a"],
                                  f["sigma_b"], f["weight_a"])
    assert shares["high-tail"] > 0.3
    assert checks.regime_problems(shares, "high-tail", 0.3) == []
    # the same nodes with every measure collapsed to one atom
    shares = checks.regime_shares(b, kappa, RECT, f["atom_mu"], f["sigma_a"],
                                  f["sigma_a"], np.ones_like(b))
    assert checks.regime_problems(shares, "high-tail", 0.3)


def test_flat_surface_and_a_perturbed_node():
    t = np.repeat(np.linspace(0.0, 1.0, 11), 7)
    u = checks.flat_u(t, 0.5, 1.0, 0.1, 0.4)
    assert checks.surface_problems(t, u, np.zeros_like(u), 0.5, 1.0, 0.1, 0.4) == []
    u[30] += 1e-6
    assert checks.surface_problems(t, u, np.zeros_like(u), 0.5, 1.0, 0.1, 0.4)


def test_flat_fraction_and_a_wrong_one():
    frac = checks.flat_fraction(0.5, 0.1, 0.4)
    assert frac == pytest.approx(1.25)
    assert checks.fraction_problems(np.full(10, frac), 1.25) == []
    assert checks.fraction_problems(np.full(10, 1.26), 1.25)


def test_lognormal_eu_matches_sampling():
    rng = np.random.Generator(np.random.PCG64(11))
    f, mu, sig, q = 1.25, 0.3, 0.2, 0.5
    z = rng.standard_normal(400_000)
    x = np.exp(f * mu - 0.5 * (f * sig) ** 2 + f * sig * z)
    u = x**q / q
    se = float(np.std(u) / math.sqrt(len(u)))
    ref = checks.lognormal_eu(q, 1.0, f, mu, sig, 1.0)
    assert checks.eu_problems(float(np.mean(u)), se, ref, 4.0) == []
    assert checks.eu_problems(float(np.mean(u)) + 10 * se, se, ref, 4.0)


def test_corner_rows_read_labels_with_commas():
    rows = [("adversary", "point(0,0.2)", "1.0", "0.1"),
            ("adversary", "point(0.3,0.4)", "2.0", "0.2"),
            ("adversary", "random(0.1,0.3)", "3.0", "0.3"),
            ("value-match", "EU(pi*, nu*) vs PDE", "4.0", "0.4")]
    assert checks.corner_rows(rows, RECT) == {(0.0, 0.2): (1.0, 0.1),
                                              (0.3, 0.4): (2.0, 0.2)}


def test_self_time_subtracts_children():
    spans = [("pde.solve_hjbi", 0.0, 1.0, -1, "ramp", 100),
             ("worst_case.min_ratio_values", 0.1, 0.3, 0, "ramp", 50),
             ("pde.solve_banded", 0.4, 0.5, 0, "ramp", 0)]
    m = tracing.layer_metrics(spans, 1, 0, 1.0, 0)
    assert m["pde.self_s"][0] == pytest.approx(0.7)
    assert m["worst_case.ns_per_node.corner"][0] == pytest.approx(0.2e9 / 50)
    assert m["pde.ns_per_node_step"][0] == pytest.approx(1e9 / 100)


def test_only_the_known_problems_of_the_known_failure_are_excused():
    rec = workloads.PassRecorder(expected_failures=workloads.PdeLadder.expected_failures)
    known = checks.ladder_problems(ladder(1), [9.6e-3, 1.7e-2, 2.8e-2])
    known = [p for p in known if not p.startswith("max|du|")]
    assert known
    rec.op("solve farfield L2", "solve", lambda: None, lambda out: known)
    assert (rec.attempted, rec.failed, rec.unexpected) == (1, 1, [])
    rec.op("solve farfield L2", "solve", lambda: None, lambda out: ["u(T, .) is not 0"])
    rec.op("solve tail L2", "solve", lambda: None, lambda out: known)
    assert rec.failed == 3 and len(rec.unexpected) == 1 + len(known)
