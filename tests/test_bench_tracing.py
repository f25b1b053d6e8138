"""The benchmark's traced run (bench/tracing.py) wraps program functions by
name; installing it here makes a renamed or dropped name fail this suite
rather than the traced benchmark."""

import sys
from pathlib import Path

import numpy as np

from robustport import (AdversaryPolicy, GridSpec, SimConfig, cli, pde, simulate,
                        strategy)
from robustport.strategy import PolicyField

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores(smoke_model):
    targets = [(cli, "simulate_eu"), (cli, "terminal_wealths"), (simulate, "simulate_eu"),
               (PolicyField, "fraction_at"), (np.random, "default_rng")]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, before))
        cfg = SimConfig(n_paths=64, n_steps=3, seed=1, x0=1.0, y0=0.0, horizon=1.0)
        simulate.simulate_eu(0.5, AdversaryPolicy.constant_point(0.1, 0.3),
                             smoke_model, cfg, q=0.5)
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in targets] == before
    names = [span[0] for span in tracer.spans]
    assert names.count("simulate.simulate_eu") == 1
    assert names.count("numpy.rng") == cfg.n_steps


def test_tracer_sees_the_solver_seams(ramp_model, smoke_util, smoke_rect):
    # the tracer also wraps pde.min_ratio_values and pde.solve_banded, which
    # the solver no longer calls; install fails if either name is gone
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        pde.solve_hjbi(ramp_model, smoke_rect, smoke_util, GridSpec(1.0, 21, 13, 4.0))
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("pde.solve_hjbi") == 1
    assert names.count("pde.residual_norm") == 1


def test_tracer_sees_the_policy_kernel(ramp_model, smoke_util, smoke_rect):
    # build_policy reaches the measure through strategy.branch_fields, once
    s = pde.solve_hjbi(ramp_model, smoke_rect, smoke_util, GridSpec(1.0, 21, 13, 4.0))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        strategy.build_policy(s, ramp_model, smoke_rect, smoke_util)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("strategy.build_policy") == 1
    assert names.count("worst_case.branch_fields") == 1


def test_policy_field_has_what_the_bench_reads(ramp_model, smoke_util, smoke_rect):
    # bench/workloads.py reads these surfaces off a built PolicyField
    s = pde.solve_hjbi(ramp_model, smoke_rect, smoke_util, GridSpec(1.0, 21, 13, 4.0))
    pf = strategy.build_policy(s, ramp_model, smoke_rect, smoke_util)
    for name in ("mu_mean", "sigma_mean", "sigma_sq_mean", "pi_frac", "atom_mu",
                 "sigma_a", "sigma_b", "weight_a"):
        assert getattr(pf, name).shape == s.u.shape, name
