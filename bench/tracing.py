"""In-memory span tracing of calls into robustport's public functions.

The tracer replaces module and class attributes with timing wrappers for the
length of a traced run; the program's files stay untouched.  A span is
(name, start, end, parent index, tag, size): the tag names the model being
worked on, the size is the work the call was given (nodes, node-steps,
path-steps or bytes written).  Self time is a span's duration minus the
durations of its direct children; calls nest on one thread, so the children
never overlap.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.tag = ""
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                size = size_of(args, kwargs) if size_of is not None else 0
                tracer.spans[idx] = (name, start, end, parent, tracer.tag, size)

        return traced

    def replace(self, owner, attr: str, new):
        """Set owner.attr to new until restore()."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, size_of=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), size_of))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 9), round(b, 9), p, tag, size]
                for n, a, b, p, tag, size in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag", "size"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
        os.replace(tmp, path)


class _TimedGenerator:
    """numpy Generator whose draws are traced; other attributes pass through."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("numpy.rng", gen.standard_normal)
        self.random = tracer.wrap("numpy.rng", gen.random)
        self.uniform = tracer.wrap("numpy.rng", gen.uniform)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _nodes(args, kwargs):
    b, kappa = _arg(args, kwargs, 0, "b_vals"), _arg(args, kwargs, 1, "kappas")
    return np.broadcast(np.asarray(b), np.asarray(kappa)).size


def _node_steps(args, kwargs):
    g = _arg(args, kwargs, 3, "g")
    return (g.n_t - 1) * g.n_y


def _path_steps(args, kwargs):
    cfg = _arg(args, kwargs, 3, "cfg")
    return cfg.n_paths * cfg.n_steps


def _file_bytes(args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer: Tracer):
    """Wrap the public functions of each pipeline layer where they are called.

    A function imported by name into another module is wrapped in that
    module, so the span records the calls of that caller.
    """
    from robustport import cli, csvio, pde, simulate, strategy
    from robustport.model import CoefficientFn
    from robustport.strategy import PolicyField

    p = tracer.patch
    p(pde, "min_ratio_values", "worst_case.min_ratio_values", _nodes)
    p(strategy, "branch_fields", "worst_case.branch_fields", _nodes)
    p(pde, "solve_banded", "pde.solve_banded")
    p(pde, "residual_norm", "pde.residual_norm")
    for mod in (pde, cli):
        p(mod, "solve_hjbi", "pde.solve_hjbi", _node_steps)
    for mod in (strategy, cli):
        p(mod, "build_policy", "strategy.build_policy")
    p(PolicyField, "fraction_at", "strategy.fraction_at")
    p(PolicyField, "moments_at", "strategy.lookup")
    p(PolicyField, "atoms_at", "strategy.lookup")
    p(CoefficientFn, "__call__", "model.coef")
    for mod in (simulate, cli):
        p(mod, "simulate_eu", "simulate.simulate_eu", _path_steps)
        p(mod, "terminal_wealths", "simulate.terminal_wealths", _path_steps)
    p(csvio, "write_surface", "csvio.write_surface", _file_bytes)
    p(csvio, "read_surface", "csvio.read_surface")
    p(csvio, "write_policy_csv", "csvio.write_policy_csv", _file_bytes)
    p(cli, "load_config", "config.load_config")
    # simulate draws through np.random.default_rng; its generators are timed
    default_rng = np.random.default_rng
    tracer.replace(np.random, "default_rng",
                   lambda *a, **k: _TimedGenerator(default_rng(*a, **k), tracer))


# per_layer metric tag for each pde-ladder model
NODE_TAGS = {"ramp": "corner", "tail": "tail", "zero": "zero", "farfield": "farfield"}
SIM_SPANS = ("simulate.simulate_eu", "simulate.terminal_wealths")


def layer_metrics(spans, passes: int, out_bytes: float, pipeline_s: float,
                  cache_hits: float) -> dict:
    """Per-pass layer figures from the spans of `passes` traced passes."""
    dur = defaultdict(float)
    count = defaultdict(int)
    size = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent, tag, sz in spans:
        dur[name] += end - start
        count[name] += 1
        size[name] += sz
        if parent >= 0:
            child[parent] += end - start

    def self_s(names):
        return sum(end - start - child[i]
                   for i, (name, start, end, _, _, _) in enumerate(spans) if name in names)

    def under(i, names):
        while i >= 0:
            if spans[i][0] in names:
                return True
            i = spans[i][3]
        return False

    rng_s = sum(end - start for name, start, end, parent, _, _ in spans
                if name == "numpy.rng" and under(parent, SIM_SPANS))
    node_time = defaultdict(float)
    node_count = defaultdict(float)
    for name, start, end, _, tag, sz in spans:
        if name == "worst_case.min_ratio_values":
            node_time[tag] += end - start
            node_count[tag] += sz

    def ns_per(t, n):
        return 1e9 * t / n if n else 0.0

    sim_dur = sum(dur[n] for n in SIM_SPANS)
    sim_size = sum(size[n] for n in SIM_SPANS)
    per = 1.0 / passes
    metrics = {
        "worst_case.min_ratio_calls": count["worst_case.min_ratio_values"] * per,
        "worst_case.min_ratio_s": dur["worst_case.min_ratio_values"] * per,
    }
    for model, tag in NODE_TAGS.items():
        metrics[f"worst_case.ns_per_node.{tag}"] = ns_per(node_time[model], node_count[model])
    metrics.update({
        "worst_case.branch_fields_s": dur["worst_case.branch_fields"] * per,
        "pde.solves": count["pde.solve_hjbi"] * per,
        "pde.ns_per_node_step": ns_per(dur["pde.solve_hjbi"], size["pde.solve_hjbi"]),
        "pde.banded_solves": count["pde.solve_banded"] * per,
        "pde.banded_s": dur["pde.solve_banded"] * per,
        "pde.residual_s": dur["pde.residual_norm"] * per,
        "pde.self_s": self_s({"pde.solve_hjbi"}) * per,
        "strategy.build_policy_s": dur["strategy.build_policy"] * per,
        "strategy.fraction_at_calls": count["strategy.fraction_at"] * per,
        "strategy.fraction_at_s": dur["strategy.fraction_at"] * per,
        "strategy.lookup_calls": count["strategy.lookup"] * per,
        "strategy.lookup_s": dur["strategy.lookup"] * per,
        "model.coef_calls": count["model.coef"] * per,
        "model.coef_s": dur["model.coef"] * per,
        "simulate.scenarios": sum(count[n] for n in SIM_SPANS) * per,
        "simulate.path_steps": sim_size * per,
        "simulate.ns_per_path_step": ns_per(sim_dur, sim_size),
        "simulate.self_s": self_s(set(SIM_SPANS)) * per,
        "simulate.rng_s": rng_s * per,
        "csvio.surface_write_s": dur["csvio.write_surface"] * per,
        "csvio.surface_bytes": size["csvio.write_surface"] * per,
        "csvio.surface_reads": count["csvio.read_surface"] * per,
        "csvio.surface_read_s": dur["csvio.read_surface"] * per,
        "csvio.policy_write_s": dur["csvio.write_policy_csv"] * per,
        "csvio.policy_bytes": size["csvio.write_policy_csv"] * per,
        "csvio.out_bytes": out_bytes,
    })
    for cmd in ("validate", "solve", "strategy", "simulate", "verify"):
        metrics[f"cli.{cmd}_s"] = dur[f"cli.{cmd}"] * per
    metrics["cli.cache_hits"] = cache_hits
    metrics["config.load_s"] = dur["config.load_config"] * per
    metrics["trace.pipeline_s"] = pipeline_s
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    """Unit of a per_layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
