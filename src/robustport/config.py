"""Run configuration: a strict key-value (YAML) schema wiring the model,
uncertainty rectangle, utility, grid, and simulation settings.

Schema (all keys validated, unknown and repeated keys rejected)::

    model:
      b:    {kind: smooth-ramp, left: 0.0, right: 0.2, tail_radius: 2.0}
      beta: {kind: constant, value: 0.0}
      r:    {kind: constant, value: 0.0}
      rho: 0.5
    rectangle: {mu_minus: 0.1, mu_plus: 0.3, sigma_minus: 0.2, sigma_plus: 0.4}
    utility: {q: 0.5}
    grid: {horizon: 1.0, n_t: 2001, n_y: 201, y_radius: 3.0, theta: 0.5}
    sim: {n_paths: 200000, n_steps: 500, seed: 7, x0: 1.0, y0: 0.0}
    output_dir: out            # optional

Coefficient kinds: constant {value, tail_radius?}, smooth-ramp {left, right,
tail_radius}, piecewise-linear-clamped {left, right, tail_radius, knots}.
grid.y_radius defaults to the coefficient tail radius + 2; grid.theta to 0.5.
The simulation horizon is grid.horizon (no separate key).  Keys annotated int
(n_t, n_y, n_paths, n_steps, seed) take integers; every other number may be
an integer or a float.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields, replace

import yaml

from .model import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                    UncertaintyRectangle, default_y_radius)
from .simulate import SimConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "canonical_dict", "dump_config", "solve_config_hash"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model: MarketModel
    rectangle: UncertaintyRectangle
    utility: PowerUtility
    grid: GridSpec
    sim: SimConfig
    output_dir: str | None = None

    def with_overrides(self, seed: int | None = None, n_paths: int | None = None,
                       n_t: int | None = None, n_y: int | None = None) -> "RunConfig":
        cfg = self
        if seed is not None or n_paths is not None:
            sim = replace(cfg.sim,
                          seed=cfg.sim.seed if seed is None else seed,
                          n_paths=cfg.sim.n_paths if n_paths is None else n_paths)
            cfg = replace(cfg, sim=sim)
        if n_t is not None or n_y is not None:
            grid = replace(cfg.grid,
                           n_t=cfg.grid.n_t if n_t is None else n_t,
                           n_y=cfg.grid.n_y if n_y is None else n_y)
            cfg = replace(cfg, grid=grid)
        return cfg


# Each section's dataclass and its keys in dump order.  A key is required
# unless its field has a default or parse_config supplies one; a value is read
# by its field's annotation.
_SECTIONS = {
    "model": (MarketModel, ("b", "beta", "r", "rho")),
    "rectangle": (UncertaintyRectangle,
                  ("mu_minus", "mu_plus", "sigma_minus", "sigma_plus")),
    "utility": (PowerUtility, ("q",)),
    "grid": (GridSpec, ("horizon", "n_t", "n_y", "y_radius", "theta")),
    "sim": (SimConfig, ("n_paths", "n_steps", "seed", "x0", "y0")),
}

# each coefficient kind's keys after `kind`, in dump order; a constant's
# `value` is its left and right value, and its tail_radius is optional
_KINDS = {
    "constant": ("value", "tail_radius"),
    "smooth-ramp": ("left", "right", "tail_radius"),
    "piecewise-linear-clamped": ("left", "right", "tail_radius", "knots"),
}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()):
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in node]
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _value(v, path: str, annotation: str):
    """A field's value: "int" takes integers only, "float" any number (bools
    are neither), "CoefficientFn" a coefficient mapping."""
    if annotation == "CoefficientFn":
        return _coefficient(v, path)
    if isinstance(v, bool) or not isinstance(v, int if annotation == "int" else (int, float)):
        what = "an integer" if annotation == "int" else "a number"
        raise ConfigError(f"{path}: expected {what}, got {v!r}")
    return v if annotation == "int" else float(v)


def _coefficient(node, path: str) -> CoefficientFn:
    node = _require_mapping(node, path)
    kind = node.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"{path}.kind: expected one of {' / '.join(_KINDS)}, "
                          f"got {kind!r}")
    keys = _KINDS[kind]
    optional = ("tail_radius",) if kind == "constant" else ()
    _check_keys(node, path, ("kind", *(k for k in keys if k not in optional)), optional)
    knots = node.get("knots", [])
    if not isinstance(knots, list) or any(not isinstance(p, list) or len(p) != 2
                                          for p in knots):
        raise ConfigError(f"{path}.knots: expected a list of [y, value] pairs")
    values = {k: _value(node[k], f"{path}.{k}", "float")
              for k in keys if k in node and k != "knots"}
    values["knots"] = tuple(tuple(_value(v, f"{path}.knots", "float") for v in p)
                            for p in knots)
    if kind == "constant":
        values["left"] = values["right"] = values.pop("value")
    try:
        return CoefficientFn(kind, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section(root: dict, name: str, **defaults):
    """Build section `name` from its mapping.  `defaults` adds to the field
    defaults; a default whose name is not a key is always used."""
    cls, keys = _SECTIONS[name]
    node = _require_mapping(root[name], name)
    annotations = {f.name: f.type for f in fields(cls)}
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING} | defaults
    _check_keys(node, name, tuple(k for k in keys if k not in defaults),
                tuple(k for k in keys if k in defaults))
    values = {k: _value(node[k], f"{name}.{k}", annotations[k]) for k in keys if k in node}
    try:
        return cls(**(defaults | values))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config(data) -> RunConfig:
    root = _require_mapping(data, "config")
    _check_keys(root, "config", tuple(_SECTIONS), ("output_dir",))
    model = _section(root, "model")
    rect = _section(root, "rectangle")
    utility = _section(root, "utility")
    grid = _section(root, "grid", y_radius=default_y_radius(model))
    sim = _section(root, "sim", horizon=grid.horizon)
    out = root.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output_dir: expected a string, got {out!r}")
    return RunConfig(model, rect, utility, grid, sim, out)


class _UniqueKeys:
    """A safe yaml loader's mixin refusing a mapping that repeats a key,
    which yaml.safe_load would silently resolve to the last value."""

    def construct_mapping(self, node, deep=False):
        key_nodes = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in key_nodes:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"{mark.name}: duplicate key {key!r} "
                                  f"(line {mark.line + 1})")
            seen.add(key)
        return mapping


class _UniqueKeyLoader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Parses with libyaml's C parser where PyYAML has it (0.26 against 1.7
    ms a config), else in Python; the marks name the file either way."""


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    return parse_config(data)


def _coefficient_dict(f: CoefficientFn) -> dict:
    values = {"value": f.left, "left": f.left, "right": f.right,
              "tail_radius": f.tail_radius, "knots": [list(p) for p in f.knots]}
    return {"kind": f.kind, **{k: values[k] for k in _KINDS[f.kind]}}


def canonical_dict(cfg: RunConfig) -> dict:
    """Fully-defaulted plain-dict form; dump -> parse round-trips identically."""
    d = {}
    for name, (_, keys) in _SECTIONS.items():
        values = [getattr(getattr(cfg, name), k) for k in keys]
        d[name] = {k: _coefficient_dict(v) if isinstance(v, CoefficientFn) else v
                   for k, v in zip(keys, values)}
    if cfg.output_dir is not None:
        d["output_dir"] = cfg.output_dir
    return d


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(canonical_dict(cfg), sort_keys=False)


def solve_config_hash(cfg: RunConfig) -> str:
    """Hash over the solve-relevant sections (model/rectangle/utility/grid)
    only, so simulation-setting edits don't invalidate a cached surface."""
    d = canonical_dict(cfg)
    payload = json.dumps({k: d[k] for k in ("model", "rectangle", "utility", "grid")},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
