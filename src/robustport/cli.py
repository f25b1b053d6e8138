"""Command-line front end.

Subcommands: validate, solve, strategy, simulate, verify, oracle, convergence.
Exit codes: 0 success, 1 assumption/assertion failure, 2 configuration error,
3 missing prerequisite artifact; a grid of more than MAX_GRID_NODES nodes is
a configuration error, refused before any solve.  The output directory
resolves as --out > config output_dir > $ROBUSTPORT_OUT > ./out.  `solve`
exports the surface as surface.csv and caches it for the downstream commands
as surface.npz, keyed by the config hash stored in it; `strategy`,
`simulate` and `verify` read only the cache.  `strategy` and `verify` print
the node count of each worst-case branch.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import csvio
from .config import (ConfigError, RunConfig, dump_config, load_config,
                     solve_config_hash)
from .model import validate_assumptions
from .pde import SolverError, ValueSurface, checked_b, solve_hjbi
from .simulate import (AdversaryPolicy, simulate_eu, terminal_wealths, utility_estimate,
                       verify_saddle)
from .strategy import build_policy
from .worst_case import BranchRegion, brute_force_min, minimize_ratio

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3

# the most nodes (n_t * n_y) `solve` and `convergence` solve on one grid: a
# solve holds about five surfaces of 8 bytes a node, so 2^25 nodes (smoke's
# 32001x801 convergence level is 2.6e7) peak near 1.1 GB
MAX_GRID_NODES = 1 << 25

SURFACE_CSV = "surface.csv"
SURFACE_NPZ = "surface.npz"
# what np.load and the shape check raise on a damaged cache file
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile)


def _out_dir(args, cfg: RunConfig) -> Path:
    out = args.out or cfg.output_dir or os.environ.get("ROBUSTPORT_OUT") or "out"
    p = Path(out)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return p


def _load_effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    n_t = n_y = None
    if getattr(args, "grid", None):
        try:
            n_t, n_y = (int(v) for v in args.grid.split(","))
        except ValueError:
            raise ConfigError(f"--grid expects 'n_t,n_y', got {args.grid!r}")
    try:
        return cfg.with_overrides(seed=getattr(args, "seed", None),
                                  n_paths=getattr(args, "paths", None),
                                  n_t=n_t, n_y=n_y)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _check_grid_size(n_t: int, n_y: int, where: str = "grid"):
    """Raises ConfigError where an n_t x n_y grid has more than
    MAX_GRID_NODES nodes."""
    if n_t * n_y > MAX_GRID_NODES:
        raise ConfigError(f"{where} {n_t}x{n_y} has {n_t * n_y} nodes, more than "
                          f"the {MAX_GRID_NODES} a solve may take")


class MissingArtifact(Exception):
    """A prerequisite artifact is missing or stale (exit code 3)."""


def _cached_policy(args):
    """(config, out dir, cached surface, policy field) for the commands that
    reuse the surface cached by `solve`."""
    cfg = _load_effective_config(args)
    out = _out_dir(args, cfg)
    path = out / SURFACE_NPZ
    if not path.exists():
        raise MissingArtifact(f"no cached surface in {out}; run `robustport solve` first")
    try:
        cached, u = csvio.read_surface_npz(path)
        if cached != solve_config_hash(cfg):
            raise MissingArtifact(f"cached surface in {out} is stale (config changed); "
                                  "re-run `robustport solve`")
        # a matching hash means u was solved on cfg.grid, unless the file was
        # edited; from_u checks the shape
        surface = ValueSurface.from_u(cfg.grid, u)
    except _UNREADABLE as exc:
        raise MissingArtifact(f"cached surface in {out} is unreadable ({exc}); "
                              "re-run `robustport solve`") from exc
    return cfg, out, surface, build_policy(surface, cfg.model, cfg.rectangle, cfg.utility)


def _print_occupancy(pf):
    """One line with the node count of every worst-case branch, in enum order.
    A code stored as one value counts all nodes for that value unexpanded."""
    codes = pf.branch_code.reshape(-1)  # a view, as one value stays one value
    if codes.size and not codes.strides[0]:
        counts = np.bincount(codes[:1], minlength=len(BranchRegion)) * codes.size
    else:
        counts = np.bincount(codes, minlength=len(BranchRegion))
    print("branch occupancy (nodes): "
          + " ".join(f"{r.value}={n}" for r, n in zip(BranchRegion, counts)))


def cmd_validate(args) -> int:
    cfg = _load_effective_config(args)
    report = validate_assumptions(cfg.model, cfg.rectangle)
    print("assumption report:", report.summary())
    if not report.passed:
        return EXIT_ASSERTION
    try:  # A3 as `solve` evaluates it, at the grid's nodes
        checked_b(cfg.model, cfg.rectangle, cfg.grid.y_nodes())
    except SolverError as exc:
        print(f"grid check: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_effective_config(args)
    _check_grid_size(cfg.grid.n_t, cfg.grid.n_y)
    out = _out_dir(args, cfg)
    try:
        surface = solve_hjbi(cfg.model, cfg.rectangle, cfg.utility, cfg.grid)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    h = solve_config_hash(cfg)
    csvio.write_surface(out / SURFACE_CSV, surface, h, cfg.sim.seed)
    csvio.write_surface_npz(out / SURFACE_NPZ, surface, h)
    d = surface.diagnostics
    print(f"solved {cfg.grid.n_t}x{cfg.grid.n_y} grid "
          f"(dt={cfg.grid.dt:.3g}, dy={cfg.grid.dy:.3g})")
    print(f"diagnostics: max|u|={d.max_abs_u:.6g} max|u_y|={d.max_abs_u_y:.6g} "
          f"edge|u_y|={d.max_edge_abs_u_y:.3g} "
          f"residual={d.max_residual:.3g} advection_cfl={d.max_advection_cfl:.3g}")
    print(f"u(0, y0={cfg.sim.y0:g}) = {surface.interp_u(0.0, [cfg.sim.y0])[0]:.8g}")
    print(f"wrote {out / SURFACE_CSV} and {out / SURFACE_NPZ}")
    return EXIT_OK


def cmd_strategy(args) -> int:
    cfg, out, _, pf = _cached_policy(args)
    csvio.write_policy_csv(out / "policy.csv", pf, solve_config_hash(cfg), cfg.sim.seed)
    _print_occupancy(pf)
    print(f"policy fraction at (t=0, y={cfg.sim.y0:g}): "
          f"{pf.fraction_at(0.0, np.asarray([cfg.sim.y0]))[0]:.8g}")
    print(f"wrote {out / 'policy.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, out, _, pf = _cached_policy(args)
    adv = AdversaryPolicy.field(pf)
    if args.histogram:
        # one set of paths gives both the histogram and the estimate
        w = terminal_wealths(pf, adv, cfg.model, cfg.sim)
        est = utility_estimate(w, cfg.utility.q)
    else:
        est = simulate_eu(pf, adv, cfg.model, cfg.sim, q=cfg.utility)
    h = solve_config_hash(cfg)
    csvio.write_sim_report_csv(out / "sim_report.csv",
                               [("pi*", "nu*-field", est, "n/a")], h, cfg.sim.seed)
    print(f"EU(pi*, nu*) = {est.mean:.6f} +/- {est.std_error:.2e} "
          f"({est.n_paths} paths, X_T in [{est.min_terminal_wealth:.4g}, "
          f"{est.max_terminal_wealth:.4g}])")
    if args.histogram:
        counts, edges = np.histogram(w, bins=60)
        csvio.write_histogram_csv(out / "wealth_histogram.csv", edges, counts,
                                  h, cfg.sim.seed)
        print(f"wrote {out / 'wealth_histogram.csv'}")
    print(f"wrote {out / 'sim_report.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, out, surface, pf = _cached_policy(args)
    _print_occupancy(pf)
    report = verify_saddle(surface, pf, cfg.model, cfg.rectangle, cfg.utility, cfg.sim)
    csvio.write_verify_report_csv(out / "verify_report.csv", report,
                                  solve_config_hash(cfg), cfg.sim.seed)
    print(report.summary())
    print(f"wrote {out / 'verify_report.csv'}")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def cmd_oracle(args) -> int:
    cfg = _load_effective_config(args)
    k = cfg.rectangle
    for flag, v in (("--b-val", args.b_val), ("--kappa", args.kappa)):
        if not math.isfinite(v):
            raise ConfigError(f"{flag} must be finite, got {v}")
    measure, value, branch = minimize_ratio(args.b_val, args.kappa, k)
    try:
        brute = brute_force_min(args.b_val, args.kappa, k, resolution=args.resolution)
    except ValueError as exc:
        raise ConfigError(f"--resolution: {exc}")
    print(f"branch: {branch.region.value}  thresholds: "
          f"t1={branch.t1:.6g} t2={branch.t2:.6g} t3={branch.t3:.6g} t4={branch.t4:.6g}")
    atoms = "  ".join(f"((mu={mu:.6g}, sigma={sig:.6g}), w={w:.6g})"
                      for (mu, sig), w in measure.atoms)
    print(f"measure: {atoms}")
    print(f"closed-form value: {value:.8g}")
    print(f"brute-force value ({args.resolution}^2 grid): {brute.value:.8g}")
    print(f"discrepancy: {abs(value - brute.value):.3g}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    if args.levels < 0:
        raise ConfigError(f"--levels must be >= 0, got {args.levels}")
    cfg = _load_effective_config(args)
    # dt/4 and dy/2 per level: dt/dy^2 is the same float at every level, so
    # the explicit-diffusion guard passes at all of them or fails at level 0,
    # before any solve.  Each level has 8x the nodes of the one before.
    n_t, n_y = cfg.grid.n_t, cfg.grid.n_y
    sizes = []
    for level in range(args.levels + 1):
        _check_grid_size(n_t, n_y, where=f"level {level} grid")
        sizes.append((n_t, n_y))
        n_t, n_y = 4 * (n_t - 1) + 1, 2 * (n_y - 1) + 1
    out = _out_dir(args, cfg)
    rows = []
    prev = None
    try:
        for level, (n_t, n_y) in enumerate(sizes):
            g_cfg = cfg.with_overrides(n_t=n_t, n_y=n_y)
            surface = solve_hjbi(g_cfg.model, g_cfg.rectangle, g_cfg.utility, g_cfg.grid)
            res = surface.diagnostics.max_residual
            ratio = prev / res if prev and res else None  # a 0 residual has no ratio
            g = g_cfg.grid
            rows.append({"level": level, "n_t": g.n_t, "n_y": g.n_y,
                         "residual": res, "ratio": ratio})
            msg = f"level {level}: ({g.n_t}, {g.n_y}) residual = {res:.4e}"
            if ratio is not None:
                msg += f"  residual ratio x{ratio:.2f}"
            print(msg)
            prev = res
    except SolverError as exc:
        print(f"solver error at level {level}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    csvio.write_convergence_csv(out / "convergence.csv", rows,
                                solve_config_hash(cfg), cfg.sim.seed)
    print(f"wrote {out / 'convergence.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robustport",
        description="Worst-case robust portfolio: HJBI solve, policy export, "
                    "Monte-Carlo verification")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, sim_flags=False):
        sp.add_argument("--config", required=True, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--dump-config", action="store_true",
                        help="print the normalized configuration and exit")
        if sim_flags:
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--paths", type=int, default=None)

    sp = sub.add_parser("validate", help="check model assumptions")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="solve the HJBI PDE and cache the surface")
    common(sp)
    sp.add_argument("--grid", default=None, metavar="N_T,N_Y",
                    help="override grid sizes")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("strategy", help="export the policy field CSV")
    common(sp)
    sp.set_defaults(func=cmd_strategy)

    sp = sub.add_parser("simulate", help="Monte-Carlo expected utility of pi* vs nu*")
    common(sp, sim_flags=True)
    sp.add_argument("--histogram", action="store_true",
                    help="also export a terminal-wealth histogram")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="Monte-Carlo saddle-point verification")
    common(sp, sim_flags=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="closed form vs brute force at one (b, kappa)")
    common(sp)
    sp.add_argument("--b-val", type=float, required=True, dest="b_val")
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--resolution", type=int, default=400)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("convergence", help="self-convergence study of the solver")
    common(sp)
    sp.add_argument("--levels", type=int, default=2,
                    help="number of refinements, each dividing dt by 4 and dy by 2")
    sp.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.dump_config:
            cfg = _load_effective_config(args)
            sys.stdout.write(dump_config(cfg))
            return EXIT_OK
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (AssertionError, FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
