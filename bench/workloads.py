"""The benchmark's workloads: inputs made from the seed, and one pass of
operations over them.

An operation is one call into the pipeline (a solve, a policy build, a
verification or a CLI command) together with the checks on its output.  It
fails if it raises, exits non-zero or fails a check.  Model definitions live
here, not in the program's configs, so the checks' references stay fixed.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from robustport import cli, pde, simulate, strategy
from robustport.model import (CoefficientFn, GridSpec, MarketModel, PowerUtility,
                              UncertaintyRectangle)
from robustport.simulate import SimConfig

import checks

class PassRecorder:
    """Times the program calls of one pass and counts its operations.

    stage_s times the program calls only; the benchmark's own checks, file
    cleanup and the host gauge (reference.py) run outside it.
    """

    def __init__(self, tracer=None, expected_failures=None, gauge=None):
        self.tracer = tracer
        self.expected_failures = expected_failures or {}
        self.gauge = gauge
        self.stage_s = {"solve": 0.0, "policy": 0.0, "verify": 0.0, "cli": 0.0}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.cache_hits = 0

    def op(self, name: str, stage: str, fn, check=None, span: str | None = None):
        """Run one operation; return its output (None if it raised)."""
        self.attempted += 1
        if self.tracer is not None:
            fn = self.tracer.wrap(span or f"op.{stage}", fn)
        start = perf_counter()
        try:
            out = fn()
        except Exception:  # an operation that raises is counted, not fatal
            problems = [traceback.format_exc(limit=3).strip()]
            out = None
        else:
            problems = []
        finally:
            elapsed = perf_counter() - start
            self.stage_s[stage] += elapsed
        if self.gauge is not None:
            self.gauge.sample(elapsed)
        if not problems and check is not None:
            try:
                problems = check(out)
            except Exception:  # an output the check cannot read fails it
                problems = [traceback.format_exc(limit=3).strip()]
        if problems:
            self.failed += 1
            known = self.expected_failures.get(name, ())
            self.unexpected.extend(f"{name}: {p}" for p in problems
                                   if not p.startswith(known))
        return out

    def skip(self, name: str, reason: str):
        """An operation whose input failed to build: attempted and failed."""
        self.attempted += 1
        self.failed += 1
        self.unexpected.append(f"{name}: {reason}")


# ---------------------------------------------------------------- models

RECT = (0.1, 0.3, 0.2, 0.4)


def ramp_values(y, left: float, right: float, radius: float):
    """The C^4 smoothstep ramp of the model family, written out here:
    126 z^5 - 420 z^6 + 540 z^7 - 315 z^8 + 70 z^9 on z = (y + N)/(2N)."""
    z = np.clip((np.asarray(y, dtype=float) + radius) / (2.0 * radius), 0.0, 1.0)
    s = 126 * z**5 - 420 * z**6 + 540 * z**7 - 315 * z**8 + 70 * z**9
    return left + (right - left) * s


class LadderModel:
    """One pde-ladder model: coefficients, rectangle, utility and base grid."""

    def __init__(self, name, b, beta, r, rho, rect, q, y_radius, n_y,
                 regime, min_share):
        self.name = name
        self.b = b                                  # (left, right, tail radius)
        self.rect = rect
        self.q = q
        self.rho = rho
        self.model = MarketModel(CoefficientFn.ramp(*b), beta, r, rho)
        self.k = UncertaintyRectangle(*rect)
        self.util = PowerUtility(q)
        self.y_radius = y_radius
        self.n_y = n_y
        self.regime = regime
        self.min_share = min_share

    def grid(self, level: int, n_t: int = 501) -> GridSpec:
        scale = 2**level
        return GridSpec(1.0, (n_t - 1) * scale + 1, (self.n_y - 1) * scale + 1,
                        self.y_radius)

    def b_at(self, y):
        return ramp_values(y, *self.b)


def ladder_models() -> list[LadderModel]:
    zero_c = CoefficientFn.constant(0.0)
    branch_rect = (0.0,) + RECT[1:]
    return [
        # configs/ramp.yaml: every node sits in the (mu-, sigma+) corner
        LadderModel("ramp", (0.0, 0.2, 2.0), CoefficientFn.ramp(0.1, -0.1, 2.0),
                    CoefficientFn("constant", 0.01, 0.01, 2.0), 0.5, RECT, 0.5,
                    4.0, 81, "minus-corner", 1.0),
        # mu- = 0 lets the tail branch win: two-atom measures on ~40% of nodes
        LadderModel("tail", (0.0, 0.4, 1.0), zero_c, zero_c, 0.9, branch_rect, 0.5,
                    3.0, 61, "high-tail", 0.3),
        # the same market at q = -2 puts ~40% of nodes in the zero branch
        LadderModel("zero", (0.0, 0.4, 1.0), zero_c, zero_c, 0.9, branch_rect, -2.0,
                    3.0, 61, "zero", 0.3),
        # u is not flat in y at the Dirichlet edge y = -3
        LadderModel("farfield", (0.0, 0.6, 1.0), zero_c, zero_c, 1.0,
                    (0.01,) + RECT[1:], 0.8, 3.0, 61, "high-tail", 0.2),
    ]


def sample_nodes(rng, n_t: int, n_y: int, count: int):
    """Random interior nodes (time row, y column) for the node checks."""
    i = rng.integers(0, n_t - 1, size=count)
    j = rng.integers(1, n_y - 1, size=count)
    return i, j


def policy_node_problems(lm: LadderModel, surface, pf, nodes, label: str):
    """Saddle checks at sampled nodes, with u_y differenced here from u."""
    i, j = nodes
    dy = float(surface.y[1] - surface.y[0])
    kappa = lm.rho * (surface.u[i, j + 1] - surface.u[i, j - 1]) / (2.0 * dy)
    return checks.node_saddle_problems(
        lm.b_at(surface.y[j]), kappa, lm.q, lm.rect, pf.mu_mean[i, j],
        pf.sigma_mean[i, j], pf.sigma_sq_mean[i, j], pf.pi_frac[i, j], label)


def policy_regime_problems(lm: LadderModel, surface, pf, label: str):
    """The finest policy reaches the regime the model is there for."""
    shares = checks.regime_shares(lm.b_at(surface.y)[None, :], lm.rho * surface.u_y,
                                  lm.rect, pf.atom_mu, pf.sigma_a, pf.sigma_b,
                                  pf.weight_a)
    return checks.regime_problems(shares, lm.regime, lm.min_share, label)


def solved_surface_problems(surface, shape) -> list[str]:
    """Shape, finiteness and the terminal condition u(T, .) = 0."""
    if surface.u.shape != shape:
        return [f"surface shape {surface.u.shape} != {shape}"]
    if not np.all(np.isfinite(surface.u)):
        return ["non-finite values in the surface"]
    if np.any(surface.u[-1] != 0.0):
        return ["u(T, .) is not 0"]
    return []


def report_problems(report, label: str = "") -> list[str]:
    return [f"{label}{f.kind} {f.label}: EU {f.eu:.6g} vs bound {f.bound:.6g}"
            for f in report.findings if not f.passed]


def _seeded(seed: int):
    return np.random.Generator(np.random.PCG64(seed))


# The saddle gates are 3-SE tests, which a correct program fails on a few
# seeds in a thousand.  So the Monte-Carlo seeds are fixed (those of
# configs/ramp.yaml and configs/smoke.yaml) and the benchmark seed moves the
# initial wealth instead: X_T scales with x0, so every estimate and its
# reference scale by x0^q and a verdict does not hang on the seed.
RAMP_MC_SEED = 31001
SMOKE_MC_SEED = 20240


def initial_wealth(rng) -> float:
    return float(np.exp(rng.uniform(-0.5, 0.5)))


def warm_library(models):
    """Solve, build and verify once on tiny grids, so that the first timed
    pass does not pay for first calls."""
    for lm in models:
        s = pde.solve_hjbi(lm.model, lm.k, lm.util, GridSpec(1.0, 101, 13, lm.y_radius))
        pf = strategy.build_policy(s, lm.model, lm.k, lm.util)
    simulate.verify_saddle(s, pf, lm.model, lm.k, lm.util,
                           SimConfig(256, 10, 1, 1.0, 0.0, 1.0))


class PdeLadder:
    """Three-level refinement ladder of solve + policy on four models, then a
    small saddle verification on the finest ramp surface."""

    LEVELS = 3
    NODES = 48
    STAGE_GAUGE: dict = {}
    # pde.tail_values pins u at y = -3 as if u were flat in y there; on the
    # farfield model it is not, and the ladder stops converging.  Only these
    # problems of that operation are known; any other is unexpected.
    expected_failures = {"solve farfield L2": ("pointwise shrink factor",
                                               "residual does not fall")}

    def __init__(self, seed: int, out_dir: Path):
        rng = _seeded(seed)
        self.models = ladder_models()
        self.nodes = {}
        for lm in self.models:
            for lev in range(self.LEVELS):
                g = lm.grid(lev)
                self.nodes[lm.name, lev] = sample_nodes(rng, g.n_t, g.n_y, self.NODES)
        self.sim = SimConfig(n_paths=16384, n_steps=50, seed=RAMP_MC_SEED,
                             x0=initial_wealth(rng), y0=0.0, horizon=1.0)

    def warm_up(self):
        warm_library(self.models)

    def out_bytes(self) -> int:
        return 0

    def run_pass(self, rec: PassRecorder):
        finest = None
        for lm in self.models:
            if rec.tracer is not None:
                rec.tracer.tag = lm.name
            u0, residuals = [], []
            for lev in range(self.LEVELS):
                g = lm.grid(lev)
                last = lev == self.LEVELS - 1
                tag = f"{lm.name} L{lev}"

                def solve_check(s, g=g, last=last):
                    problems = solved_surface_problems(s, (g.n_t, g.n_y))
                    u0.append(s.u[0].copy())
                    residuals.append(s.diagnostics.max_residual)
                    if last and not problems:
                        problems = checks.ladder_problems(u0, residuals)
                    return problems

                s = rec.op(f"solve {tag}", "solve",
                           lambda: pde.solve_hjbi(lm.model, lm.k, lm.util, g), solve_check)
                if s is None:
                    rec.skip(f"policy {tag}", "no surface")
                    continue

                def policy_check(pf, s=s, lev=lev, last=last):
                    problems = policy_node_problems(lm, s, pf, self.nodes[lm.name, lev],
                                                    f"{tag}: ")
                    if last:
                        problems += policy_regime_problems(lm, s, pf, f"{tag}: ")
                    return problems

                pf = rec.op(f"policy {tag}", "policy",
                            lambda: strategy.build_policy(s, lm.model, lm.k, lm.util),
                            policy_check)
                if lm.name == "ramp" and last:
                    finest = (lm, s, pf)
        if finest is None or finest[2] is None:
            rec.skip("verify ramp", "no finest ramp policy")
            return
        lm, s, pf = finest
        if rec.tracer is not None:
            rec.tracer.tag = lm.name
        rec.op("verify ramp", "verify",
               lambda: simulate.verify_saddle(s, pf, lm.model, lm.k, lm.util, self.sim),
               report_problems)


class McSaddle:
    """Full saddle verification on the tail model over a coarse surface, so
    that Monte-Carlo work dominates the pass."""

    NODES = 48
    expected_failures = None
    # the simulations work on batches of 65536 paths, which the host's drift
    # moves less than the other work: their time is scaled by the batch part
    # of the gauge alone (bench/README.md)
    STAGE_GAUGE = {"verify": ("batch",)}

    def __init__(self, seed: int, out_dir: Path):
        rng = _seeded(seed)
        self.lm = next(lm for lm in ladder_models() if lm.name == "tail")
        self.grid = GridSpec(1.0, 801, 121, self.lm.y_radius)
        self.nodes = sample_nodes(rng, self.grid.n_t, self.grid.n_y, self.NODES)
        # the path count of configs/ramp.yaml: one full batch of
        # simulate.BATCH_SIZE = 65536 paths and one partial batch of 34464
        self.sim = SimConfig(n_paths=100_000, n_steps=20, seed=RAMP_MC_SEED,
                             x0=initial_wealth(rng), y0=0.0, horizon=1.0)

    def warm_up(self):
        warm_library([self.lm])

    def out_bytes(self) -> int:
        return 0

    def run_pass(self, rec: PassRecorder):
        lm, g = self.lm, self.grid
        if rec.tracer is not None:
            rec.tracer.tag = lm.name
        s = rec.op("solve tail", "solve",
                   lambda: pde.solve_hjbi(lm.model, lm.k, lm.util, g),
                   lambda s: solved_surface_problems(s, (g.n_t, g.n_y)))
        if s is None:
            rec.skip("policy tail", "no surface")
            rec.skip("verify tail", "no surface")
            return

        def policy_check(pf):
            return (policy_node_problems(lm, s, pf, self.nodes, "")
                    + policy_regime_problems(lm, s, pf, ""))

        pf = rec.op("policy tail", "policy",
                    lambda: strategy.build_policy(s, lm.model, lm.k, lm.util), policy_check)
        if pf is None:
            rec.skip("verify tail", "no policy")
            return

        def verify_check(report):
            problems = report_problems(report)
            chat = [f for f in report.findings if f.label == "chattering"]
            if len(chat) != 1:
                return problems + ["no chattering finding in the report"]
            se = float(np.hypot(chat[0].std_error, report.base.std_error))
            return problems + checks.eu_problems(chat[0].eu, se, report.base.mean, 3.0,
                                                 label="chattering vs field: ")

        rec.op("verify tail", "verify",
               lambda: simulate.verify_saddle(s, pf, lm.model, lm.k, lm.util, self.sim),
               verify_check)


SMOKE = {
    "model": {"b": {"kind": "constant", "value": 0.0},
              "beta": {"kind": "constant", "value": 0.0},
              "r": {"kind": "constant", "value": 0.0},
              "rho": 0.5},
    "rectangle": {"mu_minus": RECT[0], "mu_plus": RECT[1],
                  "sigma_minus": RECT[2], "sigma_plus": RECT[3]},
    "utility": {"q": 0.5},
    "grid": {"horizon": 1.0, "n_t": 2001, "n_y": 201, "y_radius": 3.0, "theta": 0.5},
}
EXIT_MISSING = 3


def _run_cli(argv):
    """cli.main with its printing captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[2:] if line]


class CliSmoke:
    """The user's command-line path on the flat smoke model at 2001 x 201:
    validate -> solve -> strategy -> simulate --histogram -> verify."""

    expected_failures = None
    STAGE_GAUGE: dict = {}

    def __init__(self, seed: int, out_dir: Path):
        rng = _seeded(seed)
        self.sim = {"n_paths": 8192, "n_steps": 50, "seed": SMOKE_MC_SEED,
                    "x0": initial_wealth(rng), "y0": 0.0}
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config = out_dir / "smoke.yaml"
        self.config.write_text(yaml.safe_dump(dict(SMOKE, sim=self.sim), sort_keys=False),
                               encoding="utf-8")
        self.warm_config = out_dir / "warm.yaml"
        warm = dict(SMOKE, grid=dict(SMOKE["grid"], n_t=201, n_y=21),
                    sim=dict(self.sim, n_paths=256, n_steps=10))
        self.warm_config.write_text(yaml.safe_dump(warm, sort_keys=False), encoding="utf-8")
        self.run_dir = out_dir / "run"
        self.warm_dir = out_dir / "warm"
        q, mu_lo, s_hi = SMOKE["utility"]["q"], RECT[0], RECT[3]
        self.q = q
        self.frac = checks.flat_fraction(q, mu_lo, s_hi)
        self.u0 = float(checks.flat_u(0.0, q, 1.0, mu_lo, s_hi))

    def commands(self, config: Path, out: Path):
        base = ["--config", str(config), "--out", str(out)]
        return [("validate", ["validate"] + base, "cli"),
                ("solve", ["solve"] + base, "solve"),
                ("strategy", ["strategy"] + base, "policy"),
                ("simulate", ["simulate"] + base + ["--histogram"], "verify"),
                ("verify", ["verify"] + base, "verify")]

    def warm_up(self):
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        for _, argv, _ in self.commands(self.warm_config, self.warm_dir):
            _run_cli(argv)

    def out_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.run_dir.iterdir())

    def run_pass(self, rec: PassRecorder):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        checkers = {"validate": self._validate, "solve": self._solve,
                    "strategy": self._strategy, "simulate": self._simulate,
                    "verify": self._verify}
        for cmd, argv, stage in self.commands(self.config, self.run_dir):
            def check(res, cmd=cmd):
                rc, out, err = res
                if cmd not in ("validate", "solve") and rc != EXIT_MISSING:
                    rec.cache_hits += 1
                if rc != 0:
                    return [f"exit code {rc}: {err.strip()[-300:]}"]
                return checkers[cmd](out)

            rec.op(f"cli {cmd}", stage, lambda: _run_cli(argv), check, span=f"cli.{cmd}")

    def _validate(self, out: str):
        return [] if "all assumptions hold" in out else [f"validate printed {out!r}"]

    def _solve(self, out: str):
        data = np.loadtxt(self.run_dir / "surface.csv", delimiter=",", skiprows=2)
        g = SMOKE["grid"]
        if data.shape != (g["n_t"] * g["n_y"], 4):
            return [f"surface.csv has shape {data.shape}"]
        return checks.surface_problems(data[:, 0], data[:, 2], data[:, 3], self.q,
                                       g["horizon"], RECT[0], RECT[3])

    def _strategy(self, out: str):
        pi = np.loadtxt(self.run_dir / "policy.csv", delimiter=",", skiprows=2,
                        usecols=(6,))
        g = SMOKE["grid"]
        if pi.shape != (g["n_t"] * g["n_y"],):
            return [f"policy.csv has {pi.shape} fractions"]
        return checks.fraction_problems(pi, self.frac)

    def _simulate(self, out: str):
        rows = _csv_rows(self.run_dir / "sim_report.csv")
        if len(rows) != 1:
            return [f"sim_report.csv has {len(rows)} rows"]
        eu, se = float(rows[0][2]), float(rows[0][3])
        reference = self.sim["x0"] ** self.q / self.q * np.exp(self.u0)
        counts = [int(r[2]) for r in _csv_rows(self.run_dir / "wealth_histogram.csv")]
        problems = checks.eu_problems(eu, se, reference, 3.0, 1e-3)
        if sum(counts) != self.sim["n_paths"]:
            problems.append(f"histogram counts sum to {sum(counts)}, "
                            f"not {self.sim['n_paths']}")
        return problems

    def _verify(self, out: str):
        # labels such as point(0.1,0.2) hold unquoted commas: the kind is the
        # first field and eu, se, bound, verdict are the last four
        rows = [(r[0], ",".join(r[1:-4]), r[-4], r[-3])
                for r in _csv_rows(self.run_dir / "verify_report.csv")]
        corners = checks.corner_rows(rows, RECT)
        if len(corners) != 4:
            return [f"verify_report.csv has {len(corners)} corner rows, not 4"]
        problems = []
        for (mu, sig), (eu, se) in sorted(corners.items()):
            ref = checks.lognormal_eu(self.q, self.sim["x0"], self.frac, mu, sig, 1.0)
            problems += checks.eu_problems(eu, se, ref, 4.0,
                                           label=f"corner ({mu:g}, {sig:g}): ")
        return problems

MAKERS = {"pde-ladder": PdeLadder, "mc-saddle": McSaddle, "cli-smoke": CliSmoke}
