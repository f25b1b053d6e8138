import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from robustport import GridSpec, build_policy, config, solve_hjbi
from robustport.cli import _print_occupancy, main
from robustport.config import (ConfigError, canonical_dict, dump_config,
                               load_config, parse_config, solve_config_hash)
from robustport.simulate import BATCH_SIZE
from robustport.worst_case import BranchRegion

SMALL_CONFIG = {
    "model": {
        "b": {"kind": "constant", "value": 0.0},
        "beta": {"kind": "constant", "value": 0.0},
        "r": {"kind": "constant", "value": 0.0},
        "rho": 0.5,
    },
    "rectangle": {"mu_minus": 0.1, "mu_plus": 0.3,
                  "sigma_minus": 0.2, "sigma_plus": 0.4},
    "utility": {"q": 0.5},
    "grid": {"horizon": 1.0, "n_t": 201, "n_y": 51, "y_radius": 3.0, "theta": 0.5},
    "sim": {"n_paths": 20000, "n_steps": 50, "seed": 77, "x0": 1.0, "y0": 0.0},
}


def write_config(tmp_path, overrides=None, name="run.yaml"):
    data = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
    for path, value in (overrides or {}).items():
        node = data
        keys = path.split(".")
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        again = parse_config(yaml.safe_load(dump_config(cfg)))
        assert canonical_dict(cfg) == canonical_dict(again)
        assert solve_config_hash(cfg) == solve_config_hash(again)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"grid.bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_missing_section_rejected(self, tmp_path):
        data = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        del data["utility"]
        p = tmp_path / "broken.yaml"
        p.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigError, match="utility"):
            load_config(str(p))

    def test_type_errors_have_field_path(self, tmp_path):
        path = write_config(tmp_path, {"rectangle.mu_minus": "abc"})
        with pytest.raises(ConfigError, match="rectangle.mu_minus"):
            load_config(path)

    def test_default_radius_and_theta(self, tmp_path):
        data = yaml.safe_load(yaml.safe_dump(SMALL_CONFIG))
        del data["grid"]["y_radius"]
        del data["grid"]["theta"]
        p = tmp_path / "d.yaml"
        p.write_text(yaml.safe_dump(data))
        cfg = load_config(str(p))
        assert cfg.grid.theta == 0.5
        assert cfg.grid.y_radius == pytest.approx(3.0)  # tail radius 1 + 2

    def test_sim_horizon_follows_grid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"grid.horizon": 2.0, "grid.n_t": 401}))
        assert cfg.sim.horizon == 2.0

    def test_coefficient_kind_errors(self, tmp_path):
        path = write_config(tmp_path, {"model.b": {"kind": "spline"}})
        with pytest.raises(ConfigError, match="model.b"):
            load_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("grid.n_t", 2.0, "grid.n_t: expected an integer, got 2.0"),
        ("sim.seed", True, "sim.seed: expected an integer, got True"),
        ("model.rho", "a", "model.rho: expected a number, got 'a'"),
        ("model.b", {"kind": "smooth-ramp", "left": "x", "right": 0.2, "tail_radius": 1.0},
         "model.b.left: expected a number, got 'x'"),
        ("model.b", {"kind": "smooth-ramp", "left": 0.0, "right": 0.2, "tail_radius": 1.0,
                     "knots": []},
         "model.b: unknown key(s) ['knots']"),
        ("model.b", {"kind": "constant"}, "model.b: missing required key(s) ['value']"),
        ("model.r", {"kind": "piecewise-linear-clamped", "left": 0.0, "right": 0.0,
                     "tail_radius": 1.0, "knots": [[[0.5], 0.0]]},
         "model.r.knots: expected a number, got [0.5]"),
        ("model.rho", 2.0, "model: rho must lie in [0, 1], got 2.0"),
        ("grid.theta", 3, "grid: theta must lie in [0, 1]"),
    ])
    def test_messages_name_their_path_once(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, {key: value}))
        assert str(info.value) == message

    @pytest.mark.parametrize("name, digest", [("smoke", "9cd8541f6f4e11a6"),
                                              ("ramp", "8c1542bc901ed53a")])
    def test_shipped_config_hashes(self, name, digest):
        # the hash keys the cached surface.npz; a new value orphans every cache
        cfg = load_config(str(Path(__file__).parent.parent / "configs" / f"{name}.yaml"))
        assert solve_config_hash(cfg) == digest

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # yaml.safe_load would keep the last value, rho 0.9, silently
        text = Path(write_config(tmp_path)).read_text()
        assert text.count("  rho: 0.5\n") == 1
        p = tmp_path / "twice.yaml"
        p.write_text(text.replace("  rho: 0.5\n", "  rho: 0.5\n  rho: 0.9\n"))
        with pytest.raises(ConfigError, match="duplicate key 'rho'"):
            load_config(str(p))
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {p}: duplicate key 'rho'")
        # a key that overrides one of a YAML merge (<<) is not a repeat
        assert text.count("rectangle:\n") == 1
        p.write_text(text.replace("rectangle:\n", "rectangle:\n  <<: {mu_minus: 0.0}\n"))
        assert load_config(str(p)).rectangle.mu_minus == 0.1

    @pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
    def test_duplicate_key_rejected_by_either_parser(self, tmp_path, monkeypatch, base):
        # libyaml's C parser, where PyYAML has it, and the pure-Python one
        # name the file, the key and its line alike, and load the same config
        assert issubclass(config._UniqueKeyLoader,
                          getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        if not hasattr(yaml, base):
            pytest.skip(f"this PyYAML has no {base}")
        ok = write_config(tmp_path)
        want = load_config(ok)
        monkeypatch.setattr(config, "_UniqueKeyLoader",
                            type("Loader", (config._UniqueKeys, getattr(yaml, base)), {}))
        assert load_config(ok) == want
        p = tmp_path / "twice.yaml"
        p.write_text(Path(ok).read_text().replace("  rho: 0.5\n", "  rho: 0.5\n  rho: 0.9\n"))
        with pytest.raises(ConfigError) as info:
            load_config(str(p))
        line = p.read_text().splitlines().index("  rho: 0.9") + 1
        assert str(info.value) == f"{p}: duplicate key 'rho' (line {line})"

    def test_integer_valued_floats_load_as_floats(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"grid.horizon": 2, "grid.n_t": 401,
                                                  "model.rho": 1, "sim.x0": 3}))
        assert cfg.grid.horizon == cfg.sim.horizon == 2.0
        assert all(type(v) is float for v in (cfg.grid.horizon, cfg.model.rho, cfg.sim.x0))
        assert type(cfg.grid.n_t) is int


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", write_config(tmp_path)]) == 0
        assert "assumptions hold" in capsys.readouterr().out

    def test_package_runs_as_a_module(self):
        # `PYTHONPATH=src python -m robustport ...` works without an install
        repo = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "robustport", "validate", "--config",
             str(repo / "configs" / "smoke.yaml")],
            env={**os.environ, "PYTHONPATH": str(repo / "src")}, cwd=repo,
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "all assumptions hold" in done.stdout

    def test_validate_assumption_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model.b": {"kind": "constant", "value": -1.0}})
        assert main(["validate", "--config", path]) == 1
        assert "A3" in capsys.readouterr().out

    def test_narrow_dip_fails_validate_and_solve(self, tmp_path, capsys):
        dip = {"kind": "piecewise-linear-clamped", "left": 0.0, "right": 0.0,
               "tail_radius": 1.0, "knots": [[0.001, 0.0], [0.005, -0.5], [0.009, 0.0]]}
        path = write_config(tmp_path, {"model.b": dip})
        assert main(["validate", "--config", path]) == 1
        assert "A3 at y=0.005" in capsys.readouterr().out
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "A3 at y=0.005" in capsys.readouterr().err

    def test_ramp_rounding_past_its_tail_names_the_node(self, tmp_path, capsys):
        # the ramp's polynomial passes 1 by ~1e-13 just left of its right tail,
        # so b + mu_minus dips below 0 there while the exact tail check holds;
        # validate checks the grid's nodes as solve does, and names the same one
        ramp = {"kind": "smooth-ramp", "left": 0.0, "right": -0.1, "tail_radius": 1.0}
        path = write_config(tmp_path, {"model.b": ramp, "grid.horizon": 0.001,
                                       "grid.n_t": 21, "grid.n_y": 8001, "grid.theta": 1.0})
        named = []
        for argv in (["validate"], ["solve", "--out", str(tmp_path / "o")]):
            assert main(argv + ["--config", path]) == 1
            m = re.search(r"b \+ mu_minus >= 0 violated at y = (\S+):",
                          capsys.readouterr().err)
            assert m is not None and 0.998 < float(m.group(1)) < 1.0
            named.append(m.group(1))
        assert named[0] == named[1]

    @pytest.mark.parametrize("key, value", [
        ("rectangle.mu_plus", float("nan")),
        ("model.b", {"kind": "smooth-ramp", "left": float("nan"), "right": 0.2,
                     "tail_radius": 1.0}),
        ("model.r", {"kind": "piecewise-linear-clamped", "left": 0.0, "right": 0.0,
                     "tail_radius": 1.0, "knots": [[0.0, float("inf")]]}),
        ("utility.q", float("-inf")),
        ("sim.x0", float("inf")),
        ("grid.y_radius", float("inf")),
    ])
    def test_non_finite_parameter_is_config_error(self, tmp_path, key, value):
        assert main(["validate", "--config", write_config(tmp_path, {key: value})]) == 2

    def test_malformed_yaml_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("model: [unclosed\n  ")
        assert main(["validate", "--config", str(p)]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        assert main(["validate", "--config", write_config(tmp_path, {"grid.bogus": 1})]) == 2

    @pytest.mark.parametrize("command", ["solve", "strategy"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_that_cannot_be_made_is_config_error(self, tmp_path, capsys,
                                                          command, below):
        # --out names a file, or a path below one
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        assert main([command, "--config", write_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}: ")
        assert "Traceback" not in err

    def test_missing_surface_is_exit_3(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["strategy", "--config", path, "--out", str(tmp_path / "o")]) == 3

    def test_negative_levels_is_config_error(self, tmp_path):
        out = tmp_path / "conv"
        assert main(["convergence", "--config", write_config(tmp_path), "--out", str(out),
                     "--levels", "-1"]) == 2
        assert not (out / "convergence.csv").exists()

    def test_small_oracle_resolution_is_config_error(self, tmp_path):
        # above 2000 is refused before brute_force_min allocates its n x n grids
        for resolution in ("3", "2001"):
            assert main(["oracle", "--config", write_config(tmp_path), "--b-val", "0",
                         "--kappa", "-3", "--resolution", resolution]) == 2

    @pytest.mark.parametrize("flag", ["--b-val", "--kappa"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_oracle_input_is_config_error(self, tmp_path, capsys, flag, bad):
        values = {"--b-val": "0", "--kappa": "-3", flag: bad}
        assert main(["oracle", "--config", write_config(tmp_path),
                     *(f"{f}={v}" for f, v in values.items())]) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_stale_surface_is_exit_3(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["solve", "--config", path, "--out", out]) == 0
        changed = write_config(tmp_path, {"utility.q": -1.0}, name="changed.yaml")
        assert main(["strategy", "--config", changed, "--out", out]) == 3

    def test_surface_without_provenance_is_exit_3(self, tmp_path, capsys):
        # an npz with no config_hash, and a text file under the cache's name
        path = write_config(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        np.savez(out / "surface.npz", u=np.zeros((201, 51)))
        assert main(["strategy", "--config", path, "--out", str(out)]) == 3
        assert "is unreadable" in capsys.readouterr().err
        (out / "surface.npz").write_text("t,y,u,u_y\n")
        assert main(["strategy", "--config", path, "--out", str(out)]) == 3
        assert "is unreadable" in capsys.readouterr().err

    def test_csv_without_cache_is_exit_3(self, tmp_path, capsys):
        # surface.csv alone, as an older version leaves it, is only an export
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        (out / "surface.npz").unlink()
        capsys.readouterr()
        assert main(["strategy", "--config", path, "--out", str(out)]) == 3
        assert "run `robustport solve` first" in capsys.readouterr().err

    def test_wrong_shape_cache_is_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        h = solve_config_hash(load_config(path))
        np.savez(out / "surface.npz", u=np.zeros((201, 50)), config_hash=np.array(h))
        capsys.readouterr()
        assert main(["strategy", "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "is unreadable" in err and "(201, 51)" in err

    @pytest.mark.parametrize("cut", ["half", "empty"])
    @pytest.mark.parametrize("command", ["strategy", "simulate", "verify"])
    def test_truncated_surface_is_exit_3(self, tmp_path, capsys, command, cut):
        # a cache cut short: half its bytes, or none
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["surface.csv", "surface.npz"]
        data = (out / "surface.npz").read_bytes()
        (out / "surface.npz").write_bytes(data[:len(data) // 2] if cut == "half" else b"")
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "is unreadable" in err and "re-run `robustport solve`" in err


class TestBranchOccupancy:
    def strategy_occupancy(self, tmp_path, capsys, overrides=None):
        path = write_config(tmp_path, overrides)
        out = str(tmp_path / "o")
        assert main(["solve", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        assert main(["strategy", "--config", path, "--out", out]) == 0
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("branch occupancy")]
        return dict(field.split("=") for field in line.split(": ")[1].split())

    def test_corner_model(self, tmp_path, capsys):
        assert self.strategy_occupancy(tmp_path, capsys) == {
            "LOW_TAIL": "0", "PLUS_CORNER": "0", "ZERO": "0", "MINUS_CORNER": "10251",
            "HIGH_TAIL": "0"}

    def test_tail_model(self, tmp_path, capsys):
        counts = self.strategy_occupancy(tmp_path, capsys, {
            "rectangle.mu_minus": 0.0, "model.rho": 0.9,
            "model.b": {"kind": "smooth-ramp", "left": 0.0, "right": 0.4,
                        "tail_radius": 1.0},
            "grid.n_y": 61})
        assert list(counts) == [r.value for r in BranchRegion]
        assert sum(int(n) for n in counts.values()) == 201 * 61
        assert int(counts["HIGH_TAIL"]) > 0

    @pytest.mark.memory
    def test_one_value_code_is_counted_unexpanded(self, capsys, smoke_model, smoke_rect,
                                                  smoke_util):
        # nu* is one corner at every node of the flat market, so the code
        # surface is one value stored once; counting it by expansion would
        # trace a byte and an intp per node (365 KB here)
        s = solve_hjbi(smoke_model, smoke_rect, smoke_util, GridSpec(1.0, 401, 101, 3.0))
        pf = build_policy(s, smoke_model, smoke_rect, smoke_util)
        assert pf.branch_code.strides == (0, 0)
        capsys.readouterr()
        tracemalloc.start()
        try:
            _print_occupancy(pf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        one = capsys.readouterr().out
        _print_occupancy(dataclasses.replace(pf, branch_code=np.array(pf.branch_code)))
        assert capsys.readouterr().out == one
        assert "MINUS_CORNER=40501 " in one


# sha256 of every CSV the pipeline test writes, pinned from the writer that
# joined each row's cells into a string of its own
PIPELINE_SHA256 = {
    "surface.csv": "470b47061332f70acb6f75381bc7032fa1d9eac553686500cb860fe252abdaee",
    "policy.csv": "0ffa242838a3f6df20379af7b9d6ea5ee604b22a69988c252cac6b72838f6480",
    "sim_report.csv": "ddfea0f58e4eddbdc652457c336e94c2ae94b62be742f3c78dd4e448ca34eeed",
    "wealth_histogram.csv": "13d7cd8e00007eb0d38aa85c851ad1f58c8ac3dce25948b10e54ea822e2b9f14",
    "verify_report.csv": "5ee7bb1399ce04136eaf6e973a1d25bd184fd9698c674a101993d7a21027ed33",
}


class TestPipeline:
    def test_solve_strategy_simulate_verify(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "arts"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        # b = 0: u is flat in y, so the edge slope is rounding only
        edge = re.search(r"diagnostics: .* edge\|u_y\|=(\S+) ", capsys.readouterr().out)
        assert float(edge.group(1)) < 1e-10
        surface = (out / "surface.csv").read_text().splitlines()
        assert surface[0].startswith("# config_hash=")
        assert surface[1] == "t,y,u,u_y"
        row0 = surface[2].split(",")
        assert float(row0[2]) == pytest.approx(0.03125, abs=1e-9)  # u(0, y) at b=0

        assert main(["strategy", "--config", path, "--out", str(out)]) == 0
        policy = (out / "policy.csv").read_text().splitlines()
        assert policy[1] == "t,y,mu_star_mean,sigma_star_mean,alpha,branch,pi_frac"
        parts = policy[2].split(",")
        assert parts[5] == "MINUS_CORNER"
        assert float(parts[6]) == pytest.approx(1.25, abs=1e-9)

        assert main(["simulate", "--config", path, "--out", str(out),
                     "--paths", "5000", "--histogram"]) == 0
        assert (out / "sim_report.csv").exists()
        assert (out / "wealth_histogram.csv").exists()

        capsys.readouterr()
        assert main(["verify", "--config", path, "--out", str(out),
                     "--paths", "20000"]) == 0
        assert ("branch occupancy (nodes): LOW_TAIL=0 PLUS_CORNER=0 ZERO=0 "
                "MINUS_CORNER=10251 HIGH_TAIL=0") in capsys.readouterr().out
        report = (out / "verify_report.csv").read_text()
        assert "FAIL" not in report
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in PIPELINE_SHA256}
        assert got == PIPELINE_SHA256

    def test_oracle_output(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["oracle", "--config", path, "--b-val", "0", "--kappa", "-3"]) == 0
        outp = capsys.readouterr().out
        assert "PLUS_CORNER" in outp
        assert "2.25" in outp
        disc = float(outp.strip().splitlines()[-1].split(":")[1])
        assert disc < 1e-2

    def test_convergence_ratios(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model.b": {"kind": "smooth-ramp", "left": 0.0, "right": 0.2,
                        "tail_radius": 2.0},
            "grid.y_radius": 4.0, "grid.n_t": 501, "grid.n_y": 81})
        out = tmp_path / "conv"
        assert main(["convergence", "--config", path, "--out", str(out),
                     "--levels", "1"]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[1] == "level,n_t,n_y,residual,ratio_to_previous"
        ratio = float(rows[3].split(",")[4])
        assert ratio >= 2.0

    def test_convergence_zero_residual(self, tmp_path, capsys):
        # mu- = 0 with b = 0 gives H = 0, so u = 0 exactly at every level:
        # there is no improvement ratio to report, and no division by 0
        path = write_config(tmp_path, {"rectangle.mu_minus": 0.0,
                                       "grid.n_t": 3, "grid.n_y": 5})
        out = tmp_path / "conv"
        assert main(["convergence", "--config", path, "--out", str(out),
                     "--levels", "1"]) == 0
        assert "improvement" not in capsys.readouterr().out
        rows = (out / "convergence.csv").read_text().splitlines()[2:]
        assert [row.split(",")[3:] for row in rows] == [["0", ""], ["0", ""]]

    def test_convergence_checks_every_level_before_solving(self, tmp_path, capsys,
                                                           monkeypatch):
        # dt = 0.01 passes level 0's explicit-diffusion guard; level 1 halves
        # dt and dy, and fails it
        from robustport import cli
        solves = []
        monkeypatch.setattr(cli, "solve_hjbi", lambda *args: solves.append(args))
        path = write_config(tmp_path, {"grid.n_t": 101})
        out = tmp_path / "conv"
        assert main(["convergence", "--config", path, "--out", str(out),
                     "--levels", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "solver error at level 1: dt = 0.005 violates the explicit-diffusion guard")
        assert captured.out == "" and solves == []
        assert not (out / "convergence.csv").exists()

    def test_dump_config_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", path, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        cfg1 = load_config(path)
        cfg2 = parse_config(yaml.safe_load(dumped))
        assert canonical_dict(cfg1) == canonical_dict(cfg2)

    def test_grid_override_flag(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "g"
        assert main(["solve", "--config", path, "--out", str(out),
                     "--grid", "401,101"]) == 0
        assert "401x101" in capsys.readouterr().out
        # the cache holds the overridden grid, so the configured grid finds it stale
        assert main(["strategy", "--config", path, "--out", str(out)]) == 3
        assert main(["solve", "--config", path, "--out", str(out),
                     "--grid", "nope"]) == 2

    def test_output_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ROBUSTPORT_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path)
        assert main(["solve", "--config", path]) == 0
        assert (tmp_path / "envout" / "surface.csv").exists()
        capsys.readouterr()


class TestDeterminism:
    def test_simulate_histogram_keeps_the_estimate(self, tmp_path, capsys):
        # --histogram estimates from the wealths it bins, the plain run from
        # simulate_eu: the same paths give the same report and EU line, here
        # over three batches, on a policy that varies in y
        path = write_config(tmp_path, {
            "model.b": {"kind": "smooth-ramp", "left": 0.0, "right": 0.2,
                        "tail_radius": 2.0},
            "grid.y_radius": 4.0, "sim.n_steps": 5})
        out = tmp_path / "sim"
        n_paths = 2 * BATCH_SIZE + 1000
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        runs = []
        for extra in ([], ["--histogram"]):
            capsys.readouterr()
            assert main(["simulate", "--config", path, "--out", str(out),
                         "--paths", str(n_paths), *extra]) == 0
            eu = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("EU(pi*, nu*) = ")]
            runs.append((eu, (out / "sim_report.csv").read_bytes()))
        assert len(runs[0][0]) == 1 and f"({n_paths} paths" in runs[0][0][0]
        assert runs[0] == runs[1]

    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--config", path, "--out", str(out)]) == 0
            assert main(["strategy", "--config", path, "--out", str(out)]) == 0
            assert main(["simulate", "--config", path, "--out", str(out),
                         "--paths", "4000"]) == 0
            outs.append(out)
        capsys.readouterr()
        for fname in ("surface.csv", "surface.npz", "policy.csv", "sim_report.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
