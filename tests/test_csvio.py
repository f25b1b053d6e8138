"""Every CSV writer's bytes against a formatter written out row by row, the
CLI's full-size exports against pinned hashes, and the surface cache against
the surface.csv export."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from robustport import (CoefficientFn, GridSpec, MarketModel, UncertaintyRectangle,
                        ValueSurface, build_policy, csvio, solve_hjbi)
from robustport.simulate import SaddleFinding, SaddleReport, UtilityEstimate
from robustport.worst_case import BranchRegion

from oracles import read_config_hash, reference_csv

# a tail model: its policy field holds the HIGH_TAIL, ZERO and MINUS_CORNER branches
K = UncertaintyRectangle(0.0, 0.3, 0.2, 0.4)
MODEL = MarketModel(b=CoefficientFn.ramp(0.0, 0.4, 1.0), beta=CoefficientFn.constant(0.0),
                    r=CoefficientFn.constant(0.0), rho=0.9)
HASH, SEED = "0123456789abcdef", 7


def assert_written(path, header, rows):
    """The file's bytes equal the reference; a failure names the first
    differing line rather than diffing whole files."""
    got = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    want = reference_csv(HASH, SEED, csvio.package_version(), header, rows)
    want = want.splitlines(keepends=True)
    first = next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None
    assert len(got) == len(want)


GRID = GridSpec(1.0, 201, 51, 3.0, 0.5)


@pytest.fixture(scope="module")
def surface(smoke_util):
    return solve_hjbi(MODEL, K, smoke_util, GRID)


def test_surface_bytes(tmp_path, surface):
    s = surface
    csvio.write_surface(tmp_path / "s.csv", s, HASH, SEED)
    rows = [(t, y, s.u[i, j], s.u_y[i, j])
            for i, t in enumerate(s.t) for j, y in enumerate(s.y)]
    assert_written(tmp_path / "s.csv", "t,y,u,u_y", rows)
    assert read_config_hash(tmp_path / "s.csv") == HASH


def test_cache_matches_the_export_bit_for_bit(tmp_path, surface):
    csvio.write_surface(tmp_path / "s.csv", surface, HASH, SEED)
    csvio.write_surface_npz(tmp_path / "s.npz", surface, HASH)
    cached, u = csvio.read_surface_npz(tmp_path / "s.npz")
    assert cached == HASH
    from_cache = ValueSurface.from_u(GRID, u)
    from_csv = csvio.read_surface(tmp_path / "s.csv", GRID)
    for a, b in ((from_cache.u, from_csv.u), (from_cache.u_y, from_csv.u_y),
                 (from_cache.u, surface.u), (from_cache.u_y, surface.u_y)):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_policy_bytes(tmp_path, surface, smoke_util):
    pf = build_policy(surface, MODEL, K, smoke_util)
    assert len(np.unique(pf.branch_code)) == 3
    names = [r.value for r in BranchRegion]
    csvio.write_policy_csv(tmp_path / "p.csv", pf, HASH, SEED)
    rows = [(t, y, pf.mu_mean[i, j], pf.sigma_mean[i, j], pf.weight_a[i, j],
             names[pf.branch_code[i, j]], pf.pi_frac[i, j])
            for i, t in enumerate(pf.t) for j, y in enumerate(pf.y)]
    assert_written(tmp_path / "p.csv",
                   "t,y,mu_star_mean,sigma_star_mean,alpha,branch,pi_frac", rows)


def test_report_bytes(tmp_path):
    base = UtilityEstimate(2.0634871, 3.7e-3, 20000, 0.1038, 8.262)
    findings = (SaddleFinding("value-match", "EU(pi*, nu*) vs PDE", 2.06, 3.7e-3, 2.07, True),
                SaddleFinding("adversary", "random(0.154,0.204)", 2.1, 0.0, -0.25, False))
    report = SaddleReport(base, 1.0 / 3.0, findings)
    csvio.write_verify_report_csv(tmp_path / "v.csv", report, HASH, SEED)
    assert_written(tmp_path / "v.csv", "kind,label,eu,se,bound,verdict", [
        ("value", "pde_value", 1.0 / 3.0, 0, 0, "n/a"),
        ("value", "EU(pi*;nu*)", 2.0634871, 3.7e-3, 0, "n/a"),
        ("value-match", "EU(pi*, nu*) vs PDE", 2.06, 3.7e-3, 2.07, "pass"),
        ("adversary", "random(0.154,0.204)", 2.1, 0.0, -0.25, "FAIL")])

    csvio.write_sim_report_csv(tmp_path / "r.csv", [("pi*", "nu*-field", base, "n/a")],
                               HASH, SEED)
    assert_written(tmp_path / "r.csv",
                   "policy,adversary,eu,se,n_paths,min_wealth,max_wealth,verdict",
                   [("pi*", "nu*-field", 2.0634871, 3.7e-3, 20000, 0.1038, 8.262, "n/a")])


def test_convergence_bytes(tmp_path):
    rows = [{"level": 0, "n_t": 501, "n_y": 81, "residual": 2.6908e-07, "ratio": None},
            {"level": 1, "n_t": 1001, "n_y": 161, "residual": 0.1 / 3.0, "ratio": 1e-300}]
    csvio.write_convergence_csv(tmp_path / "c.csv", rows, HASH, SEED)
    assert_written(tmp_path / "c.csv", "level,n_t,n_y,residual,ratio_to_previous",
                   [(r["level"], r["n_t"], r["n_y"], r["residual"], r["ratio"]) for r in rows])


def test_histogram_bytes(tmp_path):
    w = np.random.default_rng(3).lognormal(size=1000)
    counts, edges = np.histogram(w, bins=60)
    csvio.write_histogram_csv(tmp_path / "h.csv", edges, counts, HASH, SEED)
    assert_written(tmp_path / "h.csv", "bin_left,bin_right,count",
                   list(zip(edges[:-1], edges[1:], counts)))


def test_dedupe_across_chunk_boundaries(tmp_path, monkeypatch):
    # runs of 3 and 5 equal values against 7-row chunks: every run of repeats
    # straddles some chunk boundary, and the last chunk is short
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 7)
    nan = float("nan")
    specials = np.array([-0.0, 0.0, nan, -nan, np.inf, -np.inf, 5e-324,
                         1.7976931348623157e308, 0.1 / 3.0])
    assert np.unique(specials.view("u8")).size == specials.size
    n = 61
    floats = specials[np.arange(n) // 3 % specials.size]
    shifted = specials[(np.arange(n) // 5 + 4) % specials.size]
    ints = np.array([-2**63, -1, 0, 2**63 - 1])[np.arange(n) // 3 % 4]
    labels = np.array(["MINUS_CORNER", "ZERO", 7, "x y"], dtype=object)[np.arange(n) // 5 % 4]
    csvio._write_csv(tmp_path / "e.csv", HASH, SEED, "a,b,i,s", "%.17g,%.17g,%d,%s",
                     [floats, shifted, ints, labels])
    assert_written(tmp_path / "e.csv", "a,b,i,s",
                   list(zip(floats, shifted, ints.tolist(), labels)))
    # -0.0 and 0.0 are distinct values with distinct texts
    lines = (tmp_path / "e.csv").read_text().splitlines()[2:]
    assert [line.split(",")[0] for line in lines[:6]] == ["-0"] * 3 + ["0"] * 3


def test_one_value_columns_format_once(tmp_path, monkeypatch, smoke_model, smoke_rect,
                                      smoke_util):
    # a column stored as one value (zero strides) formats it once per chunk,
    # with the texts and bytes of the full column
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 7)
    n = 19
    cols = [np.broadcast_to(v, (n,)) for v in (-0.0, float("nan"), 2**63 - 1)]
    cols.append(np.broadcast_to(np.array(["MINUS_CORNER"], dtype=object), (n,)))
    cells = csvio._cells("%.17g", cols[0])
    assert cells == ["-0"] * n and cells[0] is cells[-1]
    header, fmt = "a,b,i,s", "%.17g,%.17g,%d,%s"
    csvio._write_csv(tmp_path / "one.csv", HASH, SEED, header, fmt, cols)
    csvio._write_csv(tmp_path / "full.csv", HASH, SEED, header, fmt, [np.array(c) for c in cols])
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    # nu* is one corner of K at every node of the flat market: four of the
    # policy's seven columns are one value, and the file is the full field's
    s = solve_hjbi(smoke_model, smoke_rect, smoke_util, GridSpec(1.0, 11, 9, 3.0))
    pf = build_policy(s, smoke_model, smoke_rect, smoke_util)
    surfaces = ("atom_mu", "sigma_a", "sigma_b", "weight_a", "branch_code")
    assert all(getattr(pf, name).strides == (0, 0) for name in surfaces)
    full = dataclasses.replace(pf, **{name: np.array(getattr(pf, name)) for name in surfaces})
    csvio.write_policy_csv(tmp_path / "one.csv", pf, HASH, SEED)
    csvio.write_policy_csv(tmp_path / "full.csv", full, HASH, SEED)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


class Counted:
    """A `%s` cell that counts how often it is formatted."""

    def __init__(self):
        self.calls = 0

    def __str__(self):
        self.calls += 1
        return "counted"


# (fmt, which columns after t and y, as "one" (one value) or "number"), and
# how often the counted one-value column is formatted in 3 chunks of 7 rows:
# once per file folded into the y axis, else once per chunk
FOLDS = {"after-y": ("%.17g,%.17g,%s,%.17g", ["one", "number"], 1),
         "after-number": ("%.17g,%.17g,%.17g,%s,%.17g", ["number", "one", "number"], 3),
         "last": ("%.17g,%.17g,%s", ["one"], 1),
         "run": ("%.17g,%.17g,%s,%.17g,%d,%.17g,%.17g",
                 ["one", -0.0, 2**63 - 1, float("nan"), "number"], 1)}


@pytest.mark.parametrize("layout", sorted(FOLDS))
def test_one_value_columns_fold_into_the_axis(tmp_path, monkeypatch, layout):
    # every layout writes the bytes of fmt % row; a one-value column right
    # after the y axis, alone or in a run, is folded into y's texts
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 7)
    fmt, kinds, formats = FOLDS[layout]
    t, y = np.array([0.0, 0.5, 1.0]), np.array([-1.0, -0.0, 0.0, 2.5, 1 / 3, 7.0])
    axes = csvio._node_columns(t, y)
    n = len(t) * len(y)
    counted = Counted()
    cols = [np.arange(n) * 0.25 - 1.0 if kind == "number" else
            np.broadcast_to(np.array(counted if kind == "one" else kind,
                                     dtype=object if kind == "one" else None), (n,))
            for kind in kinds]
    header = ",".join(f"c{i}" for i in range(2 + len(cols)))
    csvio._write_csv(tmp_path / "f.csv", HASH, SEED, header, fmt, [*axes, *cols])
    assert counted.calls == formats
    rows = [(t[i // len(y)], y[i % len(y)], *(c[i] for c in cols)) for i in range(n)]
    want = f"{csvio.provenance_line(HASH, SEED)}\n{header}\n" + "".join(
        fmt % row + "\n" for row in rows)
    assert (tmp_path / "f.csv").read_bytes() == want.encode()


@pytest.fixture(scope="module")
def grid_fields(smoke_model, smoke_rect, smoke_util):
    """(surface, policy field) of a tail field, whose every policy column is
    a full surface; of a field stored as one value; and of the smallest grid."""
    fields = {}
    for name, model, rect, grid in (("tail", MODEL, K, GridSpec(1.0, 41, 13, 3.0)),
                                    ("one-value", smoke_model, smoke_rect,
                                     GridSpec(1.0, 11, 9, 3.0)),
                                    ("smallest", MODEL, K, GridSpec(1.0, 2, 3, 3.0))):
        s = solve_hjbi(model, rect, smoke_util, grid)
        fields[name] = s, build_policy(s, model, rect, smoke_util)
    tail = fields["tail"][1]
    assert all(any(a.strides) for a in (tail.atom_mu, tail.sigma_a, tail.sigma_b,
                                        tail.weight_a, tail.branch_code))
    assert fields["one-value"][1].branch_code.strides == (0, 0)
    return fields


# chunk sizes by (n_y, rows): each row, a chunk that ends one short of a
# t-level, on it or one past it, a short last chunk, and one chunk for all
CHUNKS = {"1": lambda n_y, n: 1, "7": lambda n_y, n: 7, "n_y-1": lambda n_y, n: n_y - 1,
          "n_y": lambda n_y, n: n_y, "n_y+1": lambda n_y, n: n_y + 1,
          "short-last": lambda n_y, n: n // 2 + 1, "all": lambda n_y, n: n + 5}


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("field", ["tail", "one-value", "smallest"])
def test_grid_writers_across_chunk_boundaries(tmp_path, monkeypatch, grid_fields, field,
                                              chunk):
    s, pf = grid_fields[field]
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", CHUNKS[chunk](len(s.y), s.u.size))
    csvio.write_surface(tmp_path / "s.csv", s, HASH, SEED)
    assert_written(tmp_path / "s.csv", "t,y,u,u_y",
                   [(t, y, s.u[i, j], s.u_y[i, j])
                    for i, t in enumerate(s.t) for j, y in enumerate(s.y)])
    names = [r.value for r in BranchRegion]
    csvio.write_policy_csv(tmp_path / "p.csv", pf, HASH, SEED)
    assert_written(tmp_path / "p.csv",
                   "t,y,mu_star_mean,sigma_star_mean,alpha,branch,pi_frac",
                   [(t, y, pf.mu_mean[i, j], pf.sigma_mean[i, j], pf.weight_a[i, j],
                     names[pf.branch_code[i, j]], pf.pi_frac[i, j])
                    for i, t in enumerate(pf.t) for j, y in enumerate(pf.y)])


@pytest.mark.memory
def test_grid_writers_hold_one_chunk_of_text(tmp_path, smoke_model, smoke_rect,
                                            smoke_util, smoke_grid):
    # the flat smoke field: 402,201 rows in 50 chunks of 8192.  Assembled as
    # one list of cells per chunk, the traced peaks are 1.7 and 2.2 MB; the
    # policy's four one-value columns are folded into y's texts (3 cells a
    # row, not 7).  Chunks of 65536 rows (11.8 and 16.2 MB), a string per
    # row, or t and y expanded to full columns (+6.4 MB) fail.
    s = solve_hjbi(smoke_model, smoke_rect, smoke_util, smoke_grid)
    pf = build_policy(s, smoke_model, smoke_rect, smoke_util)
    for write, data, bound in ((csvio.write_surface, s, 3e6),
                               (csvio.write_policy_csv, pf, 3.5e6)):
        tracemalloc.start()
        try:
            write(tmp_path / "x.csv", data, HASH, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (write.__name__, peak)


def test_columns_of_unequal_length_raise(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("previous\n")
    with pytest.raises(ValueError, match="unequal"):
        csvio.write_histogram_csv(path, np.arange(6.0), np.arange(3), HASH, SEED)
    with pytest.raises(ValueError, match="columns"):
        csvio._write_csv(path, HASH, SEED, "a,b", "%d,%d", [np.arange(2)])
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]


def test_zero_rows_write_the_header(tmp_path):
    csvio.write_convergence_csv(tmp_path / "c.csv", [], HASH, SEED)
    assert_written(tmp_path / "c.csv", "level,n_t,n_y,residual,ratio_to_previous", [])
    csvio.write_histogram_csv(tmp_path / "h.csv", np.array([0.0]), np.array([], dtype=int),
                              HASH, SEED)
    assert_written(tmp_path / "h.csv", "bin_left,bin_right,count", [])


REPO = Path(__file__).resolve().parents[1]
# sha256 of the CLI's exports, pinned from the row-by-row writer that
# preceded the deduplicating one; smoke's 402,201 rows span 7 chunks
GOLDEN = {
    "smoke": {"surface.csv": "52181180f0f9b7436470e0aacad6ae6a763b9fd7d1a7f63a0c06bf6c22ff13d1",
              "policy.csv": "bce541f815273912bfa9c8971c30056874e0ddd77f5b86309240d138b9e1b63e"},
    "ramp": {"surface.csv": "85e56219f58f372267b98cac4dc4bfbb3c6466b8d368c6d1dd75ab4c558d627d",
             "policy.csv": "16a4e6e560dfd2cd8f6fb745c92acfc312a1a991e04484b1013e1e6cd0b26d81"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_exports_keep_their_bytes(tmp_path, name):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for command in ("solve", "strategy"):
        subprocess.run([sys.executable, "-m", "robustport.cli", command, "--config",
                        str(REPO / "configs" / f"{name}.yaml"), "--out", str(tmp_path)],
                       env=env, check=True, capture_output=True)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]


def test_config_hash_needs_a_provenance_line(tmp_path):
    for text in ("", "t,y,u,u_y\n", "# config_hash= seed=1 version=0\n"):
        (tmp_path / "x.csv").write_text(text)
        assert read_config_hash(tmp_path / "x.csv") is None


def test_interrupted_write_keeps_the_previous_file(tmp_path):
    # a row that fails to format stops the writer after its header
    path = tmp_path / "s.csv"
    path.write_text("previous\n")
    with pytest.raises(TypeError):
        csvio._write_csv(path, HASH, SEED, "a", "%d", [np.array(["x"], dtype=object)])
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_failed_open_raises_its_own_error(tmp_path):
    # no directory, so no .tmp: the open's error propagates, not one raised
    # while removing a .tmp that was never made
    path = tmp_path / "missing" / "c.csv"
    with pytest.raises(FileNotFoundError) as info:
        csvio.write_convergence_csv(path, [], HASH, SEED)
    assert info.value.filename == f"{path}.tmp"
    assert info.value.__context__ is None
