"""Every CSV writer's bytes against a formatter written out row by row, and
the surface cache against the surface.csv export."""

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
