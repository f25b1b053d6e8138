"""Deterministic CSV artifacts: value surfaces, policy fields, simulation
reports.

Every file starts with a provenance comment line (config hash, seed, package
version; no timestamps) followed by a header row.  Floats are written with 17
significant digits so a reload is bit-exact and repeated runs produce
identical bytes.
"""

from __future__ import annotations

import json
from importlib.metadata import PackageNotFoundError, version as _pkg_version
from pathlib import Path

import numpy as np

from .model import GridSpec
from .pde import ValueSurface
from .simulate import SaddleReport, UtilityEstimate
from .strategy import PolicyField

__all__ = [
    "package_version",
    "provenance_line",
    "write_surface",
    "read_surface",
    "write_surface_meta",
    "read_surface_meta",
    "write_policy_csv",
    "write_sim_report_csv",
    "write_verify_report_csv",
    "write_convergence_csv",
    "write_histogram_csv",
]


def package_version() -> str:
    try:
        return _pkg_version("robustport")
    except PackageNotFoundError:
        return "0.1.0"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def provenance_line(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed} version={package_version()}"


def write_surface(path: str | Path, s: ValueSurface, config_hash: str, seed: int):
    tt, yy = np.meshgrid(s.t, s.y, indexing="ij")
    cols = np.column_stack([tt.ravel(), yy.ravel(), s.u.ravel(), s.u_y.ravel()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(provenance_line(config_hash, seed) + "\n")
        fh.write("t,y,u,u_y\n")
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",")


def write_surface_meta(path: str | Path, s: ValueSurface, config_hash: str):
    g = s.grid
    meta = {
        "config_hash": config_hash,
        "grid": {"horizon": g.horizon, "n_t": g.n_t, "n_y": g.n_y,
                 "y_radius": g.y_radius, "theta": g.theta},
        "q": s.q,
        "version": package_version(),
    }
    Path(path).write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")


def read_surface_meta(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_surface(path: str | Path, meta: dict) -> ValueSurface:
    g = meta["grid"]
    grid = GridSpec(horizon=g["horizon"], n_t=g["n_t"], n_y=g["n_y"],
                    y_radius=g["y_radius"], theta=g["theta"])
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    if data.shape != (grid.n_t * grid.n_y, 4):
        raise ValueError(f"surface file {path} does not match its metadata grid")
    # the u_y column is an export; the reload of u is exact, so is its u_y
    return ValueSurface.from_u(grid, data[:, 2].reshape(grid.n_t, grid.n_y),
                               q=float(meta["q"]))


def write_policy_csv(path: str | Path, pf: PolicyField, config_hash: str, seed: int):
    lines = [provenance_line(config_hash, seed),
             "t,y,mu_star_mean,sigma_star_mean,alpha,branch,pi_frac"]
    for i, t in enumerate(pf.t):
        for j, y in enumerate(pf.y):
            lines.append(
                f"{_fmt(t)},{_fmt(y)},{_fmt(pf.mu_mean[i, j])},"
                f"{_fmt(pf.sigma_mean[i, j])},{_fmt(pf.weight_a[i, j])},"
                f"{pf.branch_at(i, j).value},{_fmt(pf.pi_frac[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sim_report_csv(path: str | Path, rows: list[tuple[str, str, UtilityEstimate, str]],
                         config_hash: str, seed: int):
    """rows: (policy label, adversary label, estimate, verdict)."""
    lines = [provenance_line(config_hash, seed),
             "policy,adversary,eu,se,n_paths,min_wealth,max_wealth,verdict"]
    for pol, adv, est, verdict in rows:
        lines.append(f"{pol},{adv},{_fmt(est.mean)},{_fmt(est.std_error)},"
                     f"{est.n_paths},{_fmt(est.min_terminal_wealth)},"
                     f"{_fmt(est.max_terminal_wealth)},{verdict}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_verify_report_csv(path: str | Path, report: SaddleReport,
                            config_hash: str, seed: int):
    lines = [provenance_line(config_hash, seed),
             "kind,label,eu,se,bound,verdict"]
    lines.append(f"value,pde_value,{_fmt(report.pde_value)},0,0,n/a")
    lines.append(f"value,EU(pi*;nu*),{_fmt(report.base.mean)},"
                 f"{_fmt(report.base.std_error)},0,n/a")
    for f in report.findings:
        lines.append(f"{f.kind},{f.label},{_fmt(f.eu)},{_fmt(f.std_error)},"
                     f"{_fmt(f.bound)},{'pass' if f.passed else 'FAIL'}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_convergence_csv(path: str | Path, rows: list[dict], config_hash: str, seed: int):
    lines = [provenance_line(config_hash, seed),
             "level,n_t,n_y,residual,ratio_to_previous"]
    for r in rows:
        ratio = "" if r["ratio"] is None else _fmt(r["ratio"])
        lines.append(f"{r['level']},{r['n_t']},{r['n_y']},{_fmt(r['residual'])},{ratio}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_histogram_csv(path: str | Path, edges: np.ndarray, counts: np.ndarray,
                        config_hash: str, seed: int):
    lines = [provenance_line(config_hash, seed), "bin_left,bin_right,count"]
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(c)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
