"""Deterministic artifacts: CSV exports of value surfaces, policy fields and
simulation reports, and the binary surface cache.

Every CSV starts with a provenance comment line (config hash, seed, package
version; no timestamps) followed by a header row.  Each cell is the
`%`-format text of its value, as `fmt % row` would give it; floats carry 17
significant digits so a reload is bit-exact and repeated runs produce
identical bytes.  Rows go out in chunks, and each chunk formats every
distinct value of a numeric column once (told apart by bit pattern, so -0.0
and 0.0 keep their own texts) and gathers the texts back; a column that is
one value stored once (zero strides, as PolicyField keeps a measure that is
one node everywhere) is formatted once per chunk.  The surface
cache (`write_surface_npz`) is an uncompressed `.npz` of `u` and the config
hash of its solve; the CLI reads it back with `read_surface_npz`, and
`surface.csv` is an export only.  Every file is written through `_atomic` to
a `.tmp` sibling and then renamed over the target, so an interrupted write
never leaves a partial file under the real name.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from importlib.metadata import PackageNotFoundError, version as _pkg_version
from pathlib import Path

import numpy as np

from .model import GridSpec
from .pde import ValueSurface
from .simulate import SaddleReport, UtilityEstimate
from .strategy import PolicyField
from .worst_case import _CODE_REGION

__all__ = [
    "package_version",
    "provenance_line",
    "write_surface",
    "read_surface",
    "write_surface_npz",
    "read_surface_npz",
    "write_policy_csv",
    "write_sim_report_csv",
    "write_verify_report_csv",
    "write_convergence_csv",
    "write_histogram_csv",
]

_CHUNK_ROWS = 65536
# branch name per BranchRegion integer code
_BRANCH_NAMES = np.array([_CODE_REGION[c].value for c in range(len(_CODE_REGION))],
                         dtype=object)


def package_version() -> str:
    try:
        return _pkg_version("robustport")
    except PackageNotFoundError:
        return "0.1.0"


def provenance_line(config_hash: str, seed: int) -> str:
    return f"# config_hash={config_hash} seed={seed} version={package_version()}"


@contextmanager
def _atomic(path: str | Path):
    """A binary file handle on `<path>.tmp`, which replaces `path` once the
    block completes.  If the block (or the open) fails, the `.tmp` is
    removed when there is one and the original error propagates."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _cells(spec: str, col: np.ndarray) -> list[str]:
    """`spec % value` for every value of `col`.  A column of one value
    stored once (zero strides) formats it once; a numeric column formats
    each distinct bit pattern once (so -0.0 and 0.0 stay apart) and gathers
    the texts back by index; any other column formats element by element."""
    if len(col) and not any(col.strides):
        return [spec % (col[:1].tolist()[0],)] * len(col)
    if col.dtype.kind in "iuf":
        bits, inverse = np.unique(col.view(f"u{col.dtype.itemsize}"), return_inverse=True)
        texts = np.array([spec % v for v in bits.view(col.dtype).tolist()], dtype=object)
        return texts[inverse].tolist()
    return [spec % (v,) for v in col.tolist()]


def _write_csv(path: str | Path, config_hash: str, seed: int, header: str, fmt: str,
               columns):
    """Provenance line, header, then one row per index of the equal-length
    `columns` (arrays or sequences): each cell is `spec % value` for its
    column's spec in the comma-separated `fmt`, so a row's text is
    `fmt % row`.  Rows go out _CHUNK_ROWS at a time, so no more than one
    chunk of text is held at once, and each chunk formats every distinct
    value of a numeric column once.

    Raises ValueError when the columns differ in length or their number is
    not the number of specs; no file is touched then."""
    specs = fmt.split(",")
    cols = [np.asarray(c) for c in columns]
    if cols and len(cols) != len(specs):
        raise ValueError(f"{len(cols)} columns for {len(specs)} formats")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with _atomic(path) as fh:
        fh.write(f"{provenance_line(config_hash, seed)}\n{header}\n".encode())
        for lo in range(0, n_rows, _CHUNK_ROWS):
            cells = [_cells(spec, c[lo:lo + _CHUNK_ROWS]) for spec, c in zip(specs, cols)]
            fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())


def _node_columns(t: np.ndarray, y: np.ndarray):
    """(t, y) of every node of a t-major grid."""
    return np.repeat(t, len(y)), np.tile(y, len(t))


def write_surface(path: str | Path, s: ValueSurface, config_hash: str, seed: int):
    _write_csv(path, config_hash, seed, "t,y,u,u_y", "%.17g,%.17g,%.17g,%.17g",
               [*_node_columns(s.t, s.y), s.u.ravel(), s.u_y.ravel()])


def write_surface_npz(path: str | Path, s: ValueSurface, config_hash: str):
    """The surface cache: `u` and the 0-d string `config_hash`, stored
    uncompressed; numpy's fixed zip timestamps keep the bytes deterministic."""
    with _atomic(path) as fh:
        np.savez(fh, u=s.u, config_hash=np.array(config_hash))


def read_surface_npz(path: str | Path) -> tuple[str, np.ndarray]:
    """(config hash, u) of a surface cache.  A damaged file raises
    zipfile.BadZipFile, EOFError, ValueError, KeyError or OSError."""
    with np.load(path, allow_pickle=False) as z:
        return str(z["config_hash"]), z["u"]


def read_surface(path: str | Path, grid: GridSpec) -> ValueSurface:
    """The surface of a `surface.csv` export."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    if data.shape != (grid.n_t * grid.n_y, 4):
        raise ValueError(f"surface file {path} does not match the configured "
                         f"{grid.n_t}x{grid.n_y} grid")
    # the u_y column is an export; the reload of u is exact, so is its u_y
    return ValueSurface.from_u(grid, data[:, 2].reshape(grid.n_t, grid.n_y))


def _branch_names(codes: np.ndarray) -> np.ndarray:
    """The branch name of every code; a broadcast where the codes are one
    value stored once."""
    if any(codes.strides):
        return _BRANCH_NAMES[codes]
    return np.broadcast_to(_BRANCH_NAMES[codes[:1]], codes.shape)


def write_policy_csv(path: str | Path, pf: PolicyField, config_hash: str, seed: int):
    # reshape(-1), not ravel(): a surface stored as one value stays a view
    _write_csv(path, config_hash, seed,
               "t,y,mu_star_mean,sigma_star_mean,alpha,branch,pi_frac",
               "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%.17g",
               [*_node_columns(pf.t, pf.y), pf.mu_mean.reshape(-1),
                pf.sigma_mean.reshape(-1), pf.weight_a.reshape(-1),
                _branch_names(pf.branch_code.reshape(-1)), pf.pi_frac.reshape(-1)])


def write_sim_report_csv(path: str | Path, rows: list[tuple[str, str, UtilityEstimate, str]],
                         config_hash: str, seed: int):
    """rows: (policy label, adversary label, estimate, verdict)."""
    _write_csv(path, config_hash, seed,
               "policy,adversary,eu,se,n_paths,min_wealth,max_wealth,verdict",
               "%s,%s,%.17g,%.17g,%d,%.17g,%.17g,%s",
               zip(*[(pol, adv, e.mean, e.std_error, e.n_paths, e.min_terminal_wealth,
                      e.max_terminal_wealth, verdict) for pol, adv, e, verdict in rows]))


def write_verify_report_csv(path: str | Path, report: SaddleReport,
                            config_hash: str, seed: int):
    rows = [("value", "pde_value", report.pde_value, 0.0, 0.0, "n/a"),
            ("value", "EU(pi*;nu*)", report.base.mean, report.base.std_error, 0.0, "n/a")]
    rows += [(f.kind, f.label, f.eu, f.std_error, f.bound, "pass" if f.passed else "FAIL")
             for f in report.findings]
    _write_csv(path, config_hash, seed, "kind,label,eu,se,bound,verdict",
               "%s,%s,%.17g,%.17g,%.17g,%s", zip(*rows))


def write_convergence_csv(path: str | Path, rows: list[dict], config_hash: str, seed: int):
    _write_csv(path, config_hash, seed, "level,n_t,n_y,residual,ratio_to_previous",
               "%d,%d,%d,%.17g,%s",
               zip(*[(r["level"], r["n_t"], r["n_y"], r["residual"],
                      "" if r["ratio"] is None else "%.17g" % r["ratio"]) for r in rows]))


def write_histogram_csv(path: str | Path, edges: np.ndarray, counts: np.ndarray,
                        config_hash: str, seed: int):
    _write_csv(path, config_hash, seed, "bin_left,bin_right,count", "%.17g,%.17g,%d",
               [edges[:-1], edges[1:], counts])
