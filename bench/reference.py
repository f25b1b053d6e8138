"""A fixed reference computation that gauges the host's speed during a run.

The host that runs the benchmark moves the speed of the same work by up to
+-30% over tens of seconds to minutes, and at times by 1.8x between runs
(other tenants share its cores), so the wall time of a 30-s run moves with
the host as much as with the program.  The worker interleaves calls of the
kernel parts below with its operations, for about SHARE of their time, and
the set-up processes call them after set-up.  A part's mean time over a
run, divided by NOMINAL_S, is the host factor of that kind of work, and the
benchmark reports times divided by the factor of the work they time:
seconds at the host speed at which each part takes NOMINAL_S.  The kernel
never calls robustport, so no change to the program moves a factor.

The parts do the three kinds of work of the pipeline: small-vector numpy
and a banded solve as in one solver time step, draws, interpolation and
vector arithmetic on a 65536-path batch as in one Monte-Carlo path step, and
numbers written and parsed as CSV text.  The drift moves the first and last
more than the batch work.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
# bound at import, before a traced run wraps np.random.default_rng, so the
# gauge's draws are never traced
from numpy.random import default_rng
from scipy.linalg import solve_banded

# mean time of each part on a 2-vCPU Xeon VM at 2.0 GHz (numpy 2.4, scipy
# 1.17) in the runs of bench/README.md; a host factor is relative to it
NOMINAL_S = 0.015
# the gauge runs for about this share of the time of the operations
SHARE = 0.15

_AB = np.vstack([np.full(161, -1.0), np.full(161, 4.0), np.full(161, -1.0)])
_RHS = np.linspace(-1.0, 1.0, 161)
_GRID = np.linspace(-3.0, 3.0, 121)
_VALS = np.cos(_GRID)
_N = 65536
_ROW = np.linspace(0.0, 1.0, 9000)


def small_arrays() -> float:
    v = _RHS
    for _ in range(350):
        v = solve_banded((1, 1), _AB, _RHS)
        w = np.where(v > 0.0, v * v, -v)
        v = np.maximum(v, 0.5 * w)
    return float(v[0])


def batch_arrays() -> float:
    rng = default_rng(7)
    y = np.zeros(_N)
    for _ in range(3):
        z = rng.standard_normal((2, _N))
        f = np.interp(y, _GRID, _VALS)
        y = y + 0.01 * z[0] + 0.1 * f * z[1]
        y = y * np.sqrt(np.maximum(1.0 - 0.1 * f * f, 0.0))
    return float(y[0])


def csv_text() -> float:
    text = "\n".join(",".join(f"{x:.17g}" for x in _ROW[i::4]) for i in range(4))
    return sum(float(x) for line in text.splitlines() for x in line.split(","))


PARTS = {"small": small_arrays, "batch": batch_arrays, "text": csv_text}


class HostGauge:
    """Times the kernel parts; factor() is the host's speed relative to
    NOMINAL_S (above 1 when the host is slow)."""

    def __init__(self):
        self.samples = {name: [] for name in PARTS}

    def run(self, rounds: int):
        for _ in range(rounds):
            for name, part in PARTS.items():
                start = perf_counter()
                part()
                self.samples[name].append(perf_counter() - start)

    def sample(self, op_seconds: float):
        """After an operation of op_seconds, run the parts for about SHARE of
        that time (at least once)."""
        self.run(max(1, round(SHARE * op_seconds / (len(PARTS) * NOMINAL_S))))

    def factor(self, parts=tuple(PARTS)) -> float:
        """The host factor of the work of the named parts."""
        means = [statistics.fmean(self.samples[name]) for name in parts]
        return statistics.fmean(means) / NOMINAL_S
