"""Benchmark of robustport's solve -> strategy -> verify pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pde-ladder, mc-saddle, cli-smoke, or all (each in turn).  Every
workload runs in a fresh single-threaded process (worker.py) that makes its
inputs from the seed, runs whole passes for S seconds and checks every
output.  With --trace 0 the end-to-end metrics are printed by name and unit,
each a wall time divided by the host factor that reference.py measured in
the same processes; with --trace 1 the per-layer metrics of a traced run
are.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is non-zero, and no JSON is printed, when the
program cannot be built or run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pde-ladder", "mc-saddle", "cli-smoke")
# set-up is timed in this many fresh processes; the median, divided by the
# host factor the set-up-only processes measured, is setup_s
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def launch(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
           deadline: float):
    """Run worker.py; return (seconds from start to READY, its other lines)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    lines = []
    start = time.perf_counter()
    # a fixed hash seed keeps dict and set layout the same in every worker
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        rc = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker ran past the {TIME_LIMIT_S:g} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    ready = next((t for t, line in lines if line == "READY"), None)
    if rc != 0 or ready is None:
        raise WorkerError(f"{workload}: worker exited with code {rc}")
    return ready - start, [line for _, line in lines if line != "READY"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    setup, gauges = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, lines = launch(workload, seed, seconds, trace, True, deadline)
            setup.append(ready_s)
            gauges += [float(line.split()[1]) for line in lines if line.startswith("GAUGE ")]
        if len(gauges) != SETUP_SAMPLES - 1:
            raise WorkerError(f"{workload}: a set-up process printed no gauge")
    ready_s, lines = launch(workload, seed, seconds, trace, False, deadline)
    setup.append(ready_s)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{workload}: worker printed no result") from exc
    if not trace:
        result["host_factors"]["set-up"] = statistics.fmean(gauges)
        setup_s = statistics.median(setup) / result["host_factors"]["set-up"]
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its worker (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        print(f"{name}: {res['attempted']} operations attempted, {res['failed']} failed, "
              f"{res['passes']} passes")
        factors = ", ".join(f"{k} {v:.4f}" for k, v in res["host_factors"].items())
        print(f"{name}: host factors {factors} (each time below is a wall time divided "
              f"by the factor of its stage)")
        for problem in res["unexpected"]:
            print(f"{name}: UNEXPECTED FAILURE {problem}", file=sys.stderr)
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
            metrics[metric if len(results) == 1 else f"{name}.{metric}"] = m
    print(json.dumps({
        "correct": all(not r["unexpected"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
