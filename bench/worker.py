"""One workload in a fresh single-threaded process; started by run.py.

Set-up imports the program from the checkout's src/, makes the inputs from
the seed and warms up, then prints READY.  With --setup-only the process then
times the host gauge (reference.py), prints its factor as GAUGE <factor> and
ends.  Otherwise it runs whole passes until --seconds have gone by and prints
one JSON line: operations attempted and failed, the problems of operations
that failed unexpectedly, the host factors and the figures of the passes.
"""

import os

# one thread for BLAS and OpenMP, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# rounds of the host gauge a set-up-only process times after set-up
SETUP_GAUGE_ROUNDS = 3


def import_program():
    """Import robustport from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import robustport
    except ImportError as exc:
        sys.exit(f"cannot import robustport from {SRC}: {exc}")
    if not Path(robustport.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"robustport was imported from {robustport.__file__}, not {SRC}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_program()
    import reference
    import tracing
    import workloads

    if args.workload not in workloads.MAKERS:
        sys.exit(f"unknown workload {args.workload!r}")
    wl = workloads.MAKERS[args.workload](args.seed, OUT / args.workload)
    wl.warm_up()
    reference.HostGauge().run(1)   # warm-up: first calls are not timed
    gauge = reference.HostGauge()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("READY", flush=True)
    if args.setup_only:
        gauge.run(SETUP_GAUGE_ROUNDS)
        print(f"GAUGE {gauge.factor()!r}", flush=True)
        return 0

    # whole passes only: a pass starts when its average length still fits
    recs, out_bytes = [], []
    start = perf_counter()
    while not recs or (perf_counter() - start) * (len(recs) + 1) / len(recs) <= args.seconds:
        rec = workloads.PassRecorder(tracer, wl.expected_failures, gauge)
        wl.run_pass(rec)
        recs.append(rec)
        out_bytes.append(wl.out_bytes())

    # end-to-end times are means over the passes (every pass runs the same
    # operations), each stage divided by the host factor of its kind of work
    factors = {stage: gauge.factor(wl.STAGE_GAUGE.get(stage, tuple(reference.PARTS)))
               for stage in recs[0].stage_s if any(r.stage_s[stage] for r in recs)}

    def per_pass(stages):
        return statistics.fmean(sum(r.stage_s[st] / factors[st] for st in stages)
                                for r in recs)

    pipeline_s = per_pass(factors)
    if tracer is None:
        metrics = {
            "pipeline_s": (pipeline_s, "s"),
            "solve_s": (per_pass(["solve"]), "s"),
            "verify_s": (per_pass(["verify"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    else:
        tracer.restore()
        metrics = tracing.layer_metrics(
            tracer.spans, len(recs), statistics.median(out_bytes), pipeline_s,
            statistics.median([r.cache_hits for r in recs]))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps({
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "unexpected": [p for r in recs for p in r.unexpected],
        "passes": len(recs),
        "host_factors": factors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
