"""isoalg benchmark: verification and model building, end to end.

Usage (from the root of a checkout):

    python3 bench/run.py [--workload verify-q12|verify-p6|build-scale|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Runs the workload(s) in this process against the checkout's ``src``,
prints every metric with its unit, writes the environment, metrics and
sample counts to ``.bench_out/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced run and writes its spans to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import specs


def _parse(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", default="all",
                    choices=list(specs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _number(v: float):
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    args = _parse(argv)
    specs.use_source_tree()
    # One BLAS thread unless the caller says otherwise: at these sizes a
    # second thread only spins, and it ties the timings to the load on the
    # other core.  Set before numpy is imported; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import workloads

    env = workloads.environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    names = specs.WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res, tracer = workloads.run_workload(name, args.seed, args.seconds,
                                             bool(args.trace))
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            tracer.save(specs.OUT / f"spans-{tag}.npz")
        for metric, (value, unit) in res.metrics.items():
            extra = ""
            if metric in res.samples:
                extra = f"  ({res.samples[metric]} samples"
                if metric in res.wall:
                    extra += f", wall median {res.wall[metric]:.6g} s"
                extra += ")"
            print(f"{name:12s} {metric:48s} {value:.6g} {unit}{extra}")
        print(f"{name:12s} operations: {res.attempted} attempted, "
              f"{res.failed} failed; verdicts passed {res.verdicts_passed}/"
              f"{res.verdicts}; oracle misses {res.oracle_misses}", flush=True)
        metrics = {m: {"value": _number(v), "unit": u}
                   for m, (v, u) in res.metrics.items()}
        (specs.OUT / f"result-{tag}.json").write_text(json.dumps(
            {"env": {**env, "samples": res.samples}, "workload": name,
             "correct": res.correct, "attempted": res.attempted,
             "failed": res.failed, "verdicts": res.verdicts,
             "verdicts_passed": res.verdicts_passed,
             "oracle_misses": res.oracle_misses, "timings": res.timings,
             "wall_medians": res.wall,
             "metrics": metrics},
            indent=1))
        summary["correct"] = summary["correct"] and res.correct
        summary["attempted"] += res.attempted
        summary["failed"] += res.failed
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + m: v for m, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
