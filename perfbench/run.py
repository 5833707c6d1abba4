"""Benchmark for diffops: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {calculus-q,charp,filtration} \
        --seed N --seconds S --trace {0,1} [--tiny]

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the seeded batch three times: with the benchmark's spans (busy time
and work counts per layer), untraced, and with spans and cProfile (self
time per module, exact call counts; its time over the untraced run's is
trace.overhead_ratio).  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
carries the output digest, sample counts and the fail ratio.  --tiny runs
a small schedule, for the smoke self-check.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("calculus-q", "charp", "filtration")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small schedule, for the smoke check")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diffops", "__init__.py")):
        print(f"perfbench: no diffops sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import diffops.cli  # noqa: F401  (the whole package is loaded before timing)

    import harness

    workload = importlib.import_module(args.workload.replace("-", "_"))
    env = workload.build()
    batch = 1 if args.tiny else workload.BATCH_ROUNDS
    setup = harness.measure_setup(args.workload, 2 if args.tiny else 7)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "client": "closed loop, 1 client, 1 process",
        "setup_samples": setup["setup_samples"],
    }
    gc.collect()
    if args.trace == 0:
        res = harness.run_loop(workload, env, args.seed, args.seconds, batch, args.tiny, harness.NullTracer())
        metrics = harness.end_to_end(res, setup)
        n = len(res.latencies)
        info.update(
            latency_samples=n,
            latency_p95_samples_beyond=n - -(-n * 95 // 100),
            fail_ratio=res.failed / res.attempted,
            slowdown=res.slowdown,
            raw_ops_per_s=n / res.busy,
            raw_latency_p50_ms=1000.0 * statistics.median(res.latencies),
        )
        attempted, failed, consistent = res.attempted, res.failed, True
    else:
        tracer = harness.Tracer()
        res = harness.run_loop(workload, env, args.seed, 0, batch, args.tiny, tracer)
        spans_file = harness.write_spans(ROOT, args.workload, args.seed, tracer)
        gc.collect()
        plain = harness.run_loop(workload, env, args.seed, 0, batch, args.tiny, harness.NullTracer())
        gc.collect()
        prof_tracer, prof = harness.Tracer(), cProfile.Profile()
        prof_res = harness.run_loop(workload, env, args.seed, 0, batch, args.tiny, prof_tracer, prof)
        metrics = {k: (v, "s") for k, v in tracer.busy(res.slowdowns).items()}
        metrics.update({k: (v, "count") for k, v in tracer.counts.items()})
        metrics["cli.import_s"] = (setup["cli.import_s"], "s")
        metrics.update(harness.profile(prof, prof_res.slowdown))
        metrics["trace.overhead_ratio"] = (prof_res.scaled_busy / plain.scaled_busy, "ratio")
        consistent = (
            prof_res.digest.digest() == res.digest.digest() == plain.digest.digest()
            and len(prof_tracer.spans) == len(tracer.spans)
            and prof_tracer.counts == tracer.counts
        )
        runs = (res, plain, prof_res)
        attempted, failed = sum(r.attempted for r in runs), sum(r.failed for r in runs)
        info.update(
            spans_file=os.path.relpath(spans_file, ROOT),
            spans=len(tracer.spans),
            fail_ratio=failed / attempted,
        )
    info.update(
        rounds=res.rounds,
        batch_rounds=batch,
        batch_requests=res.batch_requests,
        output_sha256=res.digest.hexdigest(),
    )
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
