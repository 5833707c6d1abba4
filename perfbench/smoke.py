"""Smoke self-check of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload at the tiny size, once with tracing off and twice
with tracing on, each in its own process, and asserts that

* every metric BENCHMARK.json names is printed, with its unit;
* no request failed (fail_ratio is 0) and every run reports correct;
* the two traced runs give identical call counts, work counts and span
  counts, and every run of the seed prints the same output digest;
* the modules that use CPU time in the traced run are among the modules
  workloads.json lists for the workload.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def check_metrics(result, declared, where):
    got = result["metrics"]
    for m in declared:
        assert m["name"] in got, f"{where}: metric {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: {m['name']} unit {got[m['name']]['unit']}"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: failed requests"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)["workloads"]
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in bench["workloads"]:
        name = w["name"]
        info0, res0 = run(name, 0)
        check_metrics(res0, bench["end_to_end"], f"{name} trace 0")
        assert info0["fail_ratio"] == 0, f"{name}: fail_ratio {info0['fail_ratio']}"
        traced = [run(name, 1) for _ in range(2)]
        for info, res in traced:
            check_metrics(res, bench["per_layer"], f"{name} trace 1")
            assert info["output_sha256"] == info0["output_sha256"], f"{name}: digest differs"
        (ia, a), (ib, b) = traced
        assert ia["spans"] == ib["spans"], f"{name}: span counts differ ({ia['spans']} vs {ib['spans']})"
        for m in exact:
            va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
            assert va == vb, f"{name}: {m} differs between traced runs ({va} vs {vb})"
        busy = {k.split(".")[0] for k, v in a["metrics"].items() if k.endswith(".self_s") and v["value"] > 0}
        extra = busy - set(manifest[name]["modules"]) - {"fractions"}
        assert not extra, f"{name}: modules {sorted(extra)} used but not listed"
        print(f"ok {name}: {len(res0['metrics'])} end-to-end and {len(a['metrics'])} per-layer metrics, "
              f"{ia['spans']} spans, digest {info0['output_sha256'][:12]}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke check FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
