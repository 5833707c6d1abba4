"""Closed-loop client, spans, profiler aggregation and metric summaries.

One client sends the next request only after the previous one has been
printed.  A request is parse -> compute -> print through public functions
of the library; the benchmark wraps each of those calls in a span of its
own (name, start, end, parent, request id).  Spans live in memory and
are written out when the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

#: nominal time of one calibration() call (its median on a 2-core x86-64
#: VM under Python 3.11.7); reported times are scaled to this speed
REF_KERNEL_S = 0.0008
#: calibration samples this close to a request give its speed, and at least CAL_MIN of them
CAL_MARGIN_S = 0.5
CAL_MIN = 5

#: modules of src/diffops that do work, plus the stdlib Fraction that fields drives
PROFILED_MODULES = (
    "fields", "heisenberg", "operators", "polyring", "polydiff",
    "azumaya", "findim", "parsing", "printing", "cli", "fractions",
)

#: exact call counts taken from the profiler: metric name -> (module, function)
PROFILED_CALLS = {
    "heisenberg._mul_mono.calls": ("heisenberg", "_mul_mono"),
    "operators._push_partials.calls": ("operators", "_push_partials"),
    "fields.FieldSpec.mul.calls": ("fields", "mul"),
    "fields.FieldSpec.binom.calls": ("fields", "binom"),
    "fields.FieldSpec.zero.calls": ("fields", "zero"),
    "fractions.Fraction.__new__.calls": ("fractions", "__new__"),
    "polyring.Poly.__mul__.calls": ("polyring", "__mul__"),
    "polyring.Poly.exact_div.calls": ("polyring", "exact_div"),
    "findim._rref.calls": ("findim", "_rref"),
    "findim._mat_mul.calls": ("findim", "_mat_mul"),
    "azumaya.CenteredFreeAlgebra._validate.calls": ("azumaya", "_validate"),
    "findim.FinAlgebra._validate.calls": ("findim", "_validate"),
}

#: span-derived busy times: metric name -> span names summed into it
BUSY = {
    "parsing.busy_s": ("parsing.",),
    "printing.busy_s": ("printing.",),
    "heisenberg.mul.busy_s": ("heisenberg.mul",),
    "heisenberg.central_decompose.busy_s": ("heisenberg.central_decompose",),
    "operators.compose.busy_s": ("operators.compose",),
    "operators.apply.busy_s": ("operators.apply",),
    "operators.commutator.busy_s": ("operators.commutator",),
    "operators.reduce.busy_s": ("operators.reduce",),
    "operators.inner_decompose.busy_s": ("operators.inner_decompose",),
    "polyring.bareiss.busy_s": ("polyring.bareiss",),
    "polydiff.busy_s": ("polydiff.",),
    "azumaya.build.busy_s": ("azumaya.build",),
    "azumaya.is_azumaya.busy_s": ("azumaya.is_azumaya",),
    "azumaya.roundtrip.busy_s": ("azumaya.roundtrip",),
    "findim.build.busy_s": ("findim.build",),
    "findim.z_filtration.busy_s": ("findim.z_filtration",),
    "findim.relative_z_filtration.busy_s": ("findim.relative_z_filtration",),
}

#: work counts the workloads add up at the same boundaries
COUNTS = (
    "parsing.chars_in", "printing.chars_out", "heisenberg.terms_out",
    "operators.terms_out", "operators.reduce.brackets", "polyring.det_terms",
    "findim.levels", "findim.dim_sum",
)


def calibration():
    """Fixed pure-Python work that shares no code with diffops: tuple keys,
    dict updates, Fraction and int arithmetic, as the library's own loops.

    The host's speed drifts by up to 2x within minutes on a shared machine;
    a library-free kernel timed between requests measures that drift, and
    dividing request times by it removes most of it, while a change to the
    library still moves the scaled times by its full amount.
    """
    d = {}
    acc = Fraction(0)
    x = 1
    for i in range(200):
        key = (i % 7, i % 11, i % 13)
        d[key] = d.get(key, 0) + i * 3 % 17
        acc += Fraction(i % 5 + 1, i % 3 + 1)
        x = x * 31 % 1_000_003
    return [k for k, v in d.items() if v % 2], acc, x


def calibrate(n):
    """(start time, duration) of n calibration() calls, with the collector off."""
    out = []
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            calibration()
            out.append((t0, time.perf_counter() - t0))
    finally:
        gc.enable()
    return out


def local_slowdowns(samples, spans):
    """Host slowness during each (start, end) span, 1.0 being the reference
    speed: the median of the calibration samples taken from CAL_MARGIN_S
    before the span starts to CAL_MARGIN_S after it ends."""
    starts = [t for t, _d in samples]
    out = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(starts, t0 - CAL_MARGIN_S)
        hi = bisect.bisect_right(starts, t1 + CAL_MARGIN_S)
        if hi - lo < CAL_MIN:
            mid = bisect.bisect_left(starts, t0)
            lo, hi = max(0, mid - CAL_MIN), mid + CAL_MIN
        out.append(statistics.median(d for _t, d in samples[lo:hi]) / REF_KERNEL_S)
    return out


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer:
    """Records one span per library call, parented to its request span."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._request = None
        self._parent = None

    def begin(self, rid):
        self._request = rid
        self._parent = len(self.spans)
        self.spans.append(["request", time.perf_counter(), None, None, rid])

    def end(self):
        self.spans[self._parent][2] = time.perf_counter()

    def call(self, name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.spans.append((name, start, time.perf_counter(), self._parent, self._request))
        return out

    def count(self, name, n):
        self.counts[name] += n

    def busy(self, slowdowns):
        """Busy time per layer; each span is scaled by its request's slowdown."""
        out = dict.fromkeys(BUSY, 0.0)
        for name, start, end, _parent, rid in self.spans:
            for metric, prefixes in BUSY.items():
                if name.startswith(prefixes):
                    out[metric] += (end - start) / slowdowns[rid]
        return out


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Outcome:
    """What one pass over the requests produced."""

    def __init__(self):
        self.latencies = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.batch_requests = 0
        self.rounds = 0
        self.cpus = []
        self.spans = []  # (start, end) of each request
        self.samples = []  # calibration samples, one before each request and one at the end

    def scale(self):
        """Per-request slowdowns, and the latencies and CPU time scaled by them."""
        self.slowdowns = local_slowdowns(self.samples, self.spans)
        self.scaled = [t / k for t, k in zip(self.latencies, self.slowdowns)]
        self.scaled_cpu = sum(c / k for c, k in zip(self.cpus, self.slowdowns))
        self.scaled_busy = sum(self.scaled)
        self.slowdown = statistics.median(d for _t, d in self.samples) / REF_KERNEL_S


def run_loop(workload, env, seed, seconds, batch_rounds, tiny, tracer, profiler=None):
    """Closed loop: whole rounds until the batch is done and `seconds` of
    request time have passed.  Round r's inputs come from the seed and r
    alone.  Checks run between requests, outside the timed span (and
    outside the profiler), and never call the timed function again on the
    same input.  The digest covers the printed outputs of the batch."""
    res = Outcome()
    state = workload.CheckState() if hasattr(workload, "CheckState") else None
    traced = isinstance(tracer, Tracer)
    rnd = 0
    while rnd < batch_rounds or res.busy < seconds:
        for req in workload.requests(env, random.Random(f"{seed}/{rnd}"), rnd, tiny):
            rid = res.attempted
            res.attempted += 1
            res.samples += calibrate(1)
            if traced:
                tracer.begin(rid)
            if profiler:
                profiler.enable()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                text, value = workload.execute(env, req, tracer)
            except Exception as exc:  # a raising request is a failure, not a crash
                text, value = f"error: {type(exc).__name__}: {exc}", None
            t1 = time.perf_counter()
            res.cpus.append(time.process_time() - c0)
            if profiler:
                profiler.disable()
            if traced:
                tracer.end()
            res.latencies.append(t1 - t0)
            res.spans.append((t0, t1))
            res.busy += t1 - t0
            if value is None or not workload.check(env, req, text, value, state):
                res.failed += 1
                print(f"FAILED request {rid} ({req[0]}): {text[:200]}", file=sys.stderr)
            if rnd < batch_rounds:
                res.batch_requests += 1
                res.digest.update(text.encode() + b"\n")
        rnd += 1
    res.samples += calibrate(1)
    res.rounds = rnd
    res.scale()
    return res


def end_to_end(res, setup):
    """The end-to-end metrics; times are scaled to the reference speed."""
    lat = sorted(res.scaled)
    n = len(lat)
    return {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (n / res.scaled_busy, "req/s"),
        "cpu_ms_per_op": (1000.0 * res.scaled_cpu / n, "ms"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_p95_ms": (1000.0 * percentile(lat, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_setup(workload_name, repeats):
    """Median wall time of fresh interpreters that import diffops and
    diffops.cli and build the workload's fixed contexts; one warm-up run
    first, so compiled bytecode is in place as it is for a user.  Each
    probe is scaled by calibration samples taken just before and after it."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name]
    walls, imports = [], []
    for i in range(repeats + 1):
        samples = calibrate(CAL_MIN)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        samples += calibrate(CAL_MIN)
        if i:
            k = statistics.median(d for _t, d in samples) / REF_KERNEL_S
            walls.append(wall / k)
            imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["cli_import_s"] / k)
    return {
        "setup_s": statistics.median(walls),
        "cli.import_s": statistics.median(imports),
        "setup_samples": repeats,
    }


def profile(prof, slowdown):
    """Self time per module (scaled by the slowdown) and the exact call
    counts of PROFILED_CALLS."""
    self_s = dict.fromkeys(PROFILED_MODULES, 0.0)
    calls = {}
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in pstats.Stats(prof).stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        self_s[module] += tt
        calls[(module, func)] = calls.get((module, func), 0) + nc
    out = {f"{m}.self_s": (v / slowdown, "s") for m, v in self_s.items()}
    for metric, key in PROFILED_CALLS.items():
        out[metric] = (calls.get(key, 0), "count")
    return out


def _module_of(filename):
    base = os.path.basename(filename)
    parent = os.path.basename(os.path.dirname(filename))
    if parent == "diffops" and base.endswith(".py"):
        return base[:-3]
    if base == "fractions.py":
        return "fractions"
    return None


def write_spans(root, workload_name, seed, tracer):
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload_name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "request"],
                "spans": [list(s) for s in tracer.spans],
            },
            fh,
        )
    return path
