"""Benchmark of the rpattn package through its public Python API.

Run from the repository root:

    python3 perfbench/run.py --workload fwd_f32_n16k --seed 0 --seconds 10 --trace 0

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. `--trace 0` measures the end-to-end metrics with
tracing off. `--trace 1` measures the same loop untraced and then traced,
and derives per-layer metrics from spans recorded around the package's
functions (see tracer.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A result file with the
environment record goes to perfbench/results/, next to the spans of a traced
run.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()   # set-up time counts the imports below

# BLAS reads its thread cap when numpy loads, so the cap is set before numpy
# or a module importing it is imported. One thread keeps a shared two-core
# machine's timings steadier and equals the plain single-threaded baseline;
# it is recorded in every result file.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RPATTN_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MB = 1e6

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import rpattn from this checkout's src/, never from anywhere else."""
    if not (SRC / "rpattn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'rpattn'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rpattn
    for module in ("analysis", "attention", "baselines", "grad", "kernels", "synthetic", "train"):
        importlib.import_module("rpattn." + module)
    if Path(rpattn.__file__).resolve().parent != (SRC / "rpattn").resolve():
        raise SystemExit(f"benchmark: imported rpattn from {rpattn.__file__}, not {SRC}")
    return rpattn


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(rp, workload, seed, state):
    digest = hashlib.sha256()
    for path in sorted((SRC / "rpattn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    config = np.show_config(mode="dicts")
    return {
        "package_commit": git_commit(),
        "package_source_sha256": digest.hexdigest(),
        "package_version": rp.__version__,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "blas_thread_cap": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "workload_config": workload.describe(state),
    }


class Loop:
    """Runs one workload's ops in a closed loop; counts attempts and failures."""

    def __init__(self, rp, workload, state):
        self.rp, self.workload, self.state = rp, workload, state
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cpu_samples = []   # CPU seconds per op: a diagnostic of contention, not a metric

    def one(self, on_start=None):
        """Run and check one op; returns its wall time in seconds."""
        i = self.next_op
        self.next_op += 1
        if on_start is not None:
            on_start(i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.workload.op(self.rp, self.state, i)
            dt = time.perf_counter() - t0
            self.cpu_samples.append(time.process_time() - c0)
            problem = self.workload.check(self.state, result, i)
        except Exception:  # an op that raises is a failed op; keep measuring
            dt = time.perf_counter() - t0
            problem = traceback.format_exc(limit=3)
        self.record(problem)
        return dt

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
            print(f"benchmark: op failed: {problem}", file=sys.stderr)

    def run_for(self, seconds, on_start=None, min_ops=1):
        """Ops back to back until `seconds` have passed; returns (samples, wall)."""
        samples = []
        start = time.perf_counter()
        deadline = start + seconds
        while len(samples) < min_ops or time.perf_counter() < deadline:
            samples.append(self.one(on_start))
        return samples, time.perf_counter() - start


def setup(rp, workload, seed):
    """Inputs, set-up checks and one warm-up op, repeated; returns (loop, median s).

    Every repeat starts from fresh inputs and op index 0; failures of all
    repeats count.
    """
    loop = Loop(rp, workload, None)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        loop.state = workload.make(rp, seed)
        loop.next_op = 0
        try:
            loop.record(workload.setup_check(rp, loop.state))
        except Exception:
            loop.record(traceback.format_exc(limit=3))
        loop.one()                                   # warm-up op, checked like any other
        times.append(time.perf_counter() - t0)
    return loop, statistics.median(times)


def timing_summary(samples):
    p50 = float(np.percentile(samples, 50))
    p90 = float(np.percentile(samples, 90))
    return {"n": len(samples), "p50_s": p50, "p90_s": p90,
            "beyond_p90": int(sum(s > p90 for s in samples)),
            "min_s": min(samples), "max_s": max(samples)}


def alt_seed(seed):
    return seed + 7919


def end_to_end(rp, workload, seed, seconds, loop, setup_s):
    first = len(loop.cpu_samples)
    failed_before = loop.failed
    samples, wall = loop.run_for(seconds)
    completed = len(samples) - (loop.failed - failed_before)
    timing = timing_summary(samples)
    timing["cpu_p50_s"] = float(np.median(loop.cpu_samples[first:]))
    timing["samples_s"] = samples

    # Untimed memory passes: the run's own inputs, then a second seed's after
    # one warm-up op. The two peaks must agree within tracer.PEAK_TOL.
    peak = tracer.measure_peak(lambda: loop.one())
    alt_state = workload.make(rp, alt_seed(seed))
    workload.op(rp, alt_state, 0)
    alt_peak = tracer.measure_peak(lambda: workload.op(rp, alt_state, 1))
    drift = tracer.peak_drift({"peak_bytes": (peak, alt_peak)})

    metrics = {
        "op_ms_p50": (timing["p50_s"] * 1e3, "ms"),
        "op_ms_p90": (timing["p90_s"] * 1e3, "ms"),
        "ops_per_s": (completed / wall, "1/s"),
        "peak_mb": (peak / MB, "MB"),
        "setup_s": (setup_s, "s"),
        "success_rate": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    extra = {"timing": timing, "measured_wall_s": wall, "alt_seed": alt_seed(seed),
             "count_drift": drift}
    return metrics, extra, None


def per_layer(rp, workload, seed, seconds, loop):
    """Untraced then traced halves of the run, plus untimed memory passes."""
    plain, _ = loop.run_for(seconds / 2)
    recorder = tracer.Recorder()
    with recorder.install(rp):
        traced, _ = loop.run_for(seconds / 2, on_start=lambda i: setattr(recorder, "op", i),
                                 min_ops=2)
    per_op = tracer.summarize(recorder.spans, rp.analysis.flops_estimate)
    ops = sorted(per_op)
    totals = Counter()
    for i in ops:
        totals.update(per_op[i])
    metrics = tracer.layer_metrics(totals, len(ops))

    alt_state = workload.make(rp, alt_seed(seed))
    alt_rec = tracer.Recorder()
    with alt_rec.install(rp):
        alt_rec.op = 0
        workload.op(rp, alt_state, 0)
    alt_counts = tracer.summarize(alt_rec.spans, rp.analysis.flops_estimate)[0]

    probes = []
    for state in (loop.state, alt_state):
        probe = tracer.MemoryProbe()
        with probe.install(rp):
            tracer.measure_peak(lambda: workload.op(rp, state, loop.next_op))
        probes.append(probe)
    probe = probes[0]
    metrics["attention.trace_mb"] = (probe.trace_bytes / MB, "MB")
    metrics["attention.forward.peak_mb"] = (probe.forward_peak / MB, "MB")
    metrics["grad.backward.peak_mb"] = (probe.backward_peak / MB, "MB")
    metrics["attention.gather.live_slot_ratio"] = (
        probe.live_slots / probe.slots if probe.slots else 0.0, "ratio")

    drift = count_drift(per_op, ops, alt_counts, probes)
    p50_plain = float(np.median(plain))
    p50_traced = float(np.median(traced))
    metrics["trace.overhead"] = (p50_traced / p50_plain - 1.0, "ratio")
    metrics["selfcheck.count_drift"] = (len(drift), "count")

    cost = tracer.cost_model_check(per_op[ops[0]])
    print_cost_model(cost)
    extra = {"untraced_timing": timing_summary(plain),
             "traced_timing": timing_summary(traced), "traced_ops": len(ops),
             "alt_seed": alt_seed(seed), "count_drift": drift, "cost_model": cost,
             "spans": len(recorder.spans)}
    return metrics, extra, recorder


def count_drift(per_op, ops, alt_counts, probes):
    """Exact counters that differ between traced ops or between the two seeds.

    Any entry is a defect of the benchmark: these depend only on shapes.
    """
    drift = []
    first = per_op[ops[0]]
    for key in sorted(k for k in set(first) | set(alt_counts) if tracer.is_exact(k)):
        values = {per_op[i].get(key, 0) for i in ops}
        if len(values) > 1 or alt_counts.get(key, 0) != first.get(key, 0):
            drift.append({"quantity": key, "ops": sorted(values),
                          "alt_seed": alt_counts.get(key, 0)})
    seed_probe, alt_probe = probes
    if seed_probe.trace_bytes != alt_probe.trace_bytes:
        drift.append({"quantity": "trace_bytes", "seed": seed_probe.trace_bytes,
                      "alt_seed": alt_probe.trace_bytes})
    return drift + tracer.peak_drift({
        attr: tuple(getattr(p, attr) for p in probes)
        for attr in ("forward_peak", "backward_peak")})


def print_cost_model(cost):
    print("cost model: counted vs modelled MACs per forward-stage, one op")
    print(f"  {'stage':<12}{'counted':>16}{'model':>16}{'gap':>16}")
    for stage, row in cost["stages"].items():
        print(f"  {stage:<12}{row['counted_macs']:>16}{row['model_macs']:>16}{row['gap_macs']:>16}")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in cost["checks"].items()))


def main(argv=None):
    args = parse_args(argv)
    rp = import_package()
    import_s = time.perf_counter() - T_START

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        raise SystemExit("benchmark: --seconds must be positive and --seed non-negative")

    loop, setup_median = setup(rp, workload, args.seed)
    setup_s = import_s + setup_median
    if args.trace:
        metrics, extra, recorder = per_layer(rp, workload, args.seed, args.seconds, loop)
    else:
        metrics, extra, recorder = end_to_end(rp, workload, args.seed, args.seconds, loop,
                                              setup_s)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write(RESULTS / f"{stem}.spans.tsv.gz")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, environment=environment(rp, workload, args.seed, loop.state),
                  import_s=import_s, setup_median_s=setup_median,
                  setup_checks=loop.state.get("setup_checks"), problems=loop.problems,
                  **extra)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    if extra["count_drift"]:
        print("benchmark defect: counts that depend only on shapes drifted: "
              + json.dumps(extra["count_drift"]), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
