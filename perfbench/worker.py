"""Run one workload in this process and print its measurements as one JSON line.

A single client calls `multikey_bv.cli.main` in a closed loop: the next
command starts only when the last one has returned.  Each output is
checked by `checks.check`.  After one untimed warm-up call of every
command, the workload's round of operations repeats until --seconds is
used up.  Each op's latency is its best over the rounds; wall_s is the
sum of those, op_p50_ms and op_tail_ms are percentiles over the ops.  With --trace 1 the warm-up calls are repeated and the first
round runs, both under the span recorder; the untraced rounds that
follow give the tracing overhead.

    PYTHONPATH=src python3 perfbench/worker.py --workload small-circuits \\
        --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

import checks
import spans
import workloads
from multikey_bv import cli

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Spans the traced round must fire on the workload that exercises them.
EXERCISED = {
    "small-circuits": (
        "cli.main", "keyspace.from_strings", "simulator.build_circuit",
        "simulator.chi_square",
    ),
    "dense-23q": (
        "simulator.hadamard", "simulator.oracle", "simulator.x",
        "simulator.prepare_uniform", "simulator.run_circuit",
        "simulator.marginal", "simulator.exact_distribution", "simulator.sample",
    ),
    "classical-analysis": (
        "analytics.count_consistent", "analytics.prob_all_keys",
        "analytics.guess_bound", "analytics.guess_exact",
        "adversary.bit_sum_estimation", "adversary.guess_attack", "adversary.coupon",
    ),
}

MAX_REPORTED_ERRORS = 5


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, ops) -> tuple[list[float], int]:
        """Run ops in order; return each op's latency and the output bytes."""
        latencies, output_bytes = [], 0
        for op in ops:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(op.argv))
            except Exception as exc:  # a crash fails this op; the run goes on
                code, error = None, f"raised {exc.__class__.__name__}: {str(exc)[:200]}"
            latencies.append(time.perf_counter() - start)
            text = out.getvalue()
            output_bytes += len(text.encode())
            if code is not None:
                error = f"exit code {code}" if code != 0 else checks.check(op, text)
            self.attempted += 1
            if error:
                self.failed += 1
                if len(self.errors) < MAX_REPORTED_ERRORS:
                    self.errors.append(f"{' '.join(op.argv[:3])} ...: {error}")
        return latencies, output_bytes


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten samples beyond it.

    With fewer than eleven samples this is the slowest one, percentile 100.
    """
    ranked = sorted(latencies)
    n = len(ranked)
    if n < 11:
        return ranked[-1], 100.0
    return ranked[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    status = {}
    with contextlib.suppress(OSError), open("/proc/self/status") as fh:
        status = dict(line.rstrip("\n").split(":\t", 1) for line in fh if ":\t" in line)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads": threading.active_count(),
        "os_threads": int(status["Threads"]) if "Threads" in status else None,
    }


def measure(workload: str, seed: int, seconds: float, tracer) -> dict:
    ops = workloads.generate(workload, seed)
    tally = Tally()
    tally.run(workloads.PROBE)

    rounds = []  # latencies of each untraced round
    result = {}
    start = time.perf_counter()
    if tracer:
        # The probe again, now warm, so that every layer shows in the trace.
        with tracer.installed():
            _, probe_bytes = tally.run(workloads.PROBE)
            mark = len(tracer.spans)
            traced, round_bytes = tally.run(ops)
        fired = {span[0] for span in tracer.spans[mark:]}
        result["unfired_spans"] = [s for s in EXERCISED[workload] if s not in fired]
        result["per_layer"] = spans.layer_metrics(tracer, probe_bytes + round_bytes)
        result["computed_counters"] = spans.COMPUTED_COUNTERS
    while True:
        round_start = time.perf_counter()
        rounds.append(tally.run(ops)[0])
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    # Best of the rounds for each op: on a shared machine the CPU speed can
    # switch between modes every few seconds, and the fastest repeat of an
    # op is the one least disturbed by other tenants.
    best = [min(repeats) for repeats in zip(*rounds)]
    walls = [sum(r) for r in rounds]
    op_tail_s, percentile = tail(best)
    if tracer:
        result["per_layer"]["trace.overhead_s"] = (sum(traced) - statistics.median(walls), "s")
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        ops_per_round=len(ops),
        untraced_rounds=len(rounds),
        round_wall_s=walls,
        tail_percentile=percentile,
        best_op_ms_by_kind={
            kind: 1e3 * statistics.median(b for op, b in zip(ops, best) if op.kind == kind)
            for kind in sorted({op.kind for op in ops})
        },
        end_to_end={
            "wall_s": (sum(best), "s"),
            "op_p50_ms": (1e3 * statistics.median(best), "ms"),
            "op_tail_ms": (1e3 * op_tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        environment=environment(),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)
    tracer = spans.Tracer() if args.trace else None
    result = measure(args.workload, args.seed, args.seconds, tracer)
    if tracer and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
