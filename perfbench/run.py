"""Benchmark entry point.  Run it from the repository root:

    python3 perfbench/run.py --workload small-circuits --seed 1 --seconds 30 --trace 0

It times several cold starts of the CLI (setup_s), then runs the
workload in one single-threaded worker process (worker.py) and prints
a run record line, then one JSON result line: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run, whose spans go to .perfbench_out/.  Only the benchmark's own
processes are measured: no cache drops and no system-wide tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
PACKAGE = Path("src") / "multikey_bv"
OUT_DIR = Path(".perfbench_out")
COLD_STARTS = 5
CHILD_TIMEOUT_S = 150
MEASUREMENT_NOTE = (
    "only the benchmark's own processes are measured: "
    "no cache drops, no system-wide tracing"
)


def child_env() -> dict:
    """Environment of every child: the package on the path, one thread per process."""
    path = [str(Path("src").resolve())]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def cold_starts(commands, env) -> list[float]:
    """Seconds from spawning an interpreter to its exit after the warm-up calls.

    One extra start comes first and is not counted: it compiles bytecode,
    which a CLI user pays once, not per invocation.
    """
    argv = [sys.executable, str(HERE / "coldstart.py"), *commands]
    times = []
    for i in range(COLD_STARTS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if i:
            times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: {PACKAGE} not found; run from the repository root", file=sys.stderr)
        return 2

    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "measurement": MEASUREMENT_NOTE}
    if not args.trace:
        commands = sorted({op.command for op in workloads.generate(args.workload, args.seed)})
        record["setup"] = {"commands": commands, "cold_start_s": cold_starts(commands, env)}

    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        worker += ["--spans", str(spans_path)]
        record["spans_file"] = str(spans_path)
    proc = subprocess.run(worker, env=env, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = result.pop("per_layer")
    else:
        metrics = result.pop("end_to_end")
        metrics["setup_s"] = (statistics.median(record["setup"]["cold_start_s"]), "s")
        metrics["ok_ratio"] = (1 - result["failed"] / result["attempted"], "ratio")
    unfired = result.get("unfired_spans", [])
    if unfired:
        print(f"perfbench: spans never fired on {args.workload}: {unfired}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    record["worker"] = result
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not unfired,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
