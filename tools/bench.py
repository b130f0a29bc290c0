"""Write BENCH_<label>.json files from perfbench runs, and compare two.

Each tree is a checkout of this repository given as LABEL=PATH.  For
every workload, run i runs `perfbench/run.py --seed i` once on every
tree, the trees alternating which goes first, so that pairs of runs
share a seed and sit next to each other in time.  Then three traced
runs per tree, alternated the same way, give the per-layer metrics,
each stored as the median of its three values, beside the values:
with one traced run per tree, host drift reads as layer deltas.
perfbench/ itself is run as it is, from each tree's own checkout.
BENCH_<label>.json files go to the current directory.  The runs are
fixed, so that every BENCH file is measured alike: 10 of small-circuits
and 5 of each other workload, each as long as BENCHMARK.json's
run_seconds.  For a quick look at one
workload, run `perfbench/run.py --workload W --seconds S` directly.

    git clone -q . ../parent && git -C ../parent checkout -q <commit>
    python3 tools/bench.py --tree old=../parent --tree new=.
    python3 tools/bench.py --compare BENCH_old.json BENCH_new.json

--compare prints, per workload and end-to-end metric, the medians, the
delta of the medians, the pairs the new file wins, the old file's
interquartile range and the median of the same-seed pairs' new/old
ratios with a bootstrap 95% interval (Kalibera & Jones, ISMM 2013):
the 2.5th and 97.5th percentiles of that median over resamples of the
pairs, drawn from a fixed seed, so the output is the same on every
call.  Under its header it prints each environment field of the run
records, and their run length, where the two files differ, and
whether their src/ digests are equal; where both files count src/
lines, it prints the two counts.  Then it prints the traced
per-layer deltas and how many traced runs each file holds (BENCH files
written before the median hold one), and, where a file keeps the
traced runs' values, each side's min-max over them (a file that keeps
the median alone shows -).  It marks with WORSE each end-to-end metric
whose median worsens by more than its BENCHMARK.json bound, and then
exits 1.  It marks with GAIN each one whose median improves by more
than the old interquartile range and that improves in at least nine
tenths of the same-seed pairs; with no such pair it marks no GAIN.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = {"small-circuits": 10, "dense-23q": 5, "classical-analysis": 5}
TRACED_RUNS = 3
RUN_TIMEOUT_S = 600
RESAMPLES = 10_000
# The worker environment fields a BENCH file's run_record keeps.
ENVIRONMENT = ("nproc", "cpus_usable", "python", "numpy", "scipy", "thread_env")


def tree_identity(path: Path) -> dict:
    """The commit a tree is checked out at, whether tracked files differ
    from it, and a sha256 and a line count over its src/ files, which
    name and size the code run."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    digest, lines = hashlib.sha256(), 0
    for file in sorted((path / "src").rglob("*.py")):
        text = file.read_bytes()
        digest.update(str(file.relative_to(path)).encode() + b"\0" + text)
        lines += text.count(b"\n")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run_perfbench(path: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(run record, result) of one perfbench/run.py run in the tree at path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=path, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {path}: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    (record,) = [line["run_record"] for line in lines if "run_record" in line]
    return record, lines[-1]


def summary(values: list[float]) -> dict:
    """Raw values, median and quartiles (inclusive method)."""
    if len(values) < 2:
        return {"values": values, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def ratio_interval(pairs: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Median of the new/old ratios of same-seed pairs, and the bounds of
    its percentile bootstrap 95% interval over RESAMPLES resamples drawn
    from a fixed seed."""
    ratios = [new / old for old, new in pairs]
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    return statistics.median(ratios), medians[RESAMPLES // 40], medians[RESAMPLES - 1 - RESAMPLES // 40]


def measure(trees: dict[str, Path], runs: dict[str, int], seconds: int) -> dict[str, dict]:
    """One BENCH document per tree label."""
    labels = list(trees)
    docs = {
        label: {"label": label, "tree": tree_identity(path), "workloads": {}}
        for label, path in trees.items()
    }

    def alternated(workload: str, count: int, trace: int) -> dict[str, list]:
        """(seed, position, record, result) of runs 1..count per label."""
        raw = {label: [] for label in labels}
        for seed in range(1, count + 1):
            shift = (seed - 1) % len(labels)
            for position, label in enumerate(labels[shift:] + labels[:shift]):
                record, result = run_perfbench(trees[label], workload, seed, seconds, trace)
                raw[label].append((seed, position, record, result))
                print(f"{workload} seed {seed} trace {trace} {label}", file=sys.stderr)
        return raw

    for workload, count in runs.items():
        raw = alternated(workload, count, 0)
        traced_raw = alternated(workload, TRACED_RUNS, 1)
        for label in labels:
            _, _, record, _ = raw[label][0]
            environment = record["worker"]["environment"]
            docs[label]["run_record"] = {
                **{key: environment[key] for key in ENVIRONMENT},
                "measurement": record["measurement"],
                "seconds": seconds,
            }
            results = [result for _, _, _, result in raw[label]]
            names = results[0]["metrics"]
            traced = [result for _, _, _, result in traced_raw[label]]
            layers = {name: [result["metrics"][name]["value"] for result in traced]
                      for name in traced[0]["metrics"]}
            docs[label]["workloads"][workload] = {
                "runs": [
                    {"seed": seed, "position": position, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]}
                    for seed, position, _, result in raw[label]
                ],
                "end_to_end": {
                    name: {"unit": names[name]["unit"],
                           **summary([r["metrics"][name]["value"] for r in results])}
                    for name in names
                },
                "per_layer": {
                    "seeds": [record["seed"] for _, _, record, _ in traced_raw[label]],
                    "correct": all(result["correct"] for result in traced),
                    "traced_runs": len(traced),
                    "metrics": {
                        name: {**metric, "value": statistics.median(layers[name]), "values": layers[name]}
                        for name, metric in traced[0]["metrics"].items()
                    },
                },
            }
    return docs


def spread(metric: dict) -> str:
    """A traced metric's min-max over its runs, or - if its file keeps
    only the median."""
    values = metric.get("values")
    return f"{min(values):.4g}-{max(values):.4g}" if values else "-"


def compare(old: dict, new: dict, bench: dict) -> int:
    """Print the deltas of new against old; 1 if a metric worsens beyond its bound."""
    spec = {metric["name"]: metric for metric in bench["end_to_end"]}
    worse = 0
    print(f"{old['label']} -> {new['label']}")
    old_env, new_env = old.get("run_record", {}), new.get("run_record", {})
    for key in (*ENVIRONMENT, "seconds"):
        if old_env.get(key) != new_env.get(key):
            print(f"  {key} {old_env.get(key)} -> {new_env.get(key)}")
    shas = [doc.get("tree", {}).get("src_sha256") for doc in (old, new)]
    if None not in shas:
        print(f"  src_sha256 {'equal' if shas[0] == shas[1] else 'differs'}")
    lines = [doc.get("tree", {}).get("src_lines") for doc in (old, new)]
    if None not in lines:
        print(f"  src_lines {lines[0]} -> {lines[1]}")
    for workload, old_w in old["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<12} {'old':>12} {'new':>12} {'delta':>8} {'won':>6} {'old IQR':>10} "
              f"{'pair ratio [95% interval]':>27}")
        for name, metric in spec.items():
            a, b = old_w["end_to_end"].get(name), new_w["end_to_end"].get(name)
            if a is None or b is None:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            old_by_seed = dict(zip((r["seed"] for r in old_w["runs"]), a["values"]))
            pairs = [(old_by_seed[r["seed"]], v)
                     for r, v in zip(new_w["runs"], b["values"]) if r["seed"] in old_by_seed]
            won = sum(sign * (y - x) < 0 for x, y in pairs)
            iqr = a["q3"] - a["q1"]
            interval = "-"
            if pairs and all(x for x, _ in pairs):
                interval = "{:.3f} [{:.3f}, {:.3f}]".format(*ratio_interval(pairs))
            flag = ""
            if sign * change > metric["bound"]:
                flag, worse = "  WORSE", worse + 1
            elif pairs and won >= 0.9 * len(pairs) and sign * (b["median"] - a["median"]) < -iqr:
                flag = "  GAIN"
            print(f"  {name:<12} {a['median']:>12.6g} {b['median']:>12.6g} {change:>+8.1%} "
                  f"{won:>3}/{len(pairs):<2} {iqr:>10.3g} {interval:>27}{flag}")
        old_layers = old_w["per_layer"]["metrics"]
        new_layers = new_w["per_layer"]["metrics"]
        counts = [w["per_layer"].get("traced_runs", 1) for w in (old_w, new_w)]
        print("  traced per-layer, medians ({} old and {} new traced runs):".format(*counts))
        for name, a in old_layers.items():
            b = new_layers.get(name)
            if b is None:
                continue
            change = f"{(b['value'] - a['value']) / a['value']:+8.1%}" if a["value"] else ""
            line = f"    {name:<44} {a['value']:>12.6g} {b['value']:>12.6g} {change}"
            if "values" in a or "values" in b:
                line += f"{'' if change else ' ' * 8}  old {spread(a)}  new {spread(b)}"
            print(line)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a checkout to measure; give one or more")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(old, new, bench)
    if not args.tree:
        parser.error("give --tree LABEL=PATH at least once, or --compare OLD NEW")
    trees = {}
    for item in args.tree:
        label, sep, path = item.partition("=")
        if not sep or not label or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--tree expects LABEL=PATH of a checkout with perfbench/, got {item!r}")
        trees[label] = Path(path).resolve()
    docs = measure(trees, RUNS, bench["run_seconds"])
    for label, doc in docs.items():
        path = Path(f"BENCH_{label}.json")
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
