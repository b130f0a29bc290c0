"""`tools/bench.py --compare` on small hand-made BENCH documents."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def document(label, wall_s, seeds=None):
    """A BENCH document of one workload whose `wall_s` runs read `wall_s`."""
    seeds = seeds or range(1, len(wall_s) + 1)
    return {
        "label": label,
        "workloads": {
            "classical-analysis": {
                "runs": [{"seed": seed} for seed in seeds],
                "end_to_end": {"wall_s": {"unit": "s", **bench.summary(wall_s)}},
                "per_layer": {"metrics": {}, "traced_runs": 3},
            }
        },
    }


def compared(capsys, old, new):
    code = bench.compare(old, new, BENCHMARK)
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "wall_s" in line]
    return code, line


def test_worse_past_the_bound_exits_1(capsys):
    code, line = compared(capsys, document("old", [1.0] * 5), document("new", [1.3] * 5))
    assert code == 1
    assert line.endswith("WORSE")


def test_gain_at_nine_of_ten_pairs_beyond_the_old_iqr(capsys):
    old = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # Nine runs are 10% faster than their pair, one is slower.
    new = [0.9 * x for x in old[:9]] + [1.2]
    code, line = compared(capsys, document("old", old), document("new", new))
    assert code == 0
    assert " 9/10" in line and line.endswith("GAIN")


def test_eight_of_ten_pairs_are_no_gain(capsys):
    old = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    new = [0.9 * x for x in old[:8]] + [1.2, 1.2]
    code, line = compared(capsys, document("old", old), document("new", new))
    assert code == 0
    assert " 8/10" in line and not line.endswith("GAIN")


@pytest.mark.parametrize("seeds", [range(1, 6), range(6, 11)])
def test_no_gain_without_same_seed_pairs(capsys, seeds):
    old = document("old", [1.0, 1.0, 1.0, 1.0, 1.0])
    new = document("new", [0.5] * 5, seeds=seeds)
    code, line = compared(capsys, old, new)
    assert code == 0
    paired = seeds == range(1, 6)
    assert line.endswith("GAIN") == paired
    assert (" 5/5" if paired else " 0/0") in line


def interval(line):
    """(ratio, low, high) printed on a metric's line."""
    ratio, rest = line.split("[")
    low, high = rest.split("]")[0].split(",")
    return float(ratio.split()[-1]), float(low), float(high)


WALL = [1.00, 1.04, 0.97, 1.10, 1.02, 0.99, 1.06, 1.01, 0.95, 1.08]


def test_identical_files_give_an_interval_around_one(capsys):
    code, line = compared(capsys, document("old", WALL), document("new", WALL))
    assert code == 0
    ratio, low, high = interval(line)
    assert ratio == 1.0 and low <= 1.0 <= high


def test_uniform_ten_percent_shift_excludes_one(capsys):
    old = document("old", WALL)
    # Each pair's ratio is 0.9 give or take 2%.
    new = document("new", [0.9 * x * (1 + 0.02 * (i % 3 - 1)) for i, x in enumerate(WALL)])
    _, line = compared(capsys, old, new)
    ratio, low, high = interval(line)
    assert low <= ratio <= high < 1.0
    assert ratio == pytest.approx(0.9, abs=0.02)


def test_interval_is_deterministic(capsys):
    old = document("old", WALL)
    new = document("new", [x * (0.9 + 0.05 * (i % 4)) for i, x in enumerate(WALL)])
    lines = [compared(capsys, old, new)[1] for _ in range(2)]
    assert lines[0] == lines[1]
    low, high = interval(lines[0])[1:]
    assert low < high


def test_no_interval_without_same_seed_pairs(capsys):
    old = document("old", WALL[:5])
    new = document("new", WALL[:5], seeds=range(6, 11))
    _, line = compared(capsys, old, new)
    assert "[" not in line and line.split()[-1] == "-"


def test_header_lists_the_environment_fields_that_differ(capsys):
    record = {"nproc": 2, "cpus_usable": 2, "python": "3.11.7", "numpy": "2.4.6",
              "scipy": "1.17.1", "thread_env": {"OMP_NUM_THREADS": "1"}, "seconds": 30}
    old, new = document("old", WALL[:5]), document("new", WALL[:5])
    old["run_record"], new["run_record"] = record, {**record, "cpus_usable": 1}
    old["tree"], new["tree"] = {"src_sha256": "ab"}, {"src_sha256": "ab"}
    assert bench.compare(old, new, BENCHMARK) == 0
    header = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert header == ["old -> new", "  cpus_usable 2 -> 1", "  src_sha256 equal"]
    new["tree"] = {"src_sha256": "cd"}
    bench.compare(old, new, BENCHMARK)
    assert "  src_sha256 differs" in capsys.readouterr().out.splitlines()



def test_header_prints_src_lines_only_when_both_files_count_them(capsys, tmp_path):
    # A tree's count is the line count of the src/ files its digest reads.
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    assert bench.tree_identity(tmp_path)["src_lines"] == 3
    old, new = document("old", WALL[:5]), document("new", WALL[:5])
    old["tree"], new["tree"] = {"src_sha256": "ab"}, {"src_sha256": "cd", "src_lines": 1201}
    assert bench.compare(old, new, BENCHMARK) == 0
    header = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert header == ["old -> new", "  src_sha256 differs"]
    old["tree"]["src_lines"] = 1251
    bench.compare(old, new, BENCHMARK)
    header = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert header == ["old -> new", "  src_sha256 differs", "  src_lines 1251 -> 1201"]

LAYER = "simulator.hadamard.busy_s"


def with_layer(doc, value, values=None):
    """`doc` with one traced per-layer metric, its runs' values kept if given."""
    metric = {"unit": "s", "value": value}
    if values is not None:
        metric["values"] = values
    doc["workloads"]["classical-analysis"]["per_layer"]["metrics"][LAYER] = metric
    return doc


def layer_line(capsys, old, new):
    assert bench.compare(old, new, BENCHMARK) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if LAYER in line]
    return line


def test_per_layer_line_prints_each_sides_range(capsys):
    old = with_layer(document("old", WALL[:5]), 0.02, [0.03, 0.02, 0.01])
    new = with_layer(document("new", WALL[:5]), 0.015, [0.015, 0.0125, 0.02])
    line = layer_line(capsys, old, new)
    assert line.split()[1:4] == ["0.02", "0.015", "-25.0%"]
    assert line.endswith("  old 0.01-0.03  new 0.0125-0.02")


def test_per_layer_line_without_values_prints_as_before(capsys):
    old = with_layer(document("old", WALL[:5]), 0.02)
    new = with_layer(document("new", WALL[:5]), 0.015)
    assert layer_line(capsys, old, new) == f"    {LAYER:<44} {0.02:>12.6g} {0.015:>12.6g} {-0.25:+8.1%}"
    # A file that keeps only the median shows - beside one that keeps values.
    new = with_layer(document("new", WALL[:5]), 0.015, [0.015, 0.014, 0.016])
    assert layer_line(capsys, old, new).endswith("  old -  new 0.014-0.016")


def test_measure_keeps_each_traced_runs_values(monkeypatch):
    # Stand-in runs: a traced run's layer value is its seed, so the three
    # traced runs give 1, 2 and 3, median 2.
    def fake_run(path, workload, seed, seconds, trace):
        environment = {key: None for key in bench.ENVIRONMENT}
        record = {"worker": {"environment": environment}, "measurement": {}, "seed": seed}
        metrics = {LAYER: {"unit": "s", "value": float(seed)}} if trace else {
            "wall_s": {"unit": "s", "value": 1.0}}
        return record, {"metrics": metrics, "correct": True, "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    docs = bench.measure({"a": ROOT, "b": ROOT}, {"dense-23q": 1}, 1)
    for doc in docs.values():
        layer = doc["workloads"]["dense-23q"]["per_layer"]["metrics"][LAYER]
        assert layer == {"unit": "s", "value": 2.0, "values": [1.0, 2.0, 3.0]}
