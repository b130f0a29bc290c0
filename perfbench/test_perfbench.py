"""Tests of the benchmark itself: generators, checks and the span recorder.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import spans
import workloads
from multikey_bv import cli


def _shape(op):
    """What an op costs, without its key values and seeds."""
    keys = op.keys
    return (op.kind, op.argv[0], len(keys), len(keys[0]) if keys else 0,
            len(set(keys)), tuple(sorted(op.params.items(), key=str)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_keys_not_work(workload):
    one, again, other = (workloads.generate(workload, s) for s in (1, 1, 2))
    assert one == again
    assert [_shape(op) for op in one] == [_shape(op) for op in other]
    assert [op.keys for op in one] != [op.keys for op in other]


def test_small_circuits_cover_the_width_range():
    ops = workloads.generate("small-circuits", 1)
    widths = {len(op.keys[0]) + 1 + (len(op.keys) - 1).bit_length() for op in ops}
    assert widths == set(range(3, 15))
    assert any(len(op.keys) == 3 for op in ops)  # k below a power of two
    assert any(len(set(op.keys)) < len(op.keys) for op in ops)


def test_family_constants_match_brute_force():
    for op in workloads.generate("classical-analysis", 3):
        family = op.params.get("family")
        if family:
            counts = checks._brute_force_multisets(checks._bit_sums(op.keys), 5, 5)
            assert counts == (checks.FAMILIES[family]["multisets"], checks.FAMILIES[family]["distinct"])


def test_grid_digests_match_stirling_route():
    cells = {}
    for ks, ms in (((2, 3), (4,)), (range(296, 301), range(1690, 1701))):
        cells.update(checks.recovery_rationals(list(ks), list(ms)))
    assert set(cells) == set(checks.GRID_DIGESTS)
    for cell, frac in cells.items():
        assert checks.GRID_DIGESTS[cell] == checks.digest(str(frac.numerator), str(frac.denominator))


def test_recovery_rationals_small_closed_form():
    # two keys: 1 - 2^(1-m); k > m: impossible
    got = checks.recovery_rationals([1, 2, 3], [2, 5])
    assert got[2, 5] == 1 - checks.Fraction(1, 16)
    assert got[3, 2] == 0
    assert got[1, 2] == 1


def _output(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("op", workloads.PROBE, ids=lambda op: op.kind)
def test_checks_accept_correct_outputs(op):
    assert checks.check(op, _output(op)) is None


def _tamper(text, edit):
    record = json.loads(text)
    edit(record["results"])
    return json.dumps(record)


def _first_row(res, table, field, value):
    res[table][0][field] = value


TAMPERS = {
    "simulate": lambda r: _first_row(r, "distribution", "probability", 0.5),
    "sample": lambda r: _first_row(r, "histogram", "count", 0),
    "analyze-keys": lambda r: r["key_analysis"]["multisets"].pop(),
    "analyze-grid": lambda r: r["recovery_grid"][0]["rational"].update(num="1"),
    "adversary": lambda r: r["reports"][2].update(success_probability=0.5),
}


@pytest.mark.parametrize("op", workloads.PROBE, ids=lambda op: op.kind)
def test_checks_reject_wrong_outputs(op):
    text = _tamper(_output(op), TAMPERS[op.kind])
    assert checks.check(op, text) is not None
    assert checks.check(op, "not json") is not None


def _traced_counters(ops):
    tracer = spans.Tracer()
    with tracer.installed():
        for op in ops:
            _output(op)
    metrics = spans.layer_metrics(tracer, output_bytes=0)
    return tracer, {name: metrics[name][0] for name in spans.COMPUTED_COUNTERS}


def test_computed_counters_repeat_exactly():
    ops = workloads.PROBE + tuple(workloads.generate("small-circuits", 5)[:40])
    first_tracer, first = _traced_counters(ops)
    _, second = _traced_counters(ops)
    assert first == second
    assert all(value > 0 for value in first.values())
    assert {span[0] for span in first_tracer.spans} == set(spans.SPANS)


def test_tracer_restores_every_binding():
    from multikey_bv import adversary, simulator
    from multikey_bv.keyspace import KeySet

    before = (simulator.run_circuit, adversary.run_circuit, cli.main,
              simulator.StateVector.apply_hadamard, KeySet.__dict__["from_strings"])
    tracer = spans.Tracer()
    with tracer.installed():
        assert adversary.run_circuit is simulator.run_circuit is not before[0]
    after = (simulator.run_circuit, adversary.run_circuit, cli.main,
             simulator.StateVector.apply_hadamard, KeySet.__dict__["from_strings"])
    assert after == before


def test_self_time_subtracts_direct_children():
    span_list = [
        ["cli.main", -1, 0.0, 10.0],
        ["simulator.run_circuit", 0, 1.0, 7.0],
        ["simulator.hadamard", 1, 2.0, 5.0],
        ["simulator.build_circuit", 0, 8.0, 9.0],
    ]
    assert spans._self(span_list, "cli.main") == pytest.approx(3.0)
    assert spans._self(span_list, "simulator.run_circuit") == pytest.approx(3.0)
    assert spans._busy(span_list, {"simulator.run_circuit", "simulator.hadamard"}) == pytest.approx(6.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    per_layer = set(spans.layer_metrics(tracer, output_bytes=0)) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "ok_ratio",
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
