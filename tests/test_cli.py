"""CLI commands: record structure, formats, exit codes, determinism."""

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import multikey_bv
from multikey_bv import KeySet, adversary, analytics, cli, prob_all_keys, run_circuit
from multikey_bv.cli import EXIT_CAPACITY, EXIT_INPUT, EXIT_OK, main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    return json.loads(out)


class TestSimulate:
    def test_two_keys(self, capsys):
        record = run_json(
            capsys, "simulate", "--keys", "011,101", "--seed", "1"
        )
        assert record["schema"] == "multikey-bv/run.v1"
        assert record["seed"] == 1
        assert record["config"]["keys"] == ["011", "101"]
        dist = {
            row["outcome"]: row["probability"]
            for row in record["results"]["distribution"]
        }
        assert dist == pytest.approx({"011": 0.5, "101": 0.5}, abs=1e-10)

    def test_four_keys(self, capsys):
        record = run_json(
            capsys, "simulate", "--keys", "001,010,011,101", "--seed", "1"
        )
        dist = {
            row["outcome"]: row["probability"]
            for row in record["results"]["distribution"]
        }
        assert dist == pytest.approx(dict.fromkeys(dist, 0.25), abs=1e-10)

    def test_single_key(self, capsys):
        record = run_json(capsys, "simulate", "--keys", "110", "--seed", "1")
        rows = record["results"]["distribution"]
        assert len(rows) == 1
        assert rows[0]["outcome"] == "110"
        assert rows[0]["probability"] == pytest.approx(1.0, abs=1e-10)

    def test_state_dump(self, capsys):
        record = run_json(
            capsys, "simulate", "--keys", "01,10", "--seed", "1", "--dump-state"
        )
        amps = record["results"]["statevector"]["amplitudes"]
        assert amps, "expected nonzero amplitudes"

    def test_state_dump_beyond_twelve_qubits(self, capsys):
        keys = ",".join(["0" * 11 + "1"] * 2)
        record = run_json(
            capsys, "simulate", "--keys", keys, "--seed", "1", "--dump-state"
        )
        assert record["results"]["total_qubits"] == 14
        assert len(record["results"]["statevector"]["amplitudes"]) == 4

    def test_state_dump_lists_the_final_state(self, capsys):
        # k^(-1/2) sum_i |i>|->|s_i>: one amplitude per (control i,
        # target t), at data s_i, in ascending basis order.
        values = random.Random(14).sample(range(1 << 14), 4)
        texts = [format(v, "014b") for v in values + values[1:2]]
        k = len(texts)
        amp = 1 / np.sqrt(2 * k)
        expected = [
            (format(i, "03b") + t + s, amp if t == "0" else -amp)
            for i, s in enumerate(texts)
            for t in "01"
        ]
        dumps = {}
        for path in ("gate", "fast"):
            record = run_json(
                capsys, "simulate", "--keys", ",".join(texts), "--seed", "1",
                "--dump-state", "--oracle-path", path,
            )
            assert record["results"]["total_qubits"] == 18
            dumps[path] = record["results"]["statevector"]["amplitudes"]
        for amps in dumps.values():
            assert [a["basis"] for a in amps] == [b for b, _ in expected]
            assert all(a["im"] == 0.0 for a in amps)
        assert [a["re"] for a in dumps["fast"]] == [v for _, v in expected]
        assert [a["re"] for a in dumps["gate"]] == pytest.approx(
            [v for _, v in expected], abs=1e-10, rel=0
        )

    def test_state_dump_through_the_live_map_keeps_its_bytes(self, capsys, monkeypatch):
        # An 18-qubit gate-path state lists only its live chunks, those
        # its gates marked; a state rebuilt from a copy of its final
        # amplitudes, whose map comes from one scan of every amplitude,
        # prints the same record, wall time aside.
        keys = ",".join(format(v, "014b") for v in random.Random(18).sample(range(1 << 14), 6))
        argv = ("simulate", "--keys", keys, "--seed", "1", "--dump-state")
        outputs = [run(capsys, *argv)[1]]

        def rebuilt(keys, oracle_path):
            state = run_circuit(keys, oracle_path)
            return multikey_bv.simulator.StateVector(state.n, state.r, state.amps.copy())

        monkeypatch.setattr(cli, "run_circuit", rebuilt)
        outputs.append(run(capsys, *argv)[1])
        assert _WALL_TIME.sub("", outputs[0]) == _WALL_TIME.sub("", outputs[1])
        record = json.loads(outputs[0])
        assert record["results"]["total_qubits"] == 18
        assert len(record["results"]["statevector"]["amplitudes"]) == 12

    @pytest.mark.parametrize("path", ["gate"])
    def test_state_dump_refused_beyond_qubit_cap(self, capsys, path):
        # A 32-qubit state would take 32 GiB; it is refused before any
        # amplitude is allocated.
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "simulate", "--keys", "0" * 30 + "1", "--seed", "1",
                "--dump-state", "--oracle-path", path,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAPACITY
        assert out == ""
        assert (
            "circuit needs 32 qubits (31 data + 1 target + 0 control), cap is 24"
            in err
        )
        assert peak < 2**20

    def test_fast_state_dump_answered_beyond_qubit_cap(self, capsys):
        # The fast path lists the closed form's 2k amplitudes without
        # allocating the 32-qubit state.
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "simulate", "--keys", "0" * 30 + "1", "--seed", "1",
                "--dump-state", "--oracle-path", "fast",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, err
        amps = json.loads(out)["results"]["statevector"]["amplitudes"]
        assert [a["basis"] for a in amps] == ["0" + "0" * 30 + "1", "1" + "0" * 30 + "1"]
        assert [a["re"] for a in amps] == [1 / np.sqrt(2), -1 / np.sqrt(2)]
        assert peak < 2**20

    def test_fast_state_dump_at_qubit_cap_allocates_no_state(self, capsys):
        # n=20, k=8: 24 qubits, a 128 MiB dense state.
        keys = KeySet.from_strings(
            format(v, "020b") for v in random.Random(24).sample(range(1 << 20), 8)
        )
        argv = [
            "simulate", "--keys", ",".join(keys.strings()), "--seed", "1",
            "--dump-state", "--oracle-path", "fast",
        ]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, err
        assert peak < 2**20
        amps = json.loads(out)["results"]["statevector"]["amplitudes"]
        dense = run_circuit(keys, oracle_path="fast").to_statevector().amps
        nonzero = np.flatnonzero(dense)
        assert [int(a["basis"], 2) for a in amps] == nonzero.tolist()
        assert [a["re"] for a in amps] == dense[nonzero].tolist()
        assert all(a["im"] == 0.0 for a in amps)

    def test_n_mismatch_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--keys", "011,101", "--n", "4", "--seed", "1"
        )
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_bad_key_string(self, capsys):
        code, _, _ = run(capsys, "simulate", "--keys", "01a", "--seed", "1")
        assert code == EXIT_INPUT

    def test_qubit_capacity(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--keys", "0" * 30 + "1", "--seed", "1"
        )
        assert code == EXIT_CAPACITY
        assert "qubits" in err


@pytest.fixture(scope="module")
def wide_keys() -> str:
    """10^4 distinct seeded 64-bit keys: a 79-qubit circuit."""
    values = np.random.default_rng(64).integers(
        1 << 64, size=10_000, dtype=np.uint64
    ).tolist()
    assert len(set(values)) == 10_000
    return ",".join(format(v, "064b") for v in values)


class TestBeyondQubitCap:
    @pytest.mark.parametrize("command", ["simulate", "sample"])
    def test_fast_path_answers_in_bounded_memory(self, capsys, wide_keys, command):
        # A small run first, so that module imports (scipy for the
        # chi-square) are not traced.
        run(capsys, command, "--keys", "01,10", "--seed", "1", "--oracle-path", "fast")
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, command, "--keys", wide_keys, "--seed", "1",
                "--oracle-path", "fast",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, err
        assert peak < 32 * 2**20
        results = json.loads(out)["results"]
        if command == "simulate":
            assert results["total_qubits"] == 79
            rows = results["distribution"]
            assert [row["outcome"] for row in rows] == sorted(wide_keys.split(","))
            assert all(row["probability"] == pytest.approx(1e-4) for row in rows)
        else:
            assert sum(row["count"] for row in results["histogram"]) == 1024
            assert results["chi_square"]["dof"] == 9_999

    @pytest.mark.parametrize("command", ["simulate", "sample"])
    def test_gate_path_refused(self, capsys, wide_keys, command):
        code, _, err = run(capsys, command, "--keys", wide_keys, "--seed", "1")
        assert code == EXIT_CAPACITY
        assert (
            "circuit needs 79 qubits (64 data + 1 target + 14 control), cap is 24"
            in err
        )

    def test_fast_state_dump_lists_every_amplitude(self, capsys, wide_keys):
        # The 2k = 20,000 amplitudes come from the closed form.
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "simulate", "--keys", wide_keys, "--seed", "7",
                "--oracle-path", "fast", "--dump-state",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, err
        assert peak < 64 * 2**20
        amps = json.loads(out)["results"]["statevector"]["amplitudes"]
        assert len(amps) == 20_000 and all(len(a["basis"]) == 79 for a in amps)

    def test_key_set_layer(self, capsys, wide_keys):
        # Values plus one bit matrix: the profile matches the per-key
        # count, the multiplicity lists the values in first-occurrence
        # order once each, the bit-sum estimate charges n * 1024 queries,
        # and analyze refuses k > 4096 once the keys are parsed.
        texts = wide_keys.split(",")
        values = [int(t, 2) for t in texts]
        tracemalloc.start()
        try:
            keys = KeySet.from_strings(texts)
            profile = multikey_bv.bit_sum_profile(keys)
            mult = multikey_bv.multiplicity(keys)
            oracle = multikey_bv.ClassicalOracle(keys, np.random.default_rng(7))
            multikey_bv.estimate_bit_sums(oracle, 1024)
            code, _, err = run(capsys, "analyze", "--keys", wide_keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert profile == tuple(sum(v >> q & 1 for v in values) for q in range(64))
        assert mult.distinct == tuple(values) and set(mult.counts) == {1}
        assert oracle.queries == 65_536
        assert code == EXIT_CAPACITY and "at most 4096 keys" in err


class TestSample:
    def test_histogram_record(self, capsys):
        record = run_json(
            capsys, "sample", "--keys", "011,101", "--shots", "1024", "--seed", "9"
        )
        hist = record["results"]["histogram"]
        assert sum(row["count"] for row in hist) == 1024
        assert record["results"]["chi_square"]["p_value"] > 0.001
        for row in hist:
            assert abs(row["probability"] - 0.5) < 0.1

    def test_single_shot_notice(self, capsys):
        record = run_json(
            capsys, "sample", "--keys", "011,101", "--shots", "1", "--seed", "9"
        )
        assert record["results"]["chi_square"] is None
        assert "chi-square omitted" in record["results"]["notice"]

    def test_degenerate_keys(self, capsys):
        record = run_json(
            capsys,
            "sample",
            "--keys",
            "010,011,011,101",
            "--shots",
            "1024",
            "--seed",
            "5",
        )
        rows = {r["outcome"]: r for r in record["results"]["histogram"]}
        assert rows["011"]["exact_probability"] == pytest.approx(0.5, abs=1e-9)

    def test_serialization_records(self, capsys):
        record = run_json(
            capsys, "sample", "--keys", "101,011", "--shots", "64", "--seed", "5"
        )
        rows = record["results"]["histogram"]
        assert [r["outcome"] for r in rows] == ["011", "101"]
        for row in rows:
            assert set(row) == {"outcome", "count", "probability", "exact_probability"}

    def test_exact_outcome_never_drawn_reports_zero(self, capsys):
        record = run_json(
            capsys, "sample", "--keys", "01,10", "--shots", "1", "--seed", "1"
        )
        rows = record["results"]["histogram"]
        assert [r["outcome"] for r in rows] == ["01", "10"]
        assert sorted((r["count"], r["probability"]) for r in rows) == [(0, 0.0), (1, 1.0)]
        assert [r["exact_probability"] for r in rows] == pytest.approx([0.5, 0.5])

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "--keys", "011,101",
            "--shots", "64",
            "--seed", "9",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "outcome,count,probability,exact_probability"
        assert len(lines) == 3

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "--keys", "011,101",
            "--shots", "64",
            "--seed", "9",
            "--format", "text",
        )
        assert code == EXIT_OK
        assert "chi-square" in out
        assert "outcome" in out

    def test_zero_shots_refused_before_simulating(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_circuit called")

        monkeypatch.setattr(cli, "run_circuit", fail)
        for path in ("gate", "fast"):
            code, _, err = run(
                capsys, "sample", "--keys", ",".join(["1" * 19] * 6), "--seed", "1",
                "--shots", "0", "--oracle-path", path,
            )
            assert code == EXIT_INPUT
            assert "shots must be >= 1, got 0" in err


def test_sample_does_not_import_scipy_stats():
    # The chi-square p-value needs only scipy.special, which imports in
    # a fraction of the time scipy.stats takes.
    script = (
        "import contextlib, io, json, sys\n"
        "from multikey_bv import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(['sample', '--keys', '011,101', '--seed', '1'])\n"
        "assert code == 0, code\n"
        "assert json.loads(buf.getvalue())['results']['chi_square'] is not None\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    assert_runs_fresh(script)


def test_toy_runs_import_no_thread_pool():
    # Only a coupon draw of 4 blocks or more splits across threads, on
    # the standard library's thread pool; a toy CLI run loads no pool module.
    script = (
        "import contextlib, io, sys, threading\n"
        "pools = {'concurrent.futures.thread', 'concurrent.futures.process',\n"
        "         'multiprocessing.pool', 'multiprocessing.dummy'}\n"
        "before = pools & set(sys.modules)\n"
        "from multikey_bv import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for path in ('gate', 'fast'):\n"
        "        for command in ('simulate', 'sample'):\n"
        "            code = cli.main([command, '--keys', '011,101,101', '--seed', '1',\n"
        "                             '--oracle-path', path])\n"
        "            assert code == 0, code\n"
        "new = (pools & set(sys.modules)) - before\n"
        "assert not new, f'thread-pool modules imported: {sorted(new)}'\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    assert_runs_fresh(script)


def test_one_cpu_coupon_draw_starts_no_thread():
    # 10^5 trials of 12 draws are 19 blocks, enough to split, but one
    # usable CPU makes one share: no thread starts and no pool loads.
    script = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from multikey_bv import adversary, simulator\n"
        "from multikey_bv.keyspace import KeySet\n"
        "assert -(-10**5 // (simulator._SHOT_CHUNK // 12)) >= 4\n"
        "adversary._usable_cpus = lambda: 1\n"
        "def refuse(self):\n"
        "    raise AssertionError('a one-share draw started a thread')\n"
        "threading.Thread.start = refuse\n"
        "keys = KeySet.from_strings(['0001', '0011', '1011', '1110'])\n"
        "rate = adversary.quantum_coupon_experiment(keys, 12, 10**5, np.random.default_rng(7))\n"
        "assert 0.8 < rate < 0.95, rate\n"
        "assert 'concurrent.futures.thread' not in sys.modules, 'the thread pool was imported'\n"
    )
    assert_runs_fresh(script)


def test_toy_analysis_imports_no_masked_arrays():
    # The enumeration finds distinct rows and values by sorting and an
    # adjacent compare; np.unique would load numpy.ma, 7-10 ms of every
    # cold start.
    script = (
        "import contextlib, io, sys\n"
        "from multikey_bv import cli\n"
        "keys = ['--keys', '0001,0011,1011,1110', '--seed', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['analyze', '--enumerate'],\n"
        "                 ['adversary', '--m', '12', '--trials', '100', '--shots', '64']):\n"
        "        code = cli.main(argv + keys)\n"
        "        assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    assert_runs_fresh(script)


def assert_runs_fresh(script: str) -> None:
    """Run `script` in a new interpreter with this package on the path."""
    src = os.path.dirname(os.path.dirname(multikey_bv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestAnalyze:
    def test_profile_and_multiplicity_computed_once(self, capsys, monkeypatch):
        # Wrapped at every module binding, so a second computation
        # anywhere in the package is counted.
        calls = dict.fromkeys(("bit_sum_profile", "multiplicity"), 0)
        modules = [getattr(multikey_bv, m) for m in ("keyspace", "analytics", "adversary", "simulator", "cli")]
        for name in calls:
            original = getattr(multikey_bv.keyspace, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        record = run_json(capsys, "analyze", "--keys", "0001,0011,1011,1110")
        assert calls == {"bit_sum_profile": 1, "multiplicity": 1}
        assert record["results"]["key_analysis"]["guess_exact"]["rational"] == {"num": "1", "den": "16"}

    def test_grid(self, capsys):
        record = run_json(
            capsys, "analyze", "--k", "2", "--m", "2:6", "--seed", "1"
        )
        doubles = [row["double"] for row in record["results"]["recovery_grid"]]
        assert doubles == [0.5, 0.75, 0.875, 0.9375, 0.96875]

    def test_grid_zero_below_k(self, capsys):
        record = run_json(
            capsys, "analyze", "--k", "4", "--m", "1:3", "--seed", "1"
        )
        assert all(r["double"] == 0.0 for r in record["results"]["recovery_grid"])

    def test_key_analysis(self, capsys):
        record = run_json(
            capsys,
            "analyze",
            "--keys", "0001,0011,1011,1110",
            "--seed", "1",
            "--enumerate",
        )
        ka = record["results"]["key_analysis"]
        assert [row["ones"] for row in ka["bit_sums"]] == [3, 3, 1, 2]
        assert ka["ordered_count"] == 384
        assert ka["distinct_multiset_count"] == 12
        assert ka["guess_upper_bound"]["rational"] == {"num": "1", "den": "16"}
        assert ka["uniform_multiset_model"]["rational"] == {"num": "1", "den": "12"}
        assert ["0001", "0011", "1011", "1110"] in ka["multisets"]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_enumerate_builds_no_list_outside_json(self, capsys, monkeypatch, fmt):
        # CSV and text rows never print the multisets, so --enumerate
        # changes no byte of them and renders no key of the list.
        argv = ["analyze", "--keys", "0001,0011,1011,1110", "--seed", "7",
                "--format", fmt]
        code, plain, _ = run(capsys, *argv)
        assert code == EXIT_OK

        def no_list(self):
            raise AssertionError("the multiset list was built")

        if fmt == "csv":
            monkeypatch.setattr(analytics.ConsistencyCount, "key_values", no_list)
        code, listed, _ = run(capsys, *argv, "--enumerate")
        assert code == EXIT_OK
        assert listed == plain

    def test_grid_rationals_beyond_int_str_limit(self, capsys):
        # num and den have over 12k digits, past Python's default
        # 4300-digit int-to-str limit
        record = run_json(
            capsys, "analyze", "--k", "2000", "--m", "4096", "--seed", "1"
        )
        rational = record["results"]["recovery_grid"][0]["rational"]
        num, den = (int(Decimal(rational[f])) for f in ("num", "den"))
        assert Fraction(num, den) == prob_all_keys(2000, 4096)

    def test_requires_something(self, capsys):
        code, _, err = run(capsys, "analyze", "--seed", "1")
        assert code == EXIT_INPUT

    def test_work_bound_refusal(self, capsys):
        code, _, err = run(
            capsys,
            "analyze",
            "--keys", "00001111,01010101,00110011,11110000",
            "--work-bound", "10",
            "--seed", "1",
        )
        assert code == EXIT_CAPACITY

    def test_work_bound_one_answers_a_single_assignment(self, capsys):
        record = run_json(
            capsys, "analyze", "--keys", "01", "--work-bound", "1", "--seed", "1"
        )
        assert record["results"]["key_analysis"]["ordered_count"] == 1

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "analyze", "--k", "2", "--m", "x", "--seed", "1")
        assert code == EXIT_INPUT

    def test_huge_range_refused_without_building_it(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--k", "1:100000000000", "--m", "3", "--seed", "1"
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == (
            "capacity error: (m=3, k=4097) exceeds the supported "
            "exact-arithmetic range (both must be <= 4096)\n"
        )

    def test_grid_refused_before_any_cell(self, capsys, monkeypatch):
        # k=4090..4096 are valid cells; the whole grid is still refused
        # with the first invalid cell's error before any cell is computed
        def no_cells(ks, ms):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(analytics, "_surjection_grid", no_cells)
        code, out, err = run(
            capsys, "analyze", "--k", "4090:4097", "--m", "4096", "--seed", "1"
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == (
            "capacity error: (m=4096, k=4097) exceeds the supported "
            "exact-arithmetic range (both must be <= 4096)\n"
        )


# Key sets whose ordered assignment count prod_q C(k, r_q) has thousands
# of digits: about 5,700, about 14,800 and 1,506.
HUGE_COUNT_KEYS = {
    "600-random-32-bit": ",".join(
        format(v, "032b") for v in random.Random(7).sample(range(1 << 32), 600)
    ),
    "all-4096-12-bit": ",".join(format(v, "012b") for v in range(4096)),
    "two-5000-bit": "1" * 5000 + "," + "0" * 5000,
}


@pytest.mark.parametrize("shape", sorted(HUGE_COUNT_KEYS))
@pytest.mark.parametrize(
    "command",
    [("analyze",), ("adversary", "--m", "4096", "--trials", "1", "--shots", "1")],
    ids=["analyze", "adversary"],
)
def test_huge_consistent_count_refused_in_one_line(capsys, command, shape):
    code, out, err = run(
        capsys, *command, "--keys", HUGE_COUNT_KEYS[shape], "--seed", "7"
    )
    assert code == EXIT_CAPACITY
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 200, err[:200]
    assert err.startswith("capacity error: enumeration needs about 10^")
    assert "work bound" in err


def test_key_analysis_above_exact_range_names_only_k(capsys):
    # Ordered count 1, so only the key-count limit refuses it.
    code, out, err = run(
        capsys, "analyze", "--keys", ",".join(["0000000000000"] * 5000),
        "--seed", "1",
    )
    assert code == EXIT_CAPACITY
    assert out == ""
    assert err == (
        "capacity error: key analysis supports at most 4096 keys, got k=5000\n"
    )


@pytest.mark.parametrize(
    "command",
    [("analyze",), ("adversary", "--oracle-path", "fast", "--trials", "10", "--shots", "10")],
    ids=["analyze", "adversary"],
)
def test_more_than_64_branching_positions_refused(capsys, monkeypatch, command):
    # Two complementary 65-bit keys branch at all 65 positions: 2^65
    # ordered assignments, within this work bound, but one more bit than
    # a table value holds.
    def fail(*args, **kwargs):
        raise AssertionError("work was done before the refusal")

    monkeypatch.setattr(adversary, "estimate_bit_sums", fail)
    monkeypatch.setattr(analytics, "_next_level", fail)
    code, out, err = run(
        capsys, *command, "--keys", "0" * 65 + "," + "1" * 65,
        "--work-bound", str(2**65), "--seed", "1",
    )
    assert code == EXIT_CAPACITY
    assert out == ""
    assert err == (
        "capacity error: enumeration supports at most 64 branching "
        "positions (0 < ones < k), got 65\n"
    )


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [("analyze",), ("adversary", "--trials", "10", "--shots", "10")],
    ids=["analyze", "adversary"],
)
def test_work_bound_below_one_is_input_error(capsys, command, bound):
    code, out, err = run(
        capsys, *command, "--keys", "01,10", "--work-bound", bound, "--seed", "1"
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: work bound must be >= 1, got {bound}\n"


class TestAdversary:
    def test_multi_key_comparison(self, capsys):
        record = run_json(
            capsys,
            "adversary",
            "--keys", "0001,0011,1011,1110",
            "--m", "24",
            "--trials", "2000",
            "--shots", "500",
            "--seed", "21",
        )
        strategies = [r["strategy"] for r in record["results"]["reports"]]
        assert "bit-sum-profile-estimation" in strategies
        assert "uniform-guess-among-consistent-multisets" in strategies
        assert "quantum-repeated-measurement" in strategies
        comp = record["results"]["comparison"]
        assert comp["quantum_success"] > 0.95
        assert comp["classical_success"] < 0.2
        for rep in record["results"]["reports"]:
            assert rep["assumes_k_known"] is True

    @pytest.mark.parametrize(
        "m,code,message",
        [
            ("5000", EXIT_CAPACITY, "(m=5000, k=2)"),
            ("300000000", EXIT_CAPACITY, "(m=300000000, k=2)"),
            ("-1", EXIT_INPUT, "m must be >= 0"),
        ],
    )
    def test_bad_m_refused_before_any_strategy(
        self, capsys, monkeypatch, m, code, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a strategy ran")

        monkeypatch.setattr(adversary, "run_circuit", fail)
        monkeypatch.setattr(adversary, "estimate_bit_sums", fail)
        monkeypatch.setattr(adversary, "count_consistent_keysets", fail)
        result, _, err = run(
            capsys, "adversary", "--keys", "01,10", "--m", m, "--trials", "1",
            "--seed", "1",
        )
        assert result == code
        assert message in err

    @pytest.mark.parametrize(
        "keys,flags,code,message",
        [
            ("0110101001,0110101001,0110101001,1110000001", (), EXIT_INPUT,
             "coupon experiment assumes k equiprobable distinct keys"),
            ("01,10", ("--trials", "0"), EXIT_INPUT, "trials must be >= 1, got 0"),
            ("01", ("--trials", "-3"), EXIT_INPUT, "trials must be >= 1, got -3"),
            ("01,10", ("--shots", "0"), EXIT_INPUT, "shots must be >= 1, got 0"),
        ],
        ids=["duplicates", "trials", "trials-single-key", "shots"],
    )
    def test_refused_before_any_strategy_works(
        self, capsys, monkeypatch, keys, flags, code, message
    ):
        # --shots 10^9 would make the bit-sum estimate run for minutes
        def fail(*args, **kwargs):
            raise AssertionError("a strategy did its work")

        monkeypatch.setattr(adversary, "estimate_bit_sums", fail)
        monkeypatch.setattr(adversary, "run_circuit", fail)
        monkeypatch.setattr(adversary, "count_consistent_keysets", fail)
        monkeypatch.setattr(cli, "run_single_key_baseline", fail)
        argv = ["adversary", "--keys", keys, "--shots", "1000000000", "--seed", "7"]
        result, out, err = run(capsys, *argv, *flags)
        assert result == code
        assert out == ""
        assert message in err

    def test_work_bound_refused_before_any_strategy_works(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a strategy did its work")

        monkeypatch.setattr(adversary, "estimate_bit_sums", fail)
        monkeypatch.setattr(adversary, "run_circuit", fail)
        keys = ",".join(
            format(v, "020b") for v in random.Random(7).sample(range(1 << 20), 8)
        )
        code, out, err = run(
            capsys, "adversary", "--keys", keys, "--shots", "1000000000",
            "--seed", "7",
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err.startswith("capacity error: enumeration needs ")
        assert err.endswith("ordered assignments, work bound is 10000000\n")

    def test_gate_path_above_qubit_cap_refused_before_any_strategy(
        self, capsys, monkeypatch
    ):
        # Two 23-bit keys need 25 qubits; the guess attack alone would
        # enumerate 2^22 multisets before the coupon experiment refused.
        def fail(*args, **kwargs):
            raise AssertionError("a strategy did its work")

        monkeypatch.setattr(adversary, "estimate_bit_sums", fail)
        monkeypatch.setattr(adversary, "count_consistent_keysets", fail)
        code, out, err = run(
            capsys, "adversary", "--keys", f"{'0' * 23},{'1' * 23}",
            "--trials", "10", "--seed", "7",
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == (
            "capacity error: circuit needs 25 qubits "
            "(23 data + 1 target + 1 control), cap is 24\n"
        )

    @pytest.mark.parametrize("keys,strategies", [("011,101", 3), ("011", 2)])
    def test_wall_times_lie_within_the_call(self, capsys, keys, strategies):
        t0 = time.perf_counter()
        record = run_json(
            capsys, "adversary", "--keys", keys, "--trials", "100",
            "--shots", "16", "--seed", "1",
        )
        elapsed = time.perf_counter() - t0
        reports = record["results"]["reports"]
        assert len(reports) == strategies
        for wall_time in [record["wall_time_s"]] + [r["wall_time_s"] for r in reports]:
            assert 0 <= wall_time <= elapsed

    def test_single_key_ignores_shots(self, capsys):
        code, _, _ = run(
            capsys, "adversary", "--keys", "01", "--shots", "0", "--trials", "10",
            "--seed", "7",
        )
        assert code == EXIT_OK

    def test_single_key_both_certain(self, capsys):
        record = run_json(
            capsys,
            "adversary",
            "--keys", "101",
            "--trials", "100",
            "--seed", "3",
        )
        reports = record["results"]["reports"]
        assert reports[0]["claims_certainty"] is True
        assert reports[0]["queries"] == 3
        assert record["results"]["comparison"]["quantum_success"] == 1.0
        assert record["results"]["comparison"]["classical_success"] == 1.0

    def test_no_certainty_claims_multi_key(self, capsys):
        record = run_json(
            capsys,
            "adversary",
            "--keys", "011,101",
            "--trials", "200",
            "--seed", "3",
        )
        for rep in record["results"]["reports"]:
            assert rep["claims_certainty"] is False
            if rep["success_probability"] is not None:
                assert rep["success_probability"] < 1 or rep["strategy"].startswith(
                    "quantum"
                )


def python_fold(profile: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Consistent multisets by a set-of-tuples fold over every position:
    set the bit on each r_q-subset of a partial multiset's rows, sort
    the rows, and merge equal tuples.  Returned in sorted order."""
    level = {(0,) * k}
    for q, r in enumerate(profile):
        children = set()
        for ms in level:
            for rows in itertools.combinations(range(k), r):
                child = list(ms)
                for i in rows:
                    child[i] |= 1 << q
                children.add(tuple(sorted(child)))
        level = children
    return sorted(level)


_WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')


class TestEmbeddedProfiles:
    """Small key sets embedded into 70- and 130-bit keys: the small bits
    land on scattered positions, and every other position is a constant
    column of all ones (r = k) or all zeros (r = 0).  The answers must be
    the set-of-tuples fold's on the small profile, with bits remapped."""

    SMALL = [
        ("0001", "0011", "1011", "1110"),
        ("011", "011", "101"),
        ("01", "10", "10", "11", "00"),
        ("110", "100", "010"),
        ("0110", "0110"),
        ("1", "0", "1"),
    ]

    @staticmethod
    def embedding(small: tuple[str, ...], width: int):
        """(wide keys, small values, position of each small bit, ones mask)."""
        n = len(small[0])
        rng = random.Random(f"{small}/{width}")
        positions = sorted(rng.sample(range(width), n))
        rest = [q for q in range(width) if q not in positions]
        ones = sum(1 << q for q in rest[::2])  # alternate ones and zeros columns
        values = [int(s, 2) for s in small]

        def embed(v: int) -> int:
            return ones | sum(((v >> j) & 1) << q for j, q in enumerate(positions))

        wide = tuple(format(embed(v), f"0{width}b") for v in values)
        return wide, values, positions, ones, embed

    def reference(self, small, width):
        """`count_consistent_keysets` answered from the small fold."""
        _, values, positions, ones, _ = self.embedding(small, width)
        k, n = len(values), len(small[0])
        small_profile = tuple(sum((v >> q) & 1 for v in values) for q in range(n))
        table = np.array(python_fold(small_profile, k), dtype=np.uint64).reshape(-1, k)

        def count(profile, k, work_bound=analytics.DEFAULT_WORK_BOUND):
            ordered = analytics.check_work_bound(profile, k, work_bound)
            return analytics.ConsistencyCount(ordered, table, tuple(positions), ones)

        return count

    @pytest.mark.parametrize("width", [70, 130])
    @pytest.mark.parametrize("small", SMALL, ids=",".join)
    def test_multisets_and_counts(self, small, width):
        wide, values, _, _, embed = self.embedding(small, width)
        k, n = len(values), len(small[0])
        keys = KeySet.from_strings(wide)
        count = analytics.count_consistent_keysets(multikey_bv.bit_sum_profile(keys), k)
        small_profile = tuple(sum((v >> q) & 1 for v in values) for q in range(n))
        expected = tuple(
            tuple(embed(v) for v in ms) for ms in python_fold(small_profile, k)
        )
        assert count.multisets == expected
        assert count.multiset_count == len(expected)
        free = tuple(ms for ms in expected if len(set(ms)) == k)
        assert count.distinct_multisets() == free
        assert count.distinct_multiset_count == len(free)
        assert tuple(sorted(keys.values)) in count.multisets

    @pytest.mark.parametrize("width", [70, 130])
    @pytest.mark.parametrize("small", SMALL, ids=",".join)
    def test_cli_output_matches_the_fold(self, capsys, monkeypatch, small, width):
        wide = ",".join(self.embedding(small, width)[0])
        runs = [
            ["analyze", "--keys", wide, "--enumerate", "--seed", "3"],
            ["adversary", "--keys", wide, "--oracle-path", "fast", "--trials", "300",
             "--shots", "16", "--seed", "3"],
        ]
        outputs = []
        for route in ("numpy", "fold"):
            if route == "fold":
                fold = self.reference(small, width)
                monkeypatch.setattr(cli, "count_consistent_keysets", fold)
                monkeypatch.setattr(adversary, "count_consistent_keysets", fold)
            outputs.append(
                [_WALL_TIME.sub('"wall_time_s": 0', run(capsys, *argv)[1]) for argv in runs]
            )
        assert outputs[0] == outputs[1]
        # adversary refuses duplicate keys, printing nothing on either route
        analyzed, attacked = outputs[0]
        assert analyzed and bool(attacked) == (len(set(small)) == len(small))

    @pytest.mark.parametrize("small", SMALL, ids=",".join)
    def test_guess_attack_matches_the_fold(self, monkeypatch, small):
        # The library attack also takes duplicate keys, whose pool keeps
        # duplicate-key multisets.
        keys = KeySet.from_strings(self.embedding(small, 130)[0])
        reports = []
        for route in ("numpy", "fold"):
            if route == "fold":
                monkeypatch.setattr(
                    adversary, "count_consistent_keysets", self.reference(small, 130)
                )
            record = adversary.classical_guess_attack(keys, runs=500, seed=9).to_record()
            record.pop("wall_time_s")
            reports.append(record)
        assert reports[0] == reports[1]


class TestDeterminism:
    @staticmethod
    def stripped(out: str) -> dict:
        record = json.loads(out)
        record.pop("wall_time_s", None)
        for rep in record.get("results", {}).get("reports", []):
            rep.pop("wall_time_s", None)
        return record

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--keys", "011,101", "--seed", "77"],
            ["sample", "--keys", "010,011,011,101", "--shots", "512", "--seed", "77"],
            ["analyze", "--keys", "0001,0011,1011,1110", "--k", "2", "--m", "2:5",
             "--seed", "77", "--enumerate"],
            ["adversary", "--keys", "011,101", "--trials", "500", "--seed", "77"],
        ],
    )
    def test_rerun_identical(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        a, b = self.stripped(out1), self.stripped(out2)
        assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)

    def test_flag_values_do_not_leak_between_calls(self, capsys):
        first = run_json(
            capsys, "sample", "--keys", "011,101", "--shots", "7",
            "--oracle-path", "fast", "--seed", "3",
        )
        assert first["config"]["shots"] == 7
        second = run_json(capsys, "sample", "--keys", "011,101", "--seed", "3")
        assert second["config"]["shots"] == 1024
        assert second["config"]["oracle_path"] == "gate"
        run_json(capsys, "simulate", "--keys", "01", "--dump-state", "--seed", "3")
        plain = run_json(capsys, "simulate", "--keys", "01", "--seed", "3")
        assert plain["config"]["dump_state"] is False
        assert "statevector" not in plain["results"]

    def test_randomized_seed_is_reported(self, capsys):
        code, out, err = run(capsys, "simulate", "--keys", "01")
        assert code == EXIT_OK
        record = json.loads(out)
        assert isinstance(record["seed"], int)
        assert "randomized seed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--keys", "01,10"],
            ["sample", "--keys", "01,10"],
            ["analyze", "--keys", "01,10"],
            ["adversary", "--keys", "01,10", "--trials", "10"],
        ],
    )
    def test_negative_seed_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "--seed" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out, err = run(
            capsys, "simulate", "--keys", "011,101", "--seed", "1",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        record = json.loads(path.read_text())
        assert record["command"] == "simulate"

    @pytest.mark.parametrize(
        "target,reason",
        [("missing/run.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, target, reason):
        path = os.path.join(tmp_path, target)
        code, out, err = run(
            capsys, "simulate", "--keys", "01,10", "--seed", "7", "--out", path
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: cannot write {path}: {reason}\n"

    def test_unwritable_out_refused_before_the_run(self, capsys, monkeypatch):
        # Eight 20-bit keys make a 24-qubit gate-path state of 128 MiB.
        keys = ",".join(
            format(v, "020b") for v in random.Random(7).sample(range(1 << 20), 8)
        )

        def entered(*args, **kwargs):
            raise AssertionError("run_circuit entered")

        monkeypatch.setattr(cli, "run_circuit", entered)
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "simulate", "--keys", keys, "--seed", "7",
                "--out", "/nonexistent/dir/x.csv",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "input error: cannot write /nonexistent/dir/x.csv: No such file or directory\n"
        )
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("before", [b"an earlier run\n", None], ids=["existing", "new"])
    def test_refused_run_leaves_out_as_it_was(self, capsys, tmp_path, before):
        # The --out check opens the path before the run, which is then
        # refused: an existing file keeps its bytes, and no file is left
        # where there was none.
        path = tmp_path / "run.json"
        if before is not None:
            path.write_bytes(before)
        code, out, _ = run(
            capsys, "simulate", "--keys", "0" * 30 + "1", "--seed", "7", "--out", str(path)
        )
        assert (code, out) == (EXIT_CAPACITY, "")
        assert (path.read_bytes() if path.exists() else None) == before


class TestArgumentParsing:
    """`main` parses an argv that starts with a command by that command's
    parser alone; every outcome must equal the full parser's."""

    ARGVS = [
        [],
        ["--version"],
        ["-h"],
        ["frobnicate"],
        ["Simulate", "--keys", "01"],
        ["--version", "simulate"],
        ["-h", "simulate"],
        ["simulate"],
        ["simulate", "-h"],
        ["simulate", "-hx"],
        ["simulate", "--help=1"],
        ["simulate", "--version"],
        ["simulate", "--keys", "01", "--bogus"],
        ["simulate", "--keys", "01", "stray"],
        ["simulate", "--keys", "01", "-"],
        ["simulate", "--keys", "01", "--see", "3"],
        ["sample", "--keys", "01", "--seed", "x"],
        ["simulate", "--keys", "01", "--oracle-path", "slow"],
        ["sample", "--keys", "01", "--shots"],
        ["sample", "--keys", "01", "--shots", "-5"],
        ["simulate", "--keys=01", "--seed=3", "--format=csv"],
        ["simulate", "--", "--keys"],
        ["simulate", "--keys", "01", "--keys", "10", "--seed", "1", "--seed", "2"],
        ["simulate", "--keys", "01", "sample"],
        ["simulate", "--=x"],
        ["simulate", "--keys", "01", "--", "--=x"],
        ["analyze", "--e", "--k", "2", "--m", "-1"],
        ["adversary", "--keys", "01,10", "--s", "1"],
        ["adversary", "--keys", "01,10", "--m", "3", "-x"],
    ]

    @staticmethod
    def outcome(capsys, call, argv):
        """(exit code or namespace, stdout, stderr) of call(argv)."""
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_outcome_equals_full_parse(self, capsys, argv):
        expected = self.outcome(capsys, cli.build_parser().parse_args, list(argv))
        assert self.outcome(capsys, cli._parse, list(argv)) == expected
        if not isinstance(expected[0], argparse.Namespace):
            assert self.outcome(capsys, main, list(argv)) == expected

    def test_top_level_options_are_help_and_version(self):
        # `_parse` sends an argv holding a `--=` token to the full parse
        # because that token abbreviates both --help and --version.  A new
        # top-level option changes which abbreviations are ambiguous, so
        # `_parse` must be reviewed with it.
        options = {s for a in cli.build_parser()._actions for s in a.option_strings}
        assert options == {"-h", "--help", "--version"}, "review cli._parse"

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["simulate", "--keys", "01", "--bogus"]
        monkeypatch.setattr(sys, "argv", ["multikey-bv", *argv])
        expected = self.outcome(capsys, cli.build_parser().parse_args, None)
        assert expected[0] == EXIT_INPUT
        assert self.outcome(capsys, main, None) == expected


# 13-bit keys, k=6: 13 data + 1 target + 3 control = 17 qubits.
KEYS_17Q = (
    "0010110100111,1100101011010,0111000110101,"
    "1010011100011,0001111010110,1111000001101"
)


class TestGoldenOutputs:
    """Seeded records pinned by sha256 of the record without any
    `wall_time_s` field, so any change to a simulated amplitude or a
    sampled count shows up here.  Cases run on the gate path unless their
    extra arguments select the fast one."""

    @pytest.mark.parametrize(
        "command,keys,extra,digest",
        [
            ("simulate", "011,101", ["--dump-state"],
             "e406268c8419b01506d8126f22d5e087c52654d251413da680a870a66f3552cb"),
            ("sample", "011,101", [],
             "4142bd0f8d91c376cb967e0507794346aa8ef4dab95164b28172b3f191d3235d"),
            ("simulate", "010,011,011,101", ["--dump-state"],
             "f44feb11b6ffbdee499a9e54f6e01941e74179206e80def3eaeaae3c41a1cb09"),
            ("sample", "010,011,011,101", [],
             "a1d222eccd972cf6ca74bc1eed36ed3608d4f2e137805d429e22dcc08b9351f3"),
            ("simulate", "0001,0011,1011,1110", ["--dump-state"],
             "c643d8a399f42d6db1298a0a54f1bf8a0fa7f2566cb78fb74d3748f2c86a5fd8"),
            ("sample", "0001,0011,1011,1110", [],
             "bd457e0122a552b467d156571174d97fd9e2c01b79b2254b4f4959b934e5c26b"),
            ("simulate", "00101,01100,10011,11110", ["--dump-state"],
             "491f31e14becf41ab3593ba2501e00bab639373a59b895c2eb681fb4296c8ec7"),
            ("sample", "00101,01100,10011,11110", [],
             "cddf3836ae82b860ff0a82a3d02fb27cc2743897a967808ae94db58a2bdf0ca2"),
            ("simulate", KEYS_17Q, [],
             "c6f5e1dd264d2b0e7331621f84aa98d409897bceeed7c3e1d4bde8ba369f91e6"),
            ("sample", KEYS_17Q, [],
             "7f4d18d395abe77abc4d6e084357e2ae2161a176acd2bab7c86436844b20bc54"),
            ("simulate", "010,011,011,101", ["--dump-state", "--oracle-path", "fast"],
             "a3257bd7bc10faedb8872263d3424a1e50ab7ed4d9f7b83c17a2ef2da71c9a37"),
            ("simulate", "001,011,011", ["--dump-state", "--oracle-path", "fast"],
             "29da39a00e8e97750a50a5febf551323db55cc5a7dc211010a5f0f29b6f5887a"),
            ("sample", "001,011,011", ["--oracle-path", "fast"],
             "a04cdac31e6ec5d0c1f77d22b0b9143ad5e4decd1c7b0861fc580f521978f225"),
            ("sample", "0010110100111,1100101011010,0111011010001",
             ["--oracle-path", "fast"],
             "e6d1992b8ad0fb5c8176f8da5f0ba8a4237e3e5e1a9c39641a445a533da384b0"),
            ("adversary", "00101,01100,10011", ["--oracle-path", "fast", "--trials", "2000"],
             "bb6541b2055b4b5baf95ec4ab8fb1a7c83fa93cf4210c910ffe469e8dd156df4"),
            ("adversary", "00101,01100,10011", ["--trials", "2000"],
             "2f34bd49cb31e3841d6229de680f32183a4d10781b8f0add00d4a8e89f010525"),
        ],
    )
    def test_seeded_record_digest(self, capsys, command, keys, extra, digest):
        record = run_json(
            capsys, command, "--keys", keys, "--seed", "7", "--format", "json",
            "--oracle-path", "gate", *extra,
        )
        record = without_wall_times(record)
        assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest


    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "9e98706630eeafe569f5fb44139a52c063762259f6e2710494aab6414dc4fd56"),
            ("csv", "f9535f04d4ee3f410e2c47f400dcc61103a3bb5f74e02cf77dfa108a08d13f7b"),
            ("text", "a955c5820c18f2367bff8be9d59a74bc68e3972e63beb71d4faea055b860adf0"),
        ],
    )
    def test_seeded_recovery_grid_digest(self, capsys, fmt, digest):
        code, out, _ = run(
            capsys, "analyze", "--k", "296:300", "--m", "1690:1700",
            "--seed", "7", "--format", fmt,
        )
        assert code == EXIT_OK
        if fmt == "json":
            out = json.dumps(without_wall_times(json.loads(out)))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "d528736157a7189e3bec15436cb29d78666f4d82e4675849b5a512468dbb6e01"),
            ("csv", "a9a33bdd0a6038337a0975040796cbcc3fe06d811adb3e723b7484323e74e473"),
            ("text", "6f26ba15449671abf8702fa1b19623ea5c6e43cc9f6590bccaf8e5a147aba594"),
        ],
    )
    def test_seeded_key_analysis_digest(self, capsys, fmt, digest):
        code, out, _ = run(
            capsys, "analyze", "--keys", "0001,0011,1011,1110", "--enumerate",
            "--seed", "7", "--format", fmt,
        )
        assert code == EXIT_OK
        if fmt == "json":
            out = json.dumps(without_wall_times(json.loads(out)))
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def without_wall_times(value):
    """The record with every `wall_time_s` field removed, at any depth."""
    if isinstance(value, dict):
        return {
            k: without_wall_times(v) for k, v in value.items() if k != "wall_time_s"
        }
    if isinstance(value, list):
        return [without_wall_times(v) for v in value]
    return value
