"""CLI commands: record structure, formats, exit codes, determinism."""

import hashlib
import json
import os
import random
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
    src = os.path.dirname(os.path.dirname(multikey_bv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestAnalyze:
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

    def test_grid_rationals_beyond_int_str_limit(self, capsys):
        # num and den have over 12k digits, past Python's default
        # 4300-digit int-to-str limit
        record = run_json(
            capsys, "analyze", "--k", "2000", "--m", "4096", "--seed", "1"
        )
        rational = record["results"]["recovery_grid"][0]["rational"]
        num, den = (int(Decimal(rational[f])) for f in ("num", "den"))
        assert Fraction(num, den) == prob_all_keys(2000, 4096).exact

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
