"""CLI commands: record structure, formats, exit codes, determinism."""

import hashlib
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from multikey_bv import cli, prob_all_keys
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

    def test_state_dump_capacity(self, capsys):
        keys = ",".join(["0" * 11 + "1"] * 2)
        code, _, err = run(
            capsys, "simulate", "--keys", keys, "--seed", "1", "--dump-state"
        )
        assert code == EXIT_CAPACITY
        assert "capacity" in err

    def test_state_dump_capacity_refused_before_simulating(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_circuit called")

        monkeypatch.setattr(cli, "run_circuit", fail)
        code, _, err = run(
            capsys, "simulate", "--keys", ",".join(["1" * 20] + ["0" * 20] * 5),
            "--seed", "1", "--dump-state",
        )
        assert code == EXIT_CAPACITY
        assert "statevector dump limited to 12 qubits, circuit has 24" in err
        code, _, err = run(
            capsys, "simulate", "--keys", "0" * 30 + "1", "--seed", "1",
            "--dump-state",
        )
        assert code == EXIT_CAPACITY
        assert "circuit needs 32 qubits" in err

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

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "analyze", "--k", "2", "--m", "x", "--seed", "1")
        assert code == EXIT_INPUT


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


def without_wall_times(value):
    """The record with every `wall_time_s` field removed, at any depth."""
    if isinstance(value, dict):
        return {
            k: without_wall_times(v) for k, v in value.items() if k != "wall_time_s"
        }
    if isinstance(value, list):
        return [without_wall_times(v) for v in value]
    return value
