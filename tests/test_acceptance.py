"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line at its stated tolerance.

Sweeps declared over "every" key set are exhaustive wherever the
combination count is small and seeded-random samples above that; full
enumeration of, say, all 8-key subsets of 5-bit strings is
combinatorially out of reach.
"""

import itertools
import json
import math
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np

from multikey_bv import (
    ClassicalOracle,
    KeySet,
    classical_bv_single_key,
    classical_guess_attack,
    classical_guess_bound,
    count_consistent_keysets,
    estimate_bit_sums,
    exact_distribution,
    measure_data_register,
    prob_all_keys,
    prob_two_keys,
    quantum_coupon_experiment,
    run_circuit,
    surjection_count,
)
from multikey_bv.adversary import rounded_bit_sums
from multikey_bv.cli import main
from multikey_bv.simulator import chi_square_vs_exact, control_width


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num} ({name}): FAIL")
        raise
    print(f"CRITERION {num} ({name}): PASS")


def keyset(*texts: str) -> KeySet:
    return KeySet.from_strings(texts)


def distinct_keysets(n: int, k: int, limit: int, rng: np.random.Generator):
    """All distinct-key sets at (n, k), or a seeded sample of `limit`."""
    space = 1 << n
    if comb(space, k) <= limit:
        for values in itertools.combinations(range(space), k):
            yield KeySet(tuple(values), n)
        return
    for _ in range(limit):
        values = rng.choice(space, size=k, replace=False)
        yield KeySet(tuple(int(v) for v in values), n)


def test_criterion_1_key_superposition_amplitudes():
    """Distinct keys, n <= 5, k in {1,2,4,8}: dropped-ancilla amplitudes
    equal 1/sqrt(k) on every key and 0 elsewhere, within 1e-10."""
    with criterion(1, "key superposition amplitudes"):
        rng = np.random.default_rng(1001)
        checked = 0
        for n in range(1, 6):
            for k in (1, 2, 4, 8):
                if k > (1 << n):
                    continue
                for ks in distinct_keysets(n, k, limit=200, rng=rng):
                    reduced = run_circuit(ks).data_register_state()
                    expected = np.zeros(1 << n, dtype=complex)
                    for v in ks.values:
                        expected[v] = 1 / math.sqrt(k)
                    phase = reduced[np.argmax(np.abs(reduced))]
                    phase /= abs(phase)
                    assert np.max(np.abs(reduced / phase - expected)) < 1e-10
                    checked += 1
        assert checked > 1000


def test_criterion_2_distinct_key_histograms():
    """1024-shot histograms for the two- and four-key circuits: every
    empirical probability within 3 sigma of uniform, chi-square p > 0.001."""
    with criterion(2, "distinct-key histograms"):
        cases = [
            (("011", "101"), 0.5, 424242),
            (("001", "010", "011", "101"), 0.25, 424242),
        ]
        for texts, p, seed in cases:
            dist = exact_distribution(run_circuit(keyset(*texts)))
            counts = measure_data_register(dist, 1024, np.random.default_rng(seed))
            observed = dict(zip(dist, counts.tolist()))
            sigma = math.sqrt(p * (1 - p) / 1024)
            for outcome in texts:
                p_hat = observed.get(int(outcome, 2), 0) / 1024
                assert abs(p_hat - p) <= 3 * sigma, (texts, outcome, p_hat)
            chi = chi_square_vs_exact(counts, dist)
            assert chi["p_value"] > 0.001, (texts, chi)


def test_criterion_3_duplicate_key_distribution():
    """Duplicate-key multiset {010, 011, 011, 101}: exact marginal is
    (0.25, 0.5, 0.25) to 1e-9 and the 1024-shot histogram stays within
    3 sigma of it."""
    with criterion(3, "duplicate-key distribution"):
        ks = keyset("010", "011", "011", "101")
        state = run_circuit(ks)
        dist = exact_distribution(state)
        expected = {0b010: 0.25, 0b011: 0.5, 0b101: 0.25}
        assert set(dist) == set(expected)
        for outcome, p in expected.items():
            assert abs(dist[outcome] - p) < 1e-9
        counts = measure_data_register(dist, 1024, np.random.default_rng(313))
        observed = dict(zip(dist, counts.tolist()))
        for outcome, p in expected.items():
            sigma = math.sqrt(p * (1 - p) / 1024)
            p_hat = observed.get(outcome, 0) / 1024
            assert abs(p_hat - p) <= 3 * sigma


def surjections_brute_force(m: int, k: int) -> int:
    """Oracle: enumerate every function from an m-set to a k-set."""
    total = k**m
    hits = 0
    chunk = 1 << 20
    full = (1 << k) - 1
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        seen = np.zeros(idx.size, dtype=np.int64)
        rem = idx
        for _ in range(m):
            rem, digit = np.divmod(rem, k)
            seen |= np.int64(1) << digit
        hits += int(np.count_nonzero(seen == full))
    return hits


def test_criterion_4_recovery_formula_consistency():
    """Closed forms agree as exact rationals and match brute-force
    function enumeration."""
    with criterion(4, "recovery formula consistency"):
        for m in range(2, 65):
            assert prob_all_keys(2, m) == 1 - Fraction(1, 1 << (m - 1))
            assert prob_two_keys(m) == prob_all_keys(2, m)
        for k in range(1, 7):
            for m in range(0, k):
                assert prob_all_keys(k, m) == 0
        for k in range(1, 6):
            for m in range(0, 11):
                assert surjection_count(m, k) == surjections_brute_force(m, k)


def test_criterion_5_constrained_multiset_enumeration():
    """Bit-sum profile (3,3,1,2) with k=4: 12 duplicate-free consistent
    multisets including the worked example, 384 ordered assignments,
    guess bound exactly 1/16.  Runs in under a second."""
    with criterion(5, "constrained multiset enumeration"):
        profile = (3, 3, 1, 2)
        count = count_consistent_keysets(profile, 4)
        assert count.distinct_multiset_count == 12
        assert count.ordered_count == 384
        truth = tuple(sorted(keyset("0001", "0011", "1011", "1110").values))
        assert truth in count.distinct_multisets()
        assert classical_guess_bound(profile, 4) == Fraction(1, 16)


def test_criterion_6_coupon_collector_monte_carlo():
    """Simulated repeated measurement matches the closed-form all-keys
    probability within 3 sigma at 1e5 trials for k in {2,3,4}, m in k..3k."""
    with criterion(6, "coupon-collector Monte Carlo"):
        pool = ["0001", "0010", "0100", "1000", "0011", "0101", "0110", "1001"]
        trials = 100_000
        rng = np.random.default_rng(606060)
        for k in (2, 3, 4):
            ks = keyset(*pool[:k])
            for m in range(k, 3 * k + 1):
                p_hat = quantum_coupon_experiment(ks, m, trials, rng)
                p = float(prob_all_keys(k, m))
                sigma = math.sqrt(max(p * (1 - p), 0.0) / trials)
                assert abs(p_hat - p) <= 3 * sigma + 1e-12, (k, m, p_hat, p)


def test_criterion_7_oracle_path_equivalence():
    """Gate-by-gate and direct phase-branch constructions agree within
    1e-10 over 100 randomized key sets (n <= 5, k <= 8, k=3 included)."""
    with criterion(7, "oracle construction equivalence"):
        rng = np.random.default_rng(707070)
        k_values = []
        for case in range(100):
            k = case % 8 + 1
            n = int(rng.integers(max(1, control_width(k)), 6))
            if k > (1 << n):
                n = control_width(k)
            values = rng.integers(1 << n, size=k)
            ks = KeySet(tuple(int(v) for v in values), n)
            gate = run_circuit(ks, oracle_path="gate")
            fast = run_circuit(ks, oracle_path="fast")
            assert np.max(np.abs(gate.amps - fast.to_statevector().amps)) < 1e-10
            k_values.append(k)
        assert 3 in k_values


def test_criterion_8_classical_baselines():
    """Single-key recovery exact in exactly n queries for every key up
    to n=8; bit-sum estimation rounds to the true profile at 1e4 trials
    per bit; guess attack frequency within 3 sigma of 1/12 at 1e5 runs."""
    with criterion(8, "classical baselines"):
        for n in range(1, 9):
            for value in range(1 << n):
                oracle = ClassicalOracle(
                    KeySet((value,), n), np.random.default_rng(0)
                )
                assert classical_bv_single_key(oracle) == value
                assert oracle.queries == n

        ks = keyset("0001", "0011", "1011", "1110")
        oracle = ClassicalOracle(ks, np.random.default_rng(808080))
        estimates = estimate_bit_sums(oracle, 10_000)
        assert rounded_bit_sums(estimates, 4) == (3, 3, 1, 2)

        report = classical_guess_attack(ks, runs=100_000, seed=818181)
        p = 1 / 12
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert abs(report.success_probability - p) <= 3 * sigma


def test_criterion_9_seeded_reproducibility(capsys):
    """Any command rerun with identical seed and configuration emits
    byte-identical output once the wall-time fields are removed."""
    with criterion(9, "seeded reproducibility"):
        commands = [
            ["simulate", "--keys", "011,101", "--seed", "90"],
            ["sample", "--keys", "010,011,011,101", "--shots", "1024", "--seed", "90"],
            ["analyze", "--keys", "0001,0011,1011,1110", "--k", "2:4", "--m", "2:8",
             "--seed", "90", "--enumerate"],
            ["adversary", "--keys", "0001,0011,1011,1110", "--trials", "1000",
             "--shots", "200", "--seed", "90"],
            ["sample", "--keys", "011,101", "--seed", "90", "--format", "csv"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                assert main(list(argv)) == 0
                out = capsys.readouterr().out
                if argv[-1] != "csv":
                    record = json.loads(out)
                    record.pop("wall_time_s", None)
                    for rep in record.get("results", {}).get("reports", []):
                        rep.pop("wall_time_s", None)
                    out = json.dumps(record)
                outputs.append(out)
            assert outputs[0] == outputs[1], argv
