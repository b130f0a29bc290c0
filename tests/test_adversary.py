"""Classical baseline strategies and the quantum coupon experiment."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from multikey_bv import (
    ClassicalOracle,
    InputError,
    KeySet,
    SecretKey,
    bit_sum_profile,
    classical_bv_single_key,
    classical_guess_attack,
    count_consistent_keysets,
    dot_mod2,
    estimate_bit_sums,
    prob_all_keys,
    quantum_coupon_experiment,
)
from multikey_bv import simulator
from multikey_bv.adversary import (
    ExperimentReport,
    rounded_bit_sums,
    run_bit_sum_estimation,
    run_coupon_experiment,
    run_single_key_baseline,
)


def keyset(*texts: str) -> KeySet:
    return KeySet.from_strings(texts)


def oracle_for(*texts: str, seed: int = 0) -> ClassicalOracle:
    return ClassicalOracle(keyset(*texts), np.random.default_rng(seed))


class TestSingleKeyRecovery:
    def test_examples(self):
        for text in ("101", "000", "1111"):
            oracle = oracle_for(text)
            recovered = classical_bv_single_key(oracle)
            assert str(recovered) == text
            assert oracle.queries == len(text)

    def test_exhaustive_all_keys_up_to_n8(self):
        for n in range(1, 9):
            for value in range(1 << n):
                oracle = ClassicalOracle(
                    KeySet((value,), n), np.random.default_rng(0)
                )
                recovered = classical_bv_single_key(oracle)
                assert recovered.value == value
                assert oracle.queries == n

    def test_refuses_multi_key_oracle(self):
        with pytest.raises(InputError, match="single-key"):
            classical_bv_single_key(oracle_for("01", "10"))


class TestBitSumEstimation:
    def test_converges_on_worked_example(self):
        oracle = oracle_for("0001", "0011", "1011", "1110", seed=42)
        estimates = estimate_bit_sums(oracle, 10_000)
        assert rounded_bit_sums(estimates, 4).counts == (3, 3, 1, 2)
        assert oracle.queries == 4 * 10_000

    def test_single_key_exact_after_one_trial(self):
        oracle = oracle_for("1011")
        estimates = estimate_bit_sums(oracle, 1)
        assert list(estimates) == [1.0, 1.0, 0.0, 1.0]

    def test_binomial_spread(self):
        # r_0 estimate for keys {00,11}: k * Binomial(trials, 1/2) / trials
        trials = 10_000
        oracle = oracle_for("00", "11", seed=7)
        estimates = estimate_bit_sums(oracle, trials)
        sigma = 2 * math.sqrt(0.25 / trials)
        assert abs(estimates[0] - 1.0) <= 3 * sigma

    def test_unbiased_mean(self):
        # mean of repeated estimates approaches the true count
        experiments, trials = 400, 20
        total = np.zeros(2)
        for i in range(experiments):
            oracle = oracle_for("01", "10", seed=1000 + i)
            total += estimate_bit_sums(oracle, trials)
        mean = total / experiments
        sigma = 2 * math.sqrt(0.25 / trials) / math.sqrt(experiments)
        assert abs(mean[0] - 1.0) <= 4 * sigma
        assert abs(mean[1] - 1.0) <= 4 * sigma

    def test_estimates_stay_real_valued(self):
        oracle = oracle_for("011", "101", seed=3)
        estimates = estimate_bit_sums(oracle, 7)
        assert estimates.dtype == np.float64

    def test_rejects_zero_trials(self):
        with pytest.raises(InputError):
            estimate_bit_sums(oracle_for("01"), 0)


class TestGuessAttack:
    def test_worked_example_frequency(self):
        ks = keyset("0001", "0011", "1011", "1110")
        report = classical_guess_attack(
            ks, runs=100_000, rng=np.random.default_rng(31337)
        )
        p = 1 / 12
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert report.details["candidate_pool_size"] == 12
        assert report.details["theory_success_probability"] == pytest.approx(p)
        assert abs(report.success_probability - p) <= 3 * sigma
        assert report.claims_certainty is False
        assert report.assumes_k_known is True

    def test_pinned_profile_always_succeeds(self):
        ks = keyset("00", "01")
        report = classical_guess_attack(ks, runs=500, rng=np.random.default_rng(2))
        assert report.details["candidate_pool_size"] == 1
        assert report.success_probability == 1.0

    def test_theory_is_one_over_pool(self):
        for texts in (("0001", "0011", "1011", "1110"), ("010", "011", "011", "101")):
            report = classical_guess_attack(
                keyset(*texts), runs=10, rng=np.random.default_rng(5)
            )
            pool = report.details["candidate_pool_size"]
            theory = report.details["theory_success_probability"]
            assert theory == float(Fraction(1, pool))

    def test_degenerate_truth_uses_full_pool(self):
        ks = keyset("010", "011", "011", "101")
        report = classical_guess_attack(
            ks, runs=50_000, rng=np.random.default_rng(4)
        )
        assert report.details["assume_distinct"] is False
        pool = report.details["candidate_pool_size"]
        p = 1 / pool
        sigma = math.sqrt(p * (1 - p) / 50_000)
        assert abs(report.success_probability - p) <= 3 * sigma

    def test_no_certainty_claim_with_two_distinct_keys(self):
        for texts in (("011", "101"), ("001", "010", "011", "101")):
            report = classical_guess_attack(
                keyset(*texts), runs=100, rng=np.random.default_rng(9)
            )
            assert report.claims_certainty is False
            if report.details["candidate_pool_size"] >= 2:
                assert report.details["theory_success_probability"] < 1


def test_assumes_k_known_is_a_constant_kept_in_record_order():
    report = run_single_key_baseline(keyset("0110"), seed=3)
    record = report.to_record()
    keys = list(record)
    assert record["assumes_k_known"] is True
    assert keys.index("assumes_k_known") == keys.index("claims_certainty") + 1
    assert keys.index("seed") == keys.index("assumes_k_known") + 1
    with pytest.raises(TypeError):
        ExperimentReport(
            strategy="s", queries=0, success_probability=None,
            claims_certainty=False, assumes_k_known=False, seed=None,
            wall_time_s=0.0,
        )


class TestCouponExperiment:
    def test_matches_closed_form_small(self):
        rng = np.random.default_rng(77)
        rate = quantum_coupon_experiment(keyset("011", "101"), 3, 100_000, rng)
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(rate - 0.75) <= 3 * sigma

    def test_zero_below_k(self):
        rng = np.random.default_rng(1)
        assert quantum_coupon_experiment(keyset("011", "101"), 1, 1000, rng) == 0.0

    def test_zero_measurements(self):
        rng = np.random.default_rng(1)
        assert quantum_coupon_experiment(keyset("011", "101"), 0, 1000, rng) == 0.0

    def test_near_one_for_many_measurements(self):
        rng = np.random.default_rng(5)
        rate = quantum_coupon_experiment(keyset("011", "101"), 10, 100_000, rng)
        p = 1 - 2 ** (-9)
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert abs(rate - p) <= 3 * sigma

    def test_rejects_duplicates(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InputError, match="distinct"):
            quantum_coupon_experiment(keyset("01", "01"), 4, 10, rng)

    def test_agrees_with_formula_grid(self):
        rng = np.random.default_rng(777)
        pool = ["001", "010", "011", "100", "101", "110", "111"]
        for k in (2, 3, 4):
            ks = keyset(*pool[:k])
            for m in (k, 2 * k):
                rate = quantum_coupon_experiment(ks, m, 20_000, rng)
                p = prob_all_keys(k, m).value
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / 20_000)
                assert abs(rate - p) <= 3 * sigma + 1e-12


class TestChunkedDraws:
    """Chunked draws against unchunked reference loops on the same seed.

    The chunk is patched small so that every strategy crosses several
    chunk boundaries, including a last partial chunk; the coupon draws
    are also checked, and their memory bounded, at the real block size.
    """

    @pytest.mark.parametrize(
        "texts,m",
        [
            (("011", "101"), 3),
            (("001", "010", "100"), 4),
            (("001", "010", "100"), 12),
            (("101",), 1),
        ],
    )
    def test_coupon_rate_matches_per_trial_loop(self, monkeypatch, texts, m):
        ks, trials = keyset(*texts), 25
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 10)
        rate = quantum_coupon_experiment(ks, m, trials, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        p = simulator.run_circuit(ks).data_marginal()[np.array(ks.values)]
        p = p / p.sum()
        full = sum(
            len(set(rng.choice(ks.k, size=m, p=p).tolist())) == ks.k
            for _ in range(trials)
        )
        assert rate == full / trials

    @pytest.mark.parametrize("texts", [("0001", "0011", "1011", "1110"), ("00", "01")])
    def test_guess_attack_matches_per_draw_loop(self, monkeypatch, texts):
        ks, runs = keyset(*texts), 25
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 7)
        report = classical_guess_attack(ks, runs, np.random.default_rng(11))
        pool = count_consistent_keysets(
            bit_sum_profile(ks), ks.k, include_multisets=True
        ).distinct_multisets()
        truth = pool.index(tuple(sorted(ks.values)))
        rng = np.random.default_rng(11)
        draws = [int(rng.integers(len(pool))) for _ in range(runs)]
        assert report.success_probability == draws.count(truth) / runs
        assert report.recovered == [format(v, f"0{ks.n}b") for v in pool[draws[-1]]]

    def test_bit_sums_match_per_query_loop(self, monkeypatch):
        ks, trials = keyset("0001", "0011", "1011", "1110", "0110"), 25
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 7)
        oracle = ClassicalOracle(ks, np.random.default_rng(5))
        estimates = estimate_bit_sums(oracle, trials)
        rng = np.random.default_rng(5)
        expected = []
        for q in range(ks.n):
            x = SecretKey(1 << q, ks.n)
            ones = sum(
                dot_mod2(x, SecretKey(ks.values[int(rng.integers(ks.k))], ks.n))
                for _ in range(trials)
            )
            expected.append(ks.k * ones / trials)
        assert estimates.tolist() == expected
        assert oracle.queries == ks.n * trials

    def test_coupon_memory_does_not_grow_with_trials(self):
        # One draw of 10^6 x 12 int64 would take 92 MiB before sorting.
        ks = keyset("0001", "0011", "1011", "1110")
        tracemalloc.start()
        try:
            rate = quantum_coupon_experiment(ks, 12, 10**6, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        p = prob_all_keys(4, 12).value
        assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / 10**6)

    def test_coupon_memory_does_not_grow_with_m(self):
        # One trial of 2^23 draws would take 64 MiB of int64 at once.
        ks = keyset("011", "101", "110")
        tracemalloc.start()
        try:
            rate = quantum_coupon_experiment(ks, 1 << 23, 1, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert rate == 1.0

    @pytest.mark.parametrize(
        "texts,m,trials",
        [
            (("0001", "0011", "1011", "1110"), 12, 10**5),
            (("011", "101", "110"), (1 << 16) + 5, 3),
            (("001", "010", "011", "100", "101", "110", "111"), 20, 50_001),
        ],
    )
    def test_coupon_rate_equals_choice_blocks(self, texts, m, trials):
        """The real block size, against the same blocks drawn by rng.choice."""
        ks = keyset(*texts)
        rng = np.random.default_rng(13)
        rate = quantum_coupon_experiment(ks, m, trials, rng)
        reference_rng = np.random.default_rng(13)
        dist = simulator.exact_distribution(simulator.run_circuit(ks))
        p = np.array([dist[text] for text in texts])
        p = p / p.sum()
        chunk = simulator._SHOT_CHUNK
        rows, cols = max(1, chunk // m), min(m, chunk)
        full = 0
        for start in range(0, trials, rows):
            seen = np.zeros((min(rows, trials - start), ks.k), dtype=bool)
            trial = np.arange(len(seen))[:, None]
            for done in range(0, m, cols):
                size = (len(seen), min(cols, m - done))
                seen[trial, reference_rng.choice(ks.k, size=size, p=p)] = True
            full += int(np.count_nonzero(seen.all(axis=1)))
        assert rate == full / trials
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "texts,m,trials",
        [(("0001", "0011", "1011", "1110"), 12, 10**6), (("011", "101", "110"), 1 << 23, 1)],
    )
    def test_coupon_peak_stays_within_a_few_blocks(self, texts, m, trials):
        # A block of 2^16 draws takes 512 KiB per array of uniforms,
        # bucket numbers or indices.
        ks = keyset(*texts)
        tracemalloc.start()
        try:
            quantum_coupon_experiment(ks, m, trials, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestReports:
    def test_single_key_report(self):
        report = run_single_key_baseline(keyset("1011"), seed=3)
        assert report.claims_certainty is True
        assert report.success is True
        assert report.queries == 4
        assert report.recovered == ["1011"]
        assert report.to_record()["strategy"] == report.strategy

    def test_bit_sum_report(self):
        report = run_bit_sum_estimation(keyset("011", "101"), 2000, seed=5)
        assert report.queries == 3 * 2000
        assert report.claims_certainty is False
        assert report.details["rounded_counts"] == [2, 1, 1]
        assert report.details["true_counts"] == [2, 1, 1]

    def test_coupon_report_charges_per_execution(self):
        report = run_coupon_experiment(keyset("011", "101"), 4, 500, seed=6)
        assert report.queries == 4 * 500
        assert report.claims_certainty is False
        assert 0.0 <= report.success_probability <= 1.0
