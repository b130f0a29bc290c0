"""Classical baseline strategies and the quantum coupon experiment."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from multikey_bv import (
    ClassicalOracle,
    InputError,
    KeySet,
    bit_sum_profile,
    classical_bv_single_key,
    classical_guess_attack,
    count_consistent_keysets,
    estimate_bit_sums,
    prob_all_keys,
    quantum_coupon_experiment,
)
from multikey_bv import adversary, simulator
from multikey_bv.adversary import (
    ExperimentReport,
    rounded_bit_sums,
    run_bit_sum_estimation,
    run_coupon_experiment,
    run_single_key_baseline,
)


def keyset(*texts: str) -> KeySet:
    return KeySet.from_strings(texts)


def _keys(k: int, n: int) -> tuple[str, ...]:
    """The first k n-bit keys, 0 .. k - 1."""
    return tuple(format(v, f"0{n}b") for v in range(k))


def oracle_for(*texts: str, seed: int = 0) -> ClassicalOracle:
    return ClassicalOracle(keyset(*texts), np.random.default_rng(seed))


class TestSingleKeyRecovery:
    def test_examples(self):
        for text in ("101", "000", "1111"):
            oracle = oracle_for(text)
            recovered = classical_bv_single_key(oracle)
            assert recovered == int(text, 2)
            assert oracle.queries == len(text)

    def test_exhaustive_all_keys_up_to_n8(self):
        for n in range(1, 9):
            for value in range(1 << n):
                oracle = ClassicalOracle(
                    KeySet((value,), n), np.random.default_rng(0)
                )
                recovered = classical_bv_single_key(oracle)
                assert type(recovered) is int and recovered == value
                assert oracle.queries == n

    def test_refuses_multi_key_oracle(self):
        with pytest.raises(InputError, match="single-key"):
            classical_bv_single_key(oracle_for("01", "10"))


class TestBitSumEstimation:
    def test_converges_on_worked_example(self):
        oracle = oracle_for("0001", "0011", "1011", "1110", seed=42)
        estimates = estimate_bit_sums(oracle, 10_000)
        assert rounded_bit_sums(estimates, 4) == (3, 3, 1, 2)
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
        report = classical_guess_attack(ks, runs=100_000, seed=31337)
        p = 1 / 12
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert report.details["candidate_pool_size"] == 12
        assert report.details["theory_success_probability"] == pytest.approx(p)
        assert abs(report.success_probability - p) <= 3 * sigma
        assert report.claims_certainty is False
        assert report.assumes_k_known is True

    def test_pinned_profile_always_succeeds(self):
        ks = keyset("00", "01")
        report = classical_guess_attack(ks, runs=500, seed=2)
        assert report.details["candidate_pool_size"] == 1
        assert report.success_probability == 1.0

    def test_theory_is_one_over_pool(self):
        for texts in (("0001", "0011", "1011", "1110"), ("010", "011", "011", "101")):
            report = classical_guess_attack(keyset(*texts), runs=10, seed=5)
            pool = report.details["candidate_pool_size"]
            theory = report.details["theory_success_probability"]
            assert theory == float(Fraction(1, pool))

    def test_degenerate_truth_uses_full_pool(self):
        ks = keyset("010", "011", "011", "101")
        report = classical_guess_attack(ks, runs=50_000, seed=4)
        assert report.details["assume_distinct"] is False
        pool = report.details["candidate_pool_size"]
        p = 1 / pool
        sigma = math.sqrt(p * (1 - p) / 50_000)
        assert abs(report.success_probability - p) <= 3 * sigma

    def test_no_certainty_claim_with_two_distinct_keys(self):
        for texts in (("011", "101"), ("001", "010", "011", "101")):
            report = classical_guess_attack(keyset(*texts), runs=100, seed=9)
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
                p = float(prob_all_keys(k, m))
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
        report = classical_guess_attack(ks, runs, seed=11)
        pool = count_consistent_keysets(bit_sum_profile(ks), ks.k).distinct_multisets()
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
            # The key drawn answers x = 2**q with the parity of x & s.
            ones = sum(
                ((1 << q) & ks.values[int(rng.integers(ks.k))]).bit_count() & 1
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
        p = float(prob_all_keys(4, 12))
        assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / 10**6)
        assert rate == 0.874597

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
            # One-hot words: uint8 holds 8 keys, 9 take uint16, 33 a
            # uint64 with edge buckets; 64 fill a uint64 and 65 take the
            # bitmap.  Rows of 5000 or 2^16 draws are OR-folded by reduce.
            (_keys(8, 4), 20, 20_001),
            (_keys(9, 4), 24, 20_001),
            (_keys(33, 6), 150, 5_001),
            (_keys(64, 6), 320, 3_001),
            (_keys(65, 7), 330, 3_001),
            (_keys(33, 6), 5000, 27),
            (_keys(64, 6), (1 << 16) + 5, 3),
        ],
    )
    def test_coupon_rate_equals_choice_blocks(self, texts, m, trials):
        """The real block size, against the same blocks drawn by rng.choice."""
        ks = keyset(*texts)
        rng = np.random.default_rng(13)
        rate = quantum_coupon_experiment(ks, m, trials, rng)
        reference_rng = np.random.default_rng(13)
        dist = simulator.exact_distribution(simulator.run_circuit(ks))
        p = np.array([dist[value] for value in ks.values])
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
    def test_coupon_peak_stays_within_a_few_blocks(self, monkeypatch, texts, m, trials):
        # A block of 2^16 draws takes 512 KiB per array of uniforms,
        # bucket numbers or indices, once per share: the 10^6 trials
        # split into 4 shares here, the single trial into one.
        monkeypatch.setattr(adversary, "_usable_cpus", lambda: 4)
        ks = keyset(*texts)
        tracemalloc.start()
        try:
            quantum_coupon_experiment(ks, m, trials, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.fixture
    def shares_run(self, monkeypatch):
        """Run the coupon experiment on the fast path at a given usable-CPU
        count; return its rate and the number of shares it drew in: one
        more than the advanced copies of the caller's generator.

        A short thread switch interval makes the shares interleave finely.
        """
        copies = []
        advanced = adversary._advanced

        def spy(rng, words):
            copies.append(words)
            return advanced(rng, words)

        def run(cpus, ks, m, trials, rng):
            monkeypatch.setattr(adversary, "_usable_cpus", lambda: cpus)
            copies.clear()
            rate = quantum_coupon_experiment(ks, m, trials, rng, oracle_path="fast")
            return rate, len(copies) + 1

        monkeypatch.setattr(adversary, "_advanced", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield run
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "texts,m,trials,buffered,shares",
        [
            # One-hot words, 3276 trials a block: 8 whole blocks and 7 trials.
            (_keys(8, 4), 20, 8 * 3276 + 7, False, (1, 2, 3, 4)),
            (_keys(8, 4), 20, 8 * 3276 + 7, True, (1, 2, 3, 4)),
            # 5 blocks make at most 2 shares; 3 blocks start no thread.
            (_keys(8, 4), 20, 4 * 3276 + 1, True, (1, 2, 2, 2)),
            (_keys(8, 4), 20, 3 * 3276, True, (1, 1, 1, 1)),
            # The bitmap of 65 keys, 198 trials a block.
            (_keys(65, 7), 330, 8 * 198 + 5, True, (1, 2, 3, 4)),
            # Past the chunk a block is one trial, drawn in column chunks.
            (_keys(8, 4), (1 << 16) + 5, 9, True, (1, 2, 3, 4)),
            (_keys(65, 7), (1 << 16) + 5, 9, False, (1, 2, 3, 4)),
        ],
    )
    def test_coupon_shares_match_one_share(
        self, shares_run, texts, m, trials, buffered, shares
    ):
        """At 1-4 usable CPUs, every share count gives the one-share rate
        and end state, with or without a buffered 32-bit half in the
        caller's generator."""
        ks = keyset(*texts)

        def generator():
            rng = np.random.default_rng(17)
            if buffered:
                rng.integers(3)
                assert rng.bit_generator.state["has_uint32"] == 1
            return rng

        reference = generator()
        rate, _ = shares_run(1, ks, m, trials, reference)
        for cpus, used in zip((1, 2, 3, 4), shares):
            rng = generator()
            assert shares_run(cpus, ks, m, trials, rng) == (rate, used)
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "bit_generator,shares",
        [
            (np.random.PCG64DXSM, 3),
            # Philox's advance counts 4-word blocks; the others have none.
            (np.random.Philox, 1),
            (np.random.MT19937, 1),
            (np.random.SFC64, 1),
        ],
    )
    def test_coupon_splits_only_exact_jump_ahead(self, shares_run, bit_generator, shares):
        ks, m, trials = keyset(*_keys(8, 4)), 20, 8 * 3276 + 7
        reference = np.random.Generator(bit_generator(17))
        reference.integers(3)
        rate, _ = shares_run(1, ks, m, trials, reference)
        rng = np.random.Generator(bit_generator(17))
        rng.integers(3)
        assert shares_run(3, ks, m, trials, rng) == (rate, shares)
        assert rng.integers(2**32, size=3).tolist() == reference.integers(2**32, size=3).tolist()
        assert rng.random(3).tolist() == reference.random(3).tolist()

    def test_coupon_shares_only_read_the_sampler(self, monkeypatch, shares_run):
        # The one-hot table is tabulated before the shares start, so no
        # two threads race to write it.
        table = simulator.OutcomeSampler.onehot_table
        caller = threading.current_thread()
        built_in_worker = []

        def spy(sampler, dtype):
            if threading.current_thread() is not caller:
                built = sampler._onehot is not None and sampler._onehot.dtype == dtype
                built_in_worker.append(not built)
            return table(sampler, dtype)

        monkeypatch.setattr(simulator.OutcomeSampler, "onehot_table", spy)
        shares_run(3, keyset(*_keys(8, 4)), 20, 8 * 3276 + 7, np.random.default_rng(17))
        assert built_in_worker and not any(built_in_worker)

    def test_coupon_worker_share_error_raised_in_caller(self, monkeypatch, shares_run):
        word_trials = adversary._word_trials
        caller = threading.current_thread()

        def failing(sampler, rng, *args):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker share failed")
            return word_trials(sampler, rng, *args)

        monkeypatch.setattr(adversary, "_word_trials", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker share failed"):
            shares_run(3, keyset(*_keys(8, 4)), 20, 8 * 3276 + 7, np.random.default_rng(17))
        assert threading.active_count() == before

    def test_small_experiment_allocates_for_its_own_size(self):
        # Ten trials of three draws: a full 2^16-draw block would take
        # 512 KiB per buffer.
        tracemalloc.start()
        try:
            quantum_coupon_experiment(
                keyset("01", "10"), 3, 10, np.random.default_rng(7)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


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
