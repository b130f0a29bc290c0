"""Exact combinatorics: surjection counts, recovery probabilities,
profile-consistent enumeration, guessing bounds."""

import itertools
import re
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest

from multikey_bv import (
    BitSumProfile,
    CapacityError,
    InputError,
    KeySet,
    bit_sum_profile,
    classical_guess_bound,
    classical_guess_exact,
    count_consistent_keysets,
    prob_all_keys,
    prob_two_keys,
    surjection_count,
)
from multikey_bv import analytics
from multikey_bv.analytics import MAX_EXACT_ARG, recovery_grid


def surjections_by_enumeration(m: int, k: int) -> int:
    """Independent oracle: try every function from an m-set to a k-set."""
    hits = 0
    for func in itertools.product(range(k), repeat=m):
        if len(set(func)) == k:
            hits += 1
    return hits


def recovery_by_stirling(k: int, m: int) -> Fraction:
    """Independent route: k! S(m, k) / k**m, with the Stirling number
    S(m, k) from the recurrence S(j, i) = i S(j-1, i) + S(j-1, i-1)."""
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(m):
        row = [0] + [i * row[i] + row[i - 1] for i in range(1, k + 1)]
    return Fraction(factorial(k) * row[k], k**m)


def ordered_hits_by_enumeration(values: tuple[int, ...], n: int) -> tuple[int, int]:
    """Independent oracle for the exact guess probability: count ordered
    column assignments reproducing the multiset, over all assignments."""
    k = len(values)
    counts = [sum((v >> q) & 1 for v in values) for q in range(n)]
    columns = [list(itertools.combinations(range(k), r)) for r in counts]
    hits = total = 0
    target = tuple(sorted(values))
    for assignment in itertools.product(*columns):
        vals = [0] * k
        for q, rows in enumerate(assignment):
            for row in rows:
                vals[row] |= 1 << q
        total += 1
        if tuple(sorted(vals)) == target:
            hits += 1
    return hits, total


class TestSurjectionCount:
    def test_small_cases_frozen(self):
        # brute force over all 2^3 functions: 8 total, 2 constant -> 6
        assert surjections_by_enumeration(3, 2) == 6
        assert surjection_count(3, 2) == 6

    def test_bijection_case(self):
        for k in range(1, 7):
            assert surjection_count(k, k) == factorial(k)

    def test_no_surjection_below_k(self):
        assert surjection_count(2, 3) == 0
        for k in range(1, 6):
            for m in range(k):
                assert surjection_count(m, k) == 0

    def test_matches_enumeration(self):
        for k in range(1, 5):
            for m in range(0, 7):
                assert surjection_count(m, k) == surjections_by_enumeration(m, k)

    def test_ratio_bounded_and_monotone(self):
        for k in range(1, 7):
            prev = Fraction(-1)
            for m in range(0, 31):
                ratio = Fraction(surjection_count(m, k), k**m)
                assert 0 <= ratio <= 1
                assert ratio >= prev
                prev = ratio

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            surjection_count(-1, 2)
        with pytest.raises(InputError):
            surjection_count(3, 0)

    def test_refuses_oversized(self):
        with pytest.raises(CapacityError):
            surjection_count(10**6, 2)

    @pytest.mark.parametrize(
        "k,m",
        [(0, 3), (2, -1), (0, -1), (-5, 5000), (MAX_EXACT_ARG + 1, 3),
         (2, MAX_EXACT_ARG + 1), (MAX_EXACT_ARG + 1, -1)],
    )
    def test_refuses_as_recovery_grid_does(self, k, m):
        # one validator: a single cell fails with the grid's type and text
        with pytest.raises((InputError, CapacityError)) as grid:
            recovery_grid([k], [m])
        with pytest.raises(grid.type, match=f"^{re.escape(str(grid.value))}$"):
            surjection_count(m, k)

    def test_names_k_first_when_both_are_invalid(self):
        with pytest.raises(InputError, match="^k must be >= 1, got 0$"):
            surjection_count(-1, 0)


class TestProbAllKeys:
    def test_matches_two_key_closed_form(self):
        assert prob_all_keys(2, 3).exact == Fraction(3, 4)
        assert prob_all_keys(2, 3).value == 0.75

    def test_zero_below_k(self):
        assert prob_all_keys(4, 3).exact == 0
        assert prob_all_keys(4, 3).value == 0.0

    def test_three_keys_five_draws_frozen(self):
        # brute force over all 3^5 index sequences
        hits = sum(
            1
            for seq in itertools.product(range(3), repeat=5)
            if len(set(seq)) == 3
        )
        assert hits == 150
        assert prob_all_keys(3, 5).exact == Fraction(150, 243)

    def test_double_rendering(self):
        p = prob_all_keys(3, 5)
        assert abs(p.value - 150 / 243) < 1e-12

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        trials = 100_000
        for k in (2, 3, 4, 6):
            for m in (k, k + 2, 2 * k, 20):
                p = prob_all_keys(k, m).value
                draws = rng.integers(k, size=(trials, m))
                ordered = np.sort(draws, axis=1)
                distinct = (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1
                freq = np.count_nonzero(distinct == k) / trials
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / trials)
                assert abs(freq - p) <= 3 * sigma + 1e-12, (k, m, freq, p)


class TestRecoveryGrid:
    def test_matches_stirling_small(self):
        # every k <= 9 and m <= 14, including m < k, m = 0 and k = 1
        cells = list(recovery_grid(range(1, 10), range(15)))
        assert [(p.k, p.m) for p in cells] == [
            (k, m) for k in range(1, 10) for m in range(15)
        ]
        for p in cells:
            assert p.exact == recovery_by_stirling(p.k, p.m), (p.k, p.m)

    def test_non_consecutive_and_unordered_ms(self):
        for ms in ([3, 9, 20], [20, 9, 9, 3, 20]):
            cells = list(recovery_grid([1, 2, 5, 9], ms))
            assert [(p.k, p.m) for p in cells] == [
                (k, m) for k in (1, 2, 5, 9) for m in ms
            ]
            for p in cells:
                assert p.exact == recovery_by_stirling(p.k, p.m), (p.k, p.m)

    def test_large_cell_matches_stirling(self):
        (p,) = recovery_grid([300], [1700])
        assert p.exact == recovery_by_stirling(300, 1700)

    def test_prob_all_keys_and_surjection_count_agree(self):
        for p in recovery_grid(range(1, 7), range(0, 12, 2)):
            assert prob_all_keys(p.k, p.m) == p
            assert p.exact == Fraction(surjection_count(p.m, p.k), p.k**p.m)

    @pytest.mark.parametrize(
        "ks,ms,error,message",
        [
            ([0, 1], [-1, 2], InputError, "k must be >= 1, got 0"),
            ([1, 2], [-1, 2], InputError, "m must be >= 0, got -1"),
            ([4097], [-3], InputError, "m must be >= 0, got -3"),
            ([1, 4097], [0, 5000], CapacityError, r"\(m=5000, k=1\)"),
            ([4097], [5000, 0], CapacityError, r"\(m=5000, k=4097\)"),
            (range(5, 10**11), range(3), CapacityError, r"\(m=0, k=4097\)"),
            (range(1, 3), range(2, 10**11), CapacityError, r"\(m=4097, k=1\)"),
        ],
    )
    def test_first_invalid_cell_refused_at_call(
        self, monkeypatch, ks, ms, error, message
    ):
        # the refusal comes before any cell is computed, even before the
        # returned iterator is advanced
        def no_cells(ks, ms):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(analytics, "_surjection_grid", no_cells)
        with pytest.raises(error, match=message):
            recovery_grid(ks, ms)

    def test_empty_grid(self):
        assert list(recovery_grid([1, MAX_EXACT_ARG + 1], [])) == []
        assert list(recovery_grid([], [3])) == []


class TestProbTwoKeys:
    def test_values(self):
        assert prob_two_keys(2) == Fraction(1, 2)
        assert prob_two_keys(1) == 0
        assert prob_two_keys(0) == 0
        assert prob_two_keys(20) == 1 - Fraction(1, 2**19)

    def test_grid(self):
        # closed form 1 - 2^(1-m) for m in 2..6
        expected = [0.5, 0.75, 0.875, 0.9375, 0.96875]
        got = [float(prob_two_keys(m)) for m in range(2, 7)]
        assert got == expected

    def test_identical_to_general_formula(self):
        for m in range(0, 65):
            assert prob_two_keys(m) == prob_all_keys(2, m).exact


class TestCountConsistent:
    def test_worked_example(self):
        profile = BitSumProfile((3, 3, 1, 2))
        count = count_consistent_keysets(profile, 4, include_multisets=True)
        # product of binomials, cross-checked below by brute force
        assert count.ordered_count == prod(comb(4, r) for r in (3, 3, 1, 2))
        assert count.ordered_count == 384
        assert count.distinct_multiset_count == 12
        assert count.multiset_count == 20
        truth = tuple(sorted((0b0001, 0b0011, 0b1011, 0b1110)))
        assert truth in count.multisets
        assert truth in count.distinct_multisets()

    def test_ordered_count_brute_force(self):
        _, total = ordered_hits_by_enumeration((1, 3, 11, 14), 4)
        assert total == 384

    def test_all_zero_profile(self):
        count = count_consistent_keysets(
            BitSumProfile((0, 0, 0)), 4, include_multisets=True
        )
        assert count.multiset_count == 1
        assert count.multisets == (((0, 0, 0, 0)),)
        assert count.ordered_count == 1

    def test_canonical_sorted_order(self):
        count = count_consistent_keysets(
            BitSumProfile((1, 1)), 2, include_multisets=True
        )
        for ms in count.multisets:
            assert tuple(sorted(ms)) == ms
        assert count.multisets == tuple(sorted(count.multisets))

    def test_orbit_identity_exhaustive(self):
        # sum over consistent multisets of k!/prod(b_i!) recovers the
        # ordered assignment count, for every profile at small sizes
        for k in range(1, 5):
            for n in range(1, 4):
                for counts in itertools.product(range(k + 1), repeat=n):
                    cc = count_consistent_keysets(
                        BitSumProfile(counts), k, include_multisets=True
                    )
                    orbit_sum = 0
                    for ms in cc.multisets:
                        orbit = factorial(k)
                        for b in set(ms):
                            orbit //= factorial(ms.count(b))
                        orbit_sum += orbit
                    assert orbit_sum == cc.ordered_count
                    assert cc.multiset_count <= cc.ordered_count

    def test_matches_brute_force_filter(self):
        # every profile for k <= 5, n <= 3 against a direct filter of all
        # sorted k-tuples of n-bit values by their bit sums
        for k in range(1, 6):
            for n in range(1, 4):
                by_profile: dict[tuple[int, ...], list] = {}
                for ms in itertools.combinations_with_replacement(range(1 << n), k):
                    counts = tuple(sum((v >> q) & 1 for v in ms) for q in range(n))
                    by_profile.setdefault(counts, []).append(ms)
                for counts in itertools.product(range(k + 1), repeat=n):
                    expected = tuple(by_profile.get(counts, ()))
                    cc = count_consistent_keysets(
                        BitSumProfile(counts), k, include_multisets=True
                    )
                    assert cc.multisets == expected
                    assert cc.multiset_count == len(expected)
                    assert cc.distinct_multiset_count == sum(
                        1 for ms in expected if len(set(ms)) == k
                    )

    def test_work_bound_refusal(self):
        profile = BitSumProfile(tuple([10] * 12))
        with pytest.raises(CapacityError, match="work bound"):
            count_consistent_keysets(profile, 20, work_bound=1000)

    def test_work_bound_one_answers_a_single_assignment(self):
        count = count_consistent_keysets(BitSumProfile((0, 1)), 1, work_bound=1)
        assert count.ordered_count == 1
        assert count.multiset_count == 1

    def test_rejects_count_above_k(self):
        with pytest.raises(InputError):
            count_consistent_keysets(BitSumProfile((3,)), 2)


class TestGuessBound:
    def test_worked_example(self):
        bound = classical_guess_bound(BitSumProfile((3, 3, 1, 2)), 4)
        assert bound == Fraction(1, 16)

    def test_pinned_profile(self):
        assert classical_guess_bound(BitSumProfile((0, 4, 4, 0)), 4) == 1

    def test_single_key(self):
        assert classical_guess_bound(BitSumProfile((1, 0, 1)), 1) == 1

    def test_capped_at_one(self):
        # k! above the assignment count must clip to 1
        assert classical_guess_bound(BitSumProfile((1,)), 3) <= 1


class TestBeyondEnumerationCap:
    """The closed-form guess bounds answer any k; only the enumeration
    fold, which sorts a k-row tuple per assignment, is capped."""

    KEYS = KeySet.from_strings(["0000000000000"] * 5000)

    def test_guess_bounds_answer(self):
        assert classical_guess_bound(bit_sum_profile(self.KEYS), 5000) == 1
        assert classical_guess_exact(self.KEYS) == 1

    def test_enumeration_still_refused(self):
        with pytest.raises(
            CapacityError,
            match="^key analysis supports at most 4096 keys, got k=5000$",
        ):
            count_consistent_keysets(bit_sum_profile(self.KEYS), self.KEYS.k)


class TestGuessExact:
    def test_distinct_keys(self):
        ks = KeySet.from_strings(["0001", "0011", "1011", "1110"])
        exact = classical_guess_exact(ks)
        assert exact == Fraction(24, 384) == Fraction(1, 16)
        hits, total = ordered_hits_by_enumeration(ks.values, 4)
        assert Fraction(hits, total) == exact

    def test_duplicated_key_fully_determined(self):
        ks = KeySet.from_strings(["01", "01"])
        assert classical_guess_exact(ks) == 1

    def test_degenerate_example_brute_forced(self):
        # ordered permutations 12 over 64 assignments; verified by the
        # brute-force assignment oracle
        ks = KeySet.from_strings(["010", "011", "011", "101"])
        hits, total = ordered_hits_by_enumeration(ks.values, 3)
        assert (hits, total) == (12, 64)
        assert classical_guess_exact(ks) == Fraction(12, 64) == Fraction(3, 16)

    def test_never_above_one_and_matches_bound_when_distinct(self):
        for values in itertools.combinations_with_replacement(range(8), 3):
            ks = KeySet(tuple(values), 3)
            exact = classical_guess_exact(ks)
            assert exact <= 1
            bound = classical_guess_bound(bit_sum_profile(ks), ks.k)
            if ks.all_distinct() and bound < 1:
                assert exact == bound
