"""Exact combinatorics: surjection counts, recovery probabilities,
profile-consistent enumeration, guessing bounds."""

import itertools
import random
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd, prod

import numpy as np
import pytest

from multikey_bv import (
    CapacityError,
    InputError,
    KeySet,
    bit_sum_profile,
    classical_guess_bound,
    classical_guess_exact,
    count_consistent_keysets,
    multiplicity,
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
        assert prob_all_keys(2, 3) == Fraction(3, 4)
        assert float(prob_all_keys(2, 3)) == 0.75

    def test_zero_below_k(self):
        assert prob_all_keys(4, 3) == 0
        assert float(prob_all_keys(4, 3)) == 0.0

    def test_three_keys_five_draws_frozen(self):
        # brute force over all 3^5 index sequences
        hits = sum(
            1
            for seq in itertools.product(range(3), repeat=5)
            if len(set(seq)) == 3
        )
        assert hits == 150
        assert prob_all_keys(3, 5) == Fraction(150, 243)

    def test_double_rendering(self):
        p = prob_all_keys(3, 5)
        assert abs(float(p) - 150 / 243) < 1e-12

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        trials = 100_000
        for k in (2, 3, 4, 6):
            for m in (k, k + 2, 2 * k, 20):
                p = float(prob_all_keys(k, m))
                draws = rng.integers(k, size=(trials, m))
                ordered = np.sort(draws, axis=1)
                distinct = (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1
                freq = np.count_nonzero(distinct == k) / trials
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / trials)
                assert abs(freq - p) <= 3 * sigma + 1e-12, (k, m, freq, p)


class TestDecimalDigits:
    @pytest.fixture(autouse=True)
    def default_int_str_limit(self):
        # The default limit: str() refuses an int above 4300 digits.
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    def check(self, n):
        assert analytics._decimal_digits(n) == str(Decimal(n)), n.bit_length()

    def test_small_values(self):
        for n in (0, 1, 9, 10, 2**2048 - 1, 2**2048, 2**2048 + 1):
            self.check(n)

    def test_around_powers_of_ten(self):
        # Every split size up to 6,400 digits, the 617-digit leaf size
        # and the 4300-digit str() limit.
        sizes = [617, 4300] + list(range(256, 6401, 256))
        for size in sizes:
            for L in (size - 1, size, size + 1):
                for n in (10**L - 1, 10**L, 10**L + 1):
                    self.check(n)

    def test_zeros_across_the_split(self):
        # The low part has leading zeros, so it must be padded.
        for size in (1024, 2048, 5000, 13000):
            for low in (0, 1, 7 * 10**200, 10**255, 10**size // 3):
                self.check(123456789 * 10**size + low)
                self.check((10**size + low) * 10**size + low)

    def test_random_values(self):
        rng = random.Random(2023)
        for digits in (700, 1500, 4300, 4301, 9000, 15000, 33333, 60000):
            bits = int(digits * 3.3219280948873626)
            for _ in range(2):
                self.check(rng.getrandbits(bits) | 1 << (bits - 1))


class TestRecoveryGrid:
    def test_matches_stirling_small(self):
        # every k <= 9 and m <= 14, including m < k, m = 0 and k = 1
        cells = list(recovery_grid(range(1, 10), range(15)))
        assert [(k, m) for k, m, _ in cells] == [
            (k, m) for k in range(1, 10) for m in range(15)
        ]
        for k, m, p in cells:
            assert p == recovery_by_stirling(k, m), (k, m)

    def test_non_consecutive_and_unordered_ms(self):
        for ms in ([3, 9, 20], [20, 9, 9, 3, 20]):
            cells = list(recovery_grid([1, 2, 5, 9], ms))
            assert [(k, m) for k, m, _ in cells] == [
                (k, m) for k in (1, 2, 5, 9) for m in ms
            ]
            for k, m, p in cells:
                assert p == recovery_by_stirling(k, m), (k, m)

    @pytest.mark.parametrize(
        "ks,ms",
        [
            ([9, 2, 9, 5, 1], [20, 3, 20, 0, 7]),
            ([9, 2, 9, 5, 1], [7, 0, 20, 3, 20]),
            ([3, 12, 1, 12, 4], [12, 30, 11, 4, 40, 4]),
        ],
    )
    def test_unordered_repeated_and_decreasing_ks(self, ks, ms):
        # The power list is shared across ks and the terms are stepped
        # both up and down in m, so no order of either may change a cell.
        cells = list(recovery_grid(ks, ms))
        assert [(k, m) for k, m, _ in cells] == [(k, m) for k in ks for m in ms]
        for k, m, p in cells:
            assert p == recovery_by_stirling(k, m), (k, m)

    @pytest.mark.parametrize(
        "ks,ms",
        [
            ([3, 4, 5, 9, 10], range(0, 20)),
            (range(1, 30), range(25, 31)),
            (range(60, 65), range(200, 206)),
        ],
    )
    def test_rows_by_recurrence_match_cells_alone(self, ks, ms):
        # Consecutive ms and ks one apart take each row after its first
        # cell from the row before; a cell alone is pure
        # inclusion-exclusion.  The runs of ks break at 5 -> 9, the first
        # m lies below some k, and m = 0 and k = 1 appear.
        cells = list(recovery_grid(ks, ms))
        assert [(k, m) for k, m, _ in cells] == [(k, m) for k in ks for m in ms]
        for k, m, p in cells:
            ((_, _, alone),) = recovery_grid([k], [m])
            assert (p.numerator, p.denominator) == (
                alone.numerator,
                alone.denominator,
            ), (k, m)

    def test_large_cell_matches_stirling(self):
        ((_, _, p),) = recovery_grid([300], [1700])
        assert p == recovery_by_stirling(300, 1700)

    @pytest.mark.parametrize("ms", [range(301), range(300, -1, -1)])
    def test_reduced_pairs_equal_fraction(self, ms):
        # Every k <= 64, so m < k, m = 0, k = 1, prime k (61), prime
        # powers (32, 27, 49) and k of several primes (60) all appear,
        # against surjection counts k! S(m, k) from the Stirling rows.
        ks = range(1, 65)
        stirling = {}
        row = [1] + [0] * 64  # S(m, 0..64)
        for m in range(301):
            stirling[m] = row
            row = [0] + [i * row[i] + row[i - 1] for i in range(1, 65)]
        cells = recovery_grid(ks, ms)
        for (k, m, p), (k0, m0) in zip(cells, itertools.product(ks, ms)):
            assert (k, m) == (k0, m0)
            expected = Fraction(factorial(k) * stirling[m][k], k**m)
            assert (p.numerator, p.denominator) == (
                expected.numerator,
                expected.denominator,
            ), (k, m)

    def test_largest_cell_is_reduced(self):
        # surjections(k, k) = k!, and 4096 = 2^12: the reduced
        # denominator is a power of two and the numerator is odd.
        ((_, _, p),) = recovery_grid([4096], [4096])
        expected = Fraction(factorial(4096), 4096**4096)
        assert (p.numerator, p.denominator) == (
            expected.numerator,
            expected.denominator,
        )
        assert p.denominator & (p.denominator - 1) == 0
        assert p.numerator % 2 == 1

    @pytest.mark.parametrize(
        "count,k,m",
        [
            (3**10, 6, 2),  # v_3 = 10 above e m = 2
            (2**9 * 5, 12, 3),  # v_2 = 9 above e m = 6
            (7**40 * 11, 49, 3),  # v_7 = 40 above e m = 6
            (3**37 * 2**5 * 13, 60, 20),
            (5**64, 25, 40),  # v_5 = 64 below e m = 80
            (9, 3, 1),  # v_3 = 2 above e m = 1
            (2**3 * 5**7, 10, 3),  # v_5 = 7 above e m = 3
            (17, 1, 9),
            (0, 30, 4),
        ],
    )
    def test_lowest_terms_caps_each_prime_at_k_to_the_m(self, count, k, m):
        p = analytics._lowest_terms(count, k, m, k**m)
        expected = Fraction(count, k**m)
        assert (p.numerator, p.denominator) == (
            expected.numerator,
            expected.denominator,
        )

    def test_cells_are_real_fractions(self):
        # Unordered ks extend the shared power list over even, odd
        # composite, prime-power and prime j (9, 25, 27, 49, 81, 97).
        ks, ms = [7, 64, 30, 97], [0, 7, 130, 64, 97, 200]
        cells = list(recovery_grid(ks, ms))
        assert [(k, m) for k, m, _ in cells] == [(k, m) for k in ks for m in ms]
        for k, m, p in cells:
            n, d = p.numerator, p.denominator
            assert type(p) is Fraction
            assert d > 0 and gcd(n, d) == 1
            assert hash(p) == hash(Fraction(n, d))
            assert p + 0 == p and p * 1 == p
            assert p == recovery_by_stirling(k, m), (k, m)

    def test_prob_all_keys_and_surjection_count_agree(self):
        for k, m, p in recovery_grid(range(1, 7), range(0, 12, 2)):
            assert prob_all_keys(k, m) == p
            assert p == Fraction(surjection_count(m, k), k**m)

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
            assert prob_two_keys(m) == prob_all_keys(2, m)


class TestCountConsistent:
    def test_worked_example(self):
        profile = (3, 3, 1, 2)
        count = count_consistent_keysets(profile, 4)
        # product of binomials, cross-checked below by brute force
        assert count.ordered_count == prod(comb(4, r) for r in (3, 3, 1, 2))
        assert count.ordered_count == 384
        assert count.distinct_multiset_count == 12
        assert count.multiset_count == 20
        truth = tuple(sorted((0b0001, 0b0011, 0b1011, 0b1110)))
        # sorted on first read, not by the fold, and then kept
        assert "multisets" not in vars(count)
        assert truth in count.multisets
        assert count.multisets is count.multisets
        assert truth in count.distinct_multisets()

    def test_ordered_count_brute_force(self):
        _, total = ordered_hits_by_enumeration((1, 3, 11, 14), 4)
        assert total == 384

    def test_all_zero_profile(self):
        count = count_consistent_keysets((0, 0, 0), 4)
        assert count.multiset_count == 1
        assert count.multisets == (((0, 0, 0, 0)),)
        assert count.ordered_count == 1

    def test_canonical_sorted_order(self):
        count = count_consistent_keysets((1, 1), 2)
        for ms in count.multisets:
            assert tuple(sorted(ms)) == ms
        assert count.multisets == tuple(sorted(count.multisets))

    def test_orbit_identity_exhaustive(self):
        # sum over consistent multisets of k!/prod(b_i!) recovers the
        # ordered assignment count, for every profile at small sizes
        for k in range(1, 5):
            for n in range(1, 4):
                for counts in itertools.product(range(k + 1), repeat=n):
                    cc = count_consistent_keysets(counts, k)
                    orbit_sum = 0
                    for ms in cc.multisets:
                        orbit = factorial(k)
                        for b in set(ms):
                            orbit //= factorial(ms.count(b))
                        orbit_sum += orbit
                    assert orbit_sum == cc.ordered_count
                    assert cc.multiset_count <= cc.ordered_count

    def test_matches_brute_force_filter(self):
        # every profile for k <= 5, n <= 4 against a direct filter of all
        # sorted k-tuples of n-bit values by their bit sums
        for k in range(1, 6):
            for n in range(1, 5):
                by_profile: dict[tuple[int, ...], list] = {}
                for ms in itertools.combinations_with_replacement(range(1 << n), k):
                    counts = tuple(sum((v >> q) & 1 for v in ms) for q in range(n))
                    by_profile.setdefault(counts, []).append(ms)
                for counts in itertools.product(range(k + 1), repeat=n):
                    expected = tuple(by_profile.get(counts, ()))
                    cc = count_consistent_keysets(counts, k)
                    assert cc.multisets == expected
                    assert cc.multiset_count == len(expected)
                    assert cc.distinct_multiset_count == sum(
                        1 for ms in expected if len(set(ms)) == k
                    )

    def test_work_bound_refusal(self):
        profile = (10,) * 12
        with pytest.raises(CapacityError, match="work bound"):
            count_consistent_keysets(profile, 20, work_bound=1000)

    def test_work_bound_one_answers_a_single_assignment(self):
        count = count_consistent_keysets((0, 1), 1, work_bound=1)
        assert count.ordered_count == 1
        assert count.multiset_count == 1

    def test_rejects_count_above_k(self):
        with pytest.raises(InputError):
            count_consistent_keysets((3,), 2)

    def test_more_than_64_branching_positions_refused(self, monkeypatch):
        # A table value holds one bit per position with 0 < r_q < k.  65
        # such positions pass only a work bound of at least 2^65, and are
        # refused before the fold allocates anything.
        def fail(*args):
            raise AssertionError("the fold ran")

        monkeypatch.setattr(analytics, "_next_level", fail)
        monkeypatch.setattr(analytics, "_lexicographic", fail)
        message = (
            "^enumeration supports at most 64 branching positions "
            r"\(0 < ones < k\), got 65$"
        )
        profile = (1, 0, 2) + (1,) * 64
        with pytest.raises(CapacityError, match=message):
            count_consistent_keysets(profile, 2, work_bound=2**70)
        with pytest.raises(CapacityError, match=message):
            analytics.check_work_bound(profile, 2, 2**65)
        # The work bound still refuses first, and 64 positions pass.
        with pytest.raises(CapacityError, match="work bound is"):
            analytics.check_work_bound(profile, 2, 2**65 - 1)
        assert analytics.check_work_bound(profile[1:], 2, 2**64) == 2**64

    @pytest.mark.parametrize(
        "profile,k", [((1, 19, 1, 1), 20), ((2, 1, 30, 1), 30), ((1, 1, 0, 40, 1, 1), 40)]
    )
    def test_rows_wider_than_one_word(self, profile, k):
        # k values of len(positions) bits each exceed 64 bits, so rows
        # sort by several packed words.
        count = count_consistent_keysets(profile, k)
        assert k * len(count.positions) > 64
        assert count.multisets == tuple(sorted(set(count.multisets)))
        assert all(tuple(sorted(ms)) == ms for ms in count.multisets)
        orbits = sum(
            factorial(k) // prod(factorial(c) for c in Counter(ms).values())
            for ms in count.multisets
        )
        assert orbits == count.ordered_count

    def test_table_holds_only_branching_positions(self):
        # Positions 1 and 3 have r = k, position 2 has r = 0.
        count = count_consistent_keysets((1, 2, 0, 2, 1), 2)
        assert count.positions == (0, 4)
        assert count.constant == 0b01010
        assert count.table.dtype == np.uint64
        assert count.table.tolist() == [[0, 3], [1, 2]]
        assert count.multisets == ((0b01010, 0b11011), (0b01011, 0b11010))
        assert count.expand([3]) == [0b11011]
        assert count.compress([0b11011, 0b01010]) == [3, 0]
        assert count.duplicate_free.tolist() == [True, True]


# Every reader of a profile, each at k = 2.
PROFILE_READERS = {
    "check_work_bound": lambda profile: analytics.check_work_bound(
        profile, 2, analytics.DEFAULT_WORK_BOUND
    ),
    "count_consistent_keysets": lambda profile: count_consistent_keysets(profile, 2),
    "classical_guess_bound": lambda profile: classical_guess_bound(profile, 2),
    "classical_guess_exact": lambda profile: classical_guess_exact(
        profile, multiplicity(KeySet((0, 1), 1))
    ),
}


@pytest.mark.parametrize("reader", PROFILE_READERS)
@pytest.mark.parametrize(
    "profile,message",
    [
        ((), "profile needs at least one position"),
        ((1, -1), "negative count -1 at position 1"),
        ((3,), "profile count 3 at position 0 exceeds k=2"),
    ],
)
def test_every_profile_reader_refuses_an_invalid_profile(reader, profile, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PROFILE_READERS[reader](profile)


def test_work_bound_checked_before_the_profile():
    with pytest.raises(InputError, match="^work bound must be >= 1, got 0$"):
        analytics.check_work_bound((-1,), 2, 0)


class TestGuessBound:
    def test_worked_example(self):
        bound = classical_guess_bound((3, 3, 1, 2), 4)
        assert bound == Fraction(1, 16)

    def test_pinned_profile(self):
        assert classical_guess_bound((0, 4, 4, 0), 4) == 1

    def test_single_key(self):
        assert classical_guess_bound((1, 0, 1), 1) == 1

    def test_capped_at_one(self):
        # k! above the assignment count must clip to 1
        assert classical_guess_bound((1,), 3) <= 1


class TestBeyondEnumerationCap:
    """The closed-form guess bounds answer any k; only the enumeration,
    whose subset blocks are k columns wide, is capped."""

    KEYS = KeySet.from_strings(["0000000000000"] * 5000)

    def test_guess_bounds_answer(self):
        assert classical_guess_bound(bit_sum_profile(self.KEYS), 5000) == 1
        assert guess_exact(self.KEYS) == 1

    def test_enumeration_still_refused(self):
        with pytest.raises(
            CapacityError,
            match="^key analysis supports at most 4096 keys, got k=5000$",
        ):
            count_consistent_keysets(bit_sum_profile(self.KEYS), self.KEYS.k)


def guess_exact(ks: KeySet) -> Fraction:
    """`classical_guess_exact` from the key set's own profile and multiplicity."""
    return classical_guess_exact(bit_sum_profile(ks), multiplicity(ks))


class TestGuessExact:
    def test_distinct_keys(self):
        ks = KeySet.from_strings(["0001", "0011", "1011", "1110"])
        exact = guess_exact(ks)
        assert exact == Fraction(24, 384) == Fraction(1, 16)
        hits, total = ordered_hits_by_enumeration(ks.values, 4)
        assert Fraction(hits, total) == exact

    def test_duplicated_key_fully_determined(self):
        ks = KeySet.from_strings(["01", "01"])
        assert guess_exact(ks) == 1

    def test_degenerate_example_brute_forced(self):
        # ordered permutations 12 over 64 assignments; verified by the
        # brute-force assignment oracle
        ks = KeySet.from_strings(["010", "011", "011", "101"])
        hits, total = ordered_hits_by_enumeration(ks.values, 3)
        assert (hits, total) == (12, 64)
        assert guess_exact(ks) == Fraction(12, 64) == Fraction(3, 16)

    def test_never_above_one_and_matches_bound_when_distinct(self):
        for values in itertools.combinations_with_replacement(range(8), 3):
            ks = KeySet(tuple(values), 3)
            exact = guess_exact(ks)
            assert exact <= 1
            bound = classical_guess_bound(bit_sum_profile(ks), ks.k)
            if ks.all_distinct() and bound < 1:
                assert exact == bound

    def test_profile_and_multiplicity_give_the_key_set_formula(self):
        # Every key set above and the one beyond the enumeration cap:
        # (k! / prod b_i!) / prod_q C(k, r_q), counted from the values.
        cases = [
            KeySet.from_strings(texts)
            for texts in (["0001", "0011", "1011", "1110"], ["01", "01"], ["010", "011", "011", "101"])
        ]
        cases += [KeySet(values, 3) for values in itertools.combinations_with_replacement(range(8), 3)]
        cases.append(TestBeyondEnumerationCap.KEYS)
        for ks in cases:
            k = ks.k
            perms = factorial(k) // prod(map(factorial, Counter(ks.values).values()))
            ordered = prod(comb(k, sum(v >> q & 1 for v in ks.values)) for q in range(ks.n))
            assert guess_exact(ks) == Fraction(perms, ordered), ks.values
