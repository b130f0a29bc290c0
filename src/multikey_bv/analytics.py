"""Exact combinatorics of key recovery.

All probabilities are computed as exact rationals (`fractions.Fraction`)
and only rendered to floats at the edges.  Counting is plain integer
arithmetic; Python integers never overflow, but absurdly large requests
are refused instead of grinding through million-digit numbers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, log10, prod
from operator import mul

from .errors import CapacityError, InputError
from .keyspace import BitSumProfile, KeySet, bit_sum_profile, multiplicity

MAX_EXACT_ARG = 4096
DEFAULT_WORK_BOUND = 10_000_000


def _check_exact_range(m: int, k: int) -> None:
    if m > MAX_EXACT_ARG or k > MAX_EXACT_ARG:
        raise CapacityError(
            f"(m={m}, k={k}) exceeds the supported exact-arithmetic range "
            f"(both must be <= {MAX_EXACT_ARG})"
        )


def _check_cell(k: int, m: int) -> None:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    _check_exact_range(m, k)


def _check_grid(ks: Sequence[int], ms: Sequence[int]) -> None:
    """Raise the error of the first invalid (k, m) cell in k-major order.

    Every valid k and m lies in [0, MAX_EXACT_ARG], so each scan stops
    within MAX_EXACT_ARG + 2 entries of a range, however long the range.
    """
    if not ms:
        return
    bad_m = next((m for m in ms if not 0 <= m <= MAX_EXACT_ARG), None)
    for k in ks:
        if not 1 <= k <= MAX_EXACT_ARG:
            _check_cell(k, ms[0])
        if bad_m is not None:
            _check_cell(k, bad_m)


def _surjection_grid(
    ks: Iterable[int], ms: Sequence[int]
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, m, surjections(m, k), k**m) for every cell, k-major.

    Inclusion-exclusion: surjections(m, k) = sum_j (-1)^(k-j) C(k,j) j^m
    over j = 0..k, which holds for m >= 1; m < k gives 0 directly.  Per
    k the signed binomial row is built once, and the powers j^m are
    raised once and then stepped to each later m by j^(m - prev), so
    memory holds one row and one power list whatever the grid's size.
    """
    for k in ks:
        row = powers = None
        prev = 0
        for m in ms:
            if m < k:
                yield k, m, 0, k**m
                continue
            if row is None:
                row = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
            if powers is None or m < prev:
                powers = [j**m for j in range(k + 1)]
            elif m > prev:
                step = m - prev
                for j in range(k + 1):
                    powers[j] *= j**step
            prev = m
            yield k, m, sum(map(mul, row, powers)), powers[k]


def surjection_count(m: int, k: int) -> int:
    """Number of surjections from an m-element set onto a k-element set.

    Exact, from the inclusion-exclusion sum of `recovery_grid`.
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    _check_exact_range(m, k)
    return next(_surjection_grid([k], [m]))[2]


@dataclass(frozen=True)
class RecoveryProbability:
    """Probability that m uniform draws from k equiprobable keys
    reveal all k of them, as an exact rational plus float rendering."""

    k: int
    m: int
    exact: Fraction

    @property
    def value(self) -> float:
        return float(self.exact)


def recovery_grid(
    ks: Sequence[int], ms: Sequence[int]
) -> Iterator[RecoveryProbability]:
    """All-keys recovery probability surjections(m, k) / k**m for every
    k in ks and m in ms, k-major.

    The whole grid is checked before any cell is computed: an invalid
    cell raises at the call, with the error the first invalid cell in
    k-major order would give.  Cells then come one at a time, so pass
    ranges for large grids.  `ms` is iterated once per k.
    """
    _check_grid(ks, ms)
    return (
        RecoveryProbability(k, m, Fraction(count, total))
        for k, m, count, total in _surjection_grid(ks, ms)
    )


def prob_all_keys(k: int, m: int) -> RecoveryProbability:
    """All-keys recovery probability: surjections(m, k) / k**m."""
    return next(recovery_grid([k], [m]))


def prob_two_keys(m: int) -> Fraction:
    """Two-key recovery probability, closed form: 1 - 2^(1-m) for m >= 2."""
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    if m < 2:
        return Fraction(0)
    return 1 - Fraction(1, 1 << (m - 1))


@dataclass(frozen=True)
class ConsistencyCount:
    """Counts of key assignments consistent with a bit-sum profile.

    `ordered_count` is the product over positions of C(k, r_q): the
    number of ways to pick, independently per bit position, which of the
    k ordered slots receive a 1.  `multiset_count` counts the distinct
    unordered multisets those assignments produce (duplicate keys
    allowed inside a multiset); `distinct_multiset_count` counts only
    the duplicate-free ones, which is the combination count a guesser
    who knows the keys are pairwise distinct would work from.
    """

    profile: BitSumProfile
    k: int
    n: int
    ordered_count: int
    multiset_count: int
    distinct_multiset_count: int
    multisets: tuple[tuple[int, ...], ...] | None = None

    def distinct_multisets(self) -> tuple[tuple[int, ...], ...]:
        if self.multisets is None:
            raise InputError("enumeration list was not requested")
        return tuple(
            ms for ms in self.multisets if len(set(ms)) == len(ms)
        )


def _ordered_count(profile: BitSumProfile, k: int) -> int:
    """prod_q C(k, r_q): the ordered column assignments matching a profile."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    # The fold sorts a k-row tuple per ordered assignment, so k is
    # capped even where the count itself is small.
    if k > MAX_EXACT_ARG:
        raise CapacityError(
            f"key analysis supports at most {MAX_EXACT_ARG} keys, got k={k}"
        )
    for q, r in enumerate(profile.counts):
        if r > k:
            raise InputError(
                f"profile count {r} at position {q} exceeds k={k}"
            )
    return prod(comb(k, r) for r in profile.counts)


def count_consistent_keysets(
    profile: BitSumProfile,
    k: int,
    include_multisets: bool = False,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> ConsistencyCount:
    """Enumerate every key multiset consistent with a bit-sum profile.

    Folds over bit positions: starting from k zero rows, position q
    turns each partial multiset (a sorted tuple of row values) into its
    children by setting bit q on every r_q-subset of rows, and merges
    duplicates before the next position.  Rows are interchangeable, so
    merging early yields exactly the multisets of the full ordered
    walk.  Refuses instances whose ordered assignment count
    prod_q C(k, r_q), which bounds the fold's work, exceeds `work_bound`;
    every such count is at least 1, so a `work_bound` below 1 is an
    input error.
    """
    if work_bound < 1:
        raise InputError(f"work bound must be >= 1, got {work_bound}")
    ordered = _ordered_count(profile, k)
    if ordered > work_bound:
        # A count of thousands of digits is stated by size: str() stops
        # at 4300 digits, and the message stays one short line.
        size = ordered if ordered < 10**20 else f"about 10^{int(log10(ordered))}"
        raise CapacityError(
            f"enumeration needs {size} ordered assignments, "
            f"work bound is {work_bound}"
        )
    level = {(0,) * k}
    for q, r in enumerate(profile.counts):
        bit = 1 << q
        children = set()
        for ms in level:
            for rows in itertools.combinations(range(k), r):
                child = list(ms)
                for i in rows:
                    child[i] |= bit
                child.sort()
                children.add(tuple(child))
        level = children
    distinct_free = sum(1 for ms in level if len(set(ms)) == len(ms))
    return ConsistencyCount(
        profile=profile,
        k=k,
        n=profile.n,
        ordered_count=ordered,
        multiset_count=len(level),
        distinct_multiset_count=distinct_free,
        multisets=tuple(sorted(level)) if include_multisets else None,
    )


def classical_guess_bound(profile: BitSumProfile, k: int) -> Fraction:
    """Upper bound on guessing all keys from an exact bit-sum profile:
    min(k! / prod_q C(k, r_q), 1)."""
    ordered = _ordered_count(profile, k)
    return min(Fraction(factorial(k), ordered), Fraction(1))


def classical_guess_exact(keys: KeySet) -> Fraction:
    """Exact probability that a uniformly drawn ordered assignment
    consistent with the keys' own bit-sum profile reproduces them:
    (k! / prod b_i!) / prod_q C(k, r_q)."""
    ordered = _ordered_count(bit_sum_profile(keys), keys.k)
    return Fraction(multiplicity(keys).permutations, ordered)


def probability_record(formula: str, inputs: dict, exact: Fraction) -> dict:
    """Serialization shape shared by every exact probability result."""
    return {
        "formula": formula,
        "inputs": inputs,
        "rational": {
            # Decimal renders ints of any size; str() stops at 4300 digits.
            "num": str(Decimal(exact.numerator)),
            "den": str(Decimal(exact.denominator)),
        },
        "double": float(exact),
    }
