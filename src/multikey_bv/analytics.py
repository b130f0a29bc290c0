"""Exact combinatorics of key recovery.

Every probability is returned as an exact `fractions.Fraction` and
only rendered to a float at the edges.  A bit-sum profile is a tuple
of counts, one per bit position, checked against k by `_ordered_count`
wherever it is read.  Counting is plain integer arithmetic; Python
integers never overflow, but absurdly large requests are refused
instead of grinding through million-digit numbers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence, Set
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, log10, prod

from .errors import CapacityError, InputError
from .keyspace import KeyMultiplicity

MAX_EXACT_ARG = 4096
DEFAULT_WORK_BOUND = 10_000_000


def _check_grid(ks: Sequence[int], ms: Sequence[int]) -> None:
    """Raise the error of the first invalid (k, m) cell in k-major order.

    Every valid k and m lies in [0, MAX_EXACT_ARG], so each scan stops
    within MAX_EXACT_ARG + 2 entries of a range, however long the range.
    """
    if not ms:
        return
    bad_m = next((m for m in ms if not 0 <= m <= MAX_EXACT_ARG), None)
    for k in ks:
        # A bad k spoils its whole row, so its first cell is the first bad one.
        m = bad_m if 1 <= k <= MAX_EXACT_ARG else ms[0]
        if m is None:
            continue
        if k < 1:
            raise InputError(f"k must be >= 1, got {k}")
        if m < 0:
            raise InputError(f"m must be >= 0, got {m}")
        raise CapacityError(
            f"(m={m}, k={k}) exceeds the supported exact-arithmetic range "
            f"(both must be <= {MAX_EXACT_ARG})"
        )


def _surjection_grid(
    ks: Iterable[int], ms: Sequence[int]
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, m, surjections(m, k), k**m) for every cell, k-major.

    Inclusion-exclusion: surjections(m, k) = sum_j (-1)^(k-j) C(k,j) j^m
    over j = 1..k, which holds for m >= 1; m < k gives 0 directly.  The
    powers j^m0, m0 the first computed cell's m, are raised once per
    grid and extended as k grows.  Per k the signed terms
    (-1)^(k-j) C(k,j) j^m0 are built from them once, the binomials by
    the recurrence C(k,j) = C(k,j-1) (k-j+1) / j, and stepped to each
    later m by j^(m - prev), multiplying up or dividing exactly down.
    So a cell one m after the last costs k small multiplies and k
    additions, and the term at j = k is k^m.  Memory holds the power
    list of the largest k so far and, while stepping, two lists of one
    k's terms.
    """
    powers: list[int] = []  # powers[j - 1] == j**m0
    m0 = 0
    for k in ks:
        terms: list[int] = []
        for m in ms:
            if m < k:
                yield k, m, 0, k**m
                continue
            if not terms:
                if not powers:
                    m0 = m
                powers += [j**m0 for j in range(len(powers) + 1, k + 1)]
                c = (-1) ** k  # (-1)^(k-j) C(k, j) at j = 0
                for j, p in zip(range(1, k + 1), powers):
                    c = -c * (k - j + 1) // j
                    terms.append(c * p)
                prev = m0
            if m > prev:
                terms = [t * j ** (m - prev) for j, t in enumerate(terms, 1)]
            elif m < prev:
                terms = [t // j ** (prev - m) for j, t in enumerate(terms, 1)]
            prev = m
            yield k, m, sum(terms), terms[-1]


def surjection_count(m: int, k: int) -> int:
    """Number of surjections from an m-element set onto a k-element set.

    Exact, from the inclusion-exclusion sum of `recovery_grid`.
    """
    _check_grid([k], [m])
    return next(_surjection_grid([k], [m]))[2]


def recovery_grid(
    ks: Sequence[int], ms: Sequence[int]
) -> Iterator[tuple[int, int, Fraction]]:
    """Yield (k, m, surjections(m, k) / k**m), the probability that m
    uniform draws from k equiprobable keys reveal all k of them, for
    every k in ks and m in ms, k-major.

    The whole grid is checked before any cell is computed: an invalid
    cell raises at the call, with the error the first invalid cell in
    k-major order would give.  Cells then come one at a time, so pass
    ranges for large grids.  `ms` is iterated once per k.  Each k's
    first cell multiplies k stored powers j^m0 by their binomials; each
    later cell steps those terms in m, which for consecutive ms is k
    small multiplies, so ascending ranges are the cheapest order.
    """
    _check_grid(ks, ms)
    return (
        (k, m, Fraction(count, total))
        for k, m, count, total in _surjection_grid(ks, ms)
    )


def prob_all_keys(k: int, m: int) -> Fraction:
    """All-keys recovery probability: surjections(m, k) / k**m."""
    return next(recovery_grid([k], [m]))[2]


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
    who knows the keys are pairwise distinct would work from.  `found`
    is the fold's own set of multisets, kept as built; `multisets`
    sorts it on first read.
    """

    ordered_count: int
    found: Set[tuple[int, ...]] = field(repr=False)

    @property
    def multiset_count(self) -> int:
        return len(self.found)

    @cached_property
    def distinct_multiset_count(self) -> int:
        return sum(1 for ms in self.found if len(set(ms)) == len(ms))

    @cached_property
    def multisets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.found))

    def distinct_multisets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            ms for ms in self.multisets if len(set(ms)) == len(ms)
        )


def _ordered_count(profile: tuple[int, ...], k: int) -> int:
    """prod_q C(k, r_q): the ordered column assignments matching a
    profile, which must hold at least one count, each in [0, k]."""
    if not profile:
        raise InputError("profile needs at least one position")
    if min(profile) < 0:
        q, c = next((q, c) for q, c in enumerate(profile) if c < 0)
        raise InputError(f"negative count {c} at position {q}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if max(profile) > k:
        q, r = next((q, r) for q, r in enumerate(profile) if r > k)
        raise InputError(f"profile count {r} at position {q} exceeds k={k}")
    return prod(comb(k, r) for r in profile)


def check_work_bound(profile: tuple[int, ...], k: int, work_bound: int) -> int:
    """The ordered assignment count prod_q C(k, r_q), which bounds the
    work of `count_consistent_keysets`, refused above `work_bound`.  Every
    such count is at least 1, so a `work_bound` below 1 is an input error."""
    if work_bound < 1:
        raise InputError(f"work bound must be >= 1, got {work_bound}")
    # The fold sorts a k-row tuple per ordered assignment, so k is
    # capped even where the count itself is small.
    if k > MAX_EXACT_ARG:
        raise CapacityError(
            f"key analysis supports at most {MAX_EXACT_ARG} keys, got k={k}"
        )
    ordered = _ordered_count(profile, k)
    if ordered > work_bound:
        # A count of thousands of digits is stated by size: str() stops
        # at 4300 digits, and the message stays one short line.
        size = ordered if ordered < 10**20 else f"about 10^{int(log10(ordered))}"
        raise CapacityError(
            f"enumeration needs {size} ordered assignments, "
            f"work bound is {work_bound}"
        )
    return ordered


def count_consistent_keysets(
    profile: tuple[int, ...], k: int, work_bound: int = DEFAULT_WORK_BOUND
) -> ConsistencyCount:
    """Enumerate every key multiset consistent with a bit-sum profile.

    Folds over bit positions: starting from k zero rows, position q
    turns each partial multiset (a sorted tuple of row values) into its
    children by setting bit q on every r_q-subset of rows, and merges
    duplicates before the next position.  Rows are interchangeable, so
    merging early yields exactly the multisets of the full ordered
    walk.  Instances the work bound refuses (`check_work_bound`) are
    refused before the fold.
    """
    ordered = check_work_bound(profile, k, work_bound)
    level = {(0,) * k}
    for q, r in enumerate(profile):
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
    return ConsistencyCount(ordered, level)


def classical_guess_bound(profile: tuple[int, ...], k: int) -> Fraction:
    """Upper bound on guessing all keys from an exact bit-sum profile:
    min(k! / prod_q C(k, r_q), 1)."""
    ordered = _ordered_count(profile, k)
    return min(Fraction(factorial(k), ordered), Fraction(1))


def classical_guess_exact(profile: tuple[int, ...], mult: KeyMultiplicity) -> Fraction:
    """Exact probability that a uniformly drawn ordered assignment
    consistent with a key multiset's own bit-sum profile reproduces it:
    (k! / prod b_i!) / prod_q C(k, r_q), from the multiset's profile and
    multiplicity."""
    ordered = _ordered_count(profile, sum(mult.counts))
    return Fraction(mult.permutations, ordered)


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
