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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, isqrt, log10, prod

import numpy as np

from .errors import CapacityError, InputError
from .keyspace import KeyMultiplicity

MAX_EXACT_ARG = 4096
DEFAULT_WORK_BOUND = 10_000_000
# Bits in one enumeration table value: the most branching positions.
_VALUE_BITS = 64
# Entries per temporary block of the enumeration fold.
_FOLD_BLOCK = 1 << 16


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


def _smallest_prime(j: int) -> int:
    """The smallest prime factor of j >= 2."""
    return next((p for p in range(2, isqrt(j) + 1) if j % p == 0), j)


def _surjection_grid(
    ks: Iterable[int], ms: Sequence[int]
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, m, surjections(m, k), k**m) for every cell, k-major.

    Inclusion-exclusion: surjections(m, k) = sum_j (-1)^(k-j) C(k,j) j^m
    over j = 1..k, which holds for m >= 1; m < k gives 0 directly.  The
    powers j^m0, m0 the first computed cell's m, are built once per
    grid and extended as k grows, each from smaller ones: j^m0 is
    (j/2)^m0 << m0 for even j and p^m0 (j/p)^m0 for odd composite j, p
    its smallest prime factor, so only primes are raised with `**`.
    Per k the signed terms (-1)^(k-j) C(k,j) j^m0 are built from them
    once, the binomials by the recurrence C(k,j) = C(k,j-1) (k-j+1) / j,
    and stepped to each later m by j^(m - prev), multiplying up or
    dividing exactly down.  So a cell one m after the last costs k small
    multiplies and k additions, and the term at j = k is k^m.

    When `ms` is consecutive and ascending and the k before was k - 1,
    every cell of the row after its first comes instead from the
    recurrence surjections(m, k) = k (surjections(m-1, k) +
    surjections(m-1, k-1)), which also gives the zeros of m < k: one
    addition and one small multiply, and k**m is the cell before's
    total times k.  Only then is a row kept, and such ms lie in
    [0, MAX_EXACT_ARG], so the two rows held, the previous k's and the
    current one, hold at most MAX_EXACT_ARG + 1 counts each.  Memory
    also holds the power list of the largest k so far and, while
    stepping, two lists of one k's terms.
    """
    powers: list[int] = []  # powers[j - 1] == j**m0
    m0 = 0
    consecutive = all(m == ms[0] + i for i, m in enumerate(ms))
    row: list[int] | None = None  # the last k's counts, for consecutive ms
    last_k = None
    for k in ks:
        above = row if last_k == k - 1 else None
        row = [] if consecutive else None
        last_k = k
        terms: list[int] = []
        for i, m in enumerate(ms):
            if above is not None and i:
                count = k * (count + above[i - 1])
                total *= k
            elif m < k:
                count, total = 0, k**m
            else:
                if not terms:
                    if not powers:
                        m0 = m
                        powers.append(1)
                    for j in range(len(powers) + 1, k + 1):
                        p = _smallest_prime(j)
                        if p == 2:
                            powers.append(powers[j // 2 - 1] << m0)
                        elif p < j:
                            powers.append(powers[p - 1] * powers[j // p - 1])
                        else:
                            powers.append(j**m0)
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
                count, total = sum(terms), terms[-1]
            if row is not None:
                row.append(count)
            yield k, m, count, total


def _strip(n: int, p: int, limit: int) -> tuple[int, int]:
    """(n / p^v, p^v) for v = min(v_p(n), limit) and n > 0.

    Divides by p, p^2, p^4, ... while they divide and fit the limit,
    then tries the same powers downwards, so v costs about 2 log2(v)
    divisions instead of v.
    """
    squares = []
    q, e = p, 1
    while e <= limit:
        d, r = divmod(n, q)
        if r:
            break
        n, limit = d, limit - e
        squares.append((q, e))
        q, e = q * q, 2 * e
    v = sum(e for _, e in squares)
    for q, e in reversed(squares):
        if e <= limit:
            d, r = divmod(n, q)
            if not r:
                n, limit, v = d, limit - e, v + e
    return n, p**v


def _lowest_terms(count: int, k: int, m: int, total: int) -> Fraction:
    """count / total in lowest terms, for total = k**m.

    total has only k's primes, so the gcd is the product, over each p^e
    exactly dividing k, of p^min(v_p(count), e m): a shift for p = 2,
    `_strip` for odd p.  The coprime pair then becomes a Fraction
    without the second gcd `Fraction(n, d)` would run.
    """
    if not count:
        return _coprime_fraction(0, 1)
    g = 1
    while k > 1:
        p = _smallest_prime(k)
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if p == 2:
            v = min((count & -count).bit_length() - 1, e * m)
            count >>= v
            g <<= v
        else:
            count, q = _strip(count, p, e * m)
            g *= q
    return _coprime_fraction(count, total // g)


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction of a coprime pair with a positive denominator, its two
    slots set directly as Python 3.12's `Fraction._from_coprime_ints` does;
    3.10 and 3.11 have the same slots but not that constructor."""
    fraction = object.__new__(Fraction)
    fraction._numerator = numerator
    fraction._denominator = denominator
    return fraction


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
    later cell steps those terms in m, k small multiplies for the next
    m.  When ms is consecutive and ascending and the k before was k - 1,
    each later cell instead comes from the row before by the surjection
    recurrence, one addition and one small multiply, so ascending ranges
    of both are the cheapest order.  Each cell's fraction is reduced by
    dividing out k's own primes, the only ones k**m has, instead of by
    a general gcd.
    """
    _check_grid(ks, ms)
    return (
        (k, m, _lowest_terms(count, k, m, total))
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


@dataclass(frozen=True, eq=False)
class ConsistencyCount:
    """Counts of key assignments consistent with a bit-sum profile, and
    the multisets themselves.

    `ordered_count` is the product over positions of C(k, r_q): the
    number of ways to pick, independently per bit position, which of the
    k ordered slots receive a 1.  `multiset_count` counts the distinct
    unordered multisets those assignments produce (duplicate keys
    allowed inside a multiset); `distinct_multiset_count` counts only
    the duplicate-free ones, which is the combination count a guesser
    who knows the keys are pairwise distinct would work from.

    `table` holds one row of k uint64 values per multiset.  A value
    keeps only the branching positions, those with 0 < r_q < k: its bit
    i is bit `positions[i]` of the key.  Every key has a 1 at each
    position with r_q = k, held once as the mask `constant`, and a 0
    where r_q = 0.  `expand` and `compress` map between the two forms
    and keep order, so each row is sorted ascending and the rows are in
    the lexicographic order of the sorted key tuples.  `multisets`
    expands the table into Python int tuples on first read.
    """

    ordered_count: int
    table: np.ndarray = field(repr=False)
    positions: tuple[int, ...]
    constant: int

    @property
    def multiset_count(self) -> int:
        return len(self.table)

    @cached_property
    def duplicate_free(self) -> np.ndarray:
        """Mask of the table rows whose k values all differ."""
        # A column loop: numpy reduces along a short row slowly.
        free = np.ones(len(self.table), dtype=bool)
        for j in range(1, self.table.shape[1]):
            free &= self.table[:, j] != self.table[:, j - 1]
        return free

    @cached_property
    def distinct_multiset_count(self) -> int:
        return int(np.count_nonzero(self.duplicate_free))

    @cached_property
    def multisets(self) -> tuple[tuple[int, ...], ...]:
        values, index = self.key_values()
        return tuple(tuple(map(values.__getitem__, row)) for row in index.tolist())

    def distinct_multisets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            ms
            for ms, free in zip(self.multisets, self.duplicate_free.tolist())
            if free
        )

    @cached_property
    def _runs(self) -> tuple[tuple[int, int, int], ...]:
        """(first value bit, mask, first key position) per run of
        consecutive branching positions."""
        runs: list[list[int]] = []  # [first value bit, length, first position]
        for i, q in enumerate(self.positions):
            if runs and runs[-1][2] + runs[-1][1] == q:
                runs[-1][1] += 1
            else:
                runs.append([i, 1, q])
        return tuple((i, (1 << n) - 1, q) for i, n, q in runs)

    def expand(self, values: Iterable[int]) -> list[int]:
        """The key value of each table value."""
        out = []
        for c in values:
            v = self.constant
            for low, mask, q in self._runs:
                v |= ((c >> low) & mask) << q
            out.append(v)
        return out

    def compress(self, keys: Iterable[int]) -> list[int]:
        """The table value of each consistent key value."""
        return [
            sum(((v >> q) & mask) << low for low, mask, q in self._runs)
            for v in keys
        ]

    def key_values(self) -> tuple[list[int], np.ndarray]:
        """The distinct key values in the table, ascending, and the table
        with each value replaced by its index among them."""
        flat = np.sort(self.table, axis=None)
        first = np.empty(flat.size, dtype=bool)
        first[0] = True
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        distinct = flat[first]
        return self.expand(distinct.tolist()), np.searchsorted(distinct, self.table)


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
    such count is at least 1, so a `work_bound` below 1 is an input error.
    A profile with more branching positions (0 < r_q < k) than a table
    value holds bits is refused too; each one multiplies the count by at
    least 2, so only a work bound of 2^65 or more lets one through."""
    if work_bound < 1:
        raise InputError(f"work bound must be >= 1, got {work_bound}")
    # Each enumeration step handles k columns per candidate row, so k is
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
    branching = sum(1 for r in profile if 0 < r < k)
    if branching > _VALUE_BITS:
        raise CapacityError(
            f"enumeration supports at most {_VALUE_BITS} branching positions "
            f"(0 < ones < k), got {branching}"
        )
    return ordered


def _subset_blocks(k: int, r: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The r-subsets of k rows, in blocks of at most max(1, _FOLD_BLOCK // k).

    Per subset, a row of `order` lists the rows left out, then the rows
    picked, each ascending, and a column of `ends` marks each j whose
    row is picked while row j + 1 is not.
    """
    subsets = itertools.combinations(range(k), r)
    size = max(1, _FOLD_BLOCK // k)
    while block := list(itertools.islice(subsets, size)):
        picked = np.zeros((len(block), k), dtype=bool)
        picked[np.arange(len(block)).repeat(r), np.ravel(block)] = True
        ends = picked[:, :-1] & ~picked[:, 1:]
        yield picked.argsort(axis=1, kind="stable"), ends.T


def _next_level(table: np.ndarray, r: int, bit: np.uint64) -> np.ndarray:
    """Every child of the sorted rows of `table`, each made once: `bit`,
    above every value bit so far, set on r of a row's k values.

    The child lists the values left out, then those picked, so it is
    sorted as built.  Within a run of equal values only subsets picking
    the run's last ones are kept, so no child multiset repeats.
    """
    k = table.shape[1]
    # equal[p, j]: value j of row p equals value j + 1, compared in one
    # contiguous pass over the flat table (a strided 2-D compare is slower).
    flat = table.reshape(-1)
    equal = np.empty(flat.size, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=equal[:-1])
    equal = equal.reshape(table.shape)[:, :-1]
    children = []
    for order, ends in _subset_blocks(k, r):
        step = max(1, _FOLD_BLOCK // order.size)
        for start in range(0, len(table), step):
            stop = start + step
            # Picking a value but not the next, equal one repeats a child.
            keep = ~(equal[start:stop] @ ends)
            child = table[start:stop, order][keep]
            child[:, k - r:] |= bit
            children.append(child)
    return np.concatenate(children)


def _lexicographic(table: np.ndarray, bits: int) -> np.ndarray:
    """The rows of `table`, whose values are below 2**bits, in
    lexicographic order: each row's values are packed, `bits` apiece,
    into as few uint64 words as hold them, and the rows are sorted by
    their words, first word first."""
    k = table.shape[1]
    per = _VALUE_BITS // max(bits, 1)
    words = []
    for first in range(0, k, per):
        word = table[:, first].copy()
        for j in range(first + 1, min(first + per, k)):
            word <<= np.uint64(bits)
            word |= table[:, j]
        words.append(word)
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])
    return table[order]


def count_consistent_keysets(
    profile: tuple[int, ...], k: int, work_bound: int = DEFAULT_WORK_BOUND
) -> ConsistencyCount:
    """Enumerate every key multiset consistent with a bit-sum profile.

    Folds over the branching positions (0 < r_q < k) in ascending
    order; positions with r_q = k join the mask `constant` and those
    with r_q = 0 add nothing.  Starting from one row of k zeros, step i
    turns each partial multiset, a sorted row, into its children by
    setting bit i on each r_q-subset of its values (`_next_level`).
    Children of different parents differ below bit i, so no level holds
    a repeat, and one sort at the end puts the rows in lexicographic
    order.  Parents and subsets are taken a block at a time, so each
    temporary beside the levels themselves holds about _FOLD_BLOCK
    entries.  Instances the work bound refuses (`check_work_bound`) are
    refused before the fold.
    """
    ordered = check_work_bound(profile, k, work_bound)
    positions = tuple(q for q, r in enumerate(profile) if 0 < r < k)
    table = np.zeros((1, k), dtype=np.uint64)
    for i, q in enumerate(positions):
        table = _next_level(table, profile[q], np.uint64(1 << i))
    constant = sum(1 << q for q, r in enumerate(profile) if r == k)
    return ConsistencyCount(
        ordered, _lexicographic(table, len(positions)), positions, constant
    )


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


@cache
def _power_of_ten(digits: int) -> int:
    """10**digits.  Every key is a multiple of 256 below half the digits
    of the largest number rendered, so the cache stays small."""
    return 10**digits


def _decimal_digits(n: int) -> str:
    """str(n) for an int n >= 0 of any size.

    str() refuses ints of more than 4300 digits and is quadratic in
    their length, so an n above 2048 bits is split by `divmod` at
    10^d, d a multiple of 256 about half its digits, and its two parts
    rendered the same way, the low one zero-padded to d digits.  The
    parts given to str() have at most 2048 bits, about 617 digits.
    """
    if n.bit_length() <= 2048:
        return str(n)
    # n has at least int(bits * log10(2)) >= 2d digits, so high > 0.
    d = 256 * max(1, int(n.bit_length() * log10(2)) // 512)
    high, low = divmod(n, _power_of_ten(d))
    return _decimal_digits(high) + _decimal_digits(low).zfill(d)


def probability_record(formula: str, inputs: dict, exact: Fraction) -> dict:
    """Serialization shape shared by every exact probability result."""
    return {
        "formula": formula,
        "inputs": inputs,
        "rational": {
            # Recovery-grid cells reach about 15,000 digits: rendered by
            # splitting at powers of ten, as str() stops at 4300 digits.
            "num": _decimal_digits(exact.numerator),
            "den": _decimal_digits(exact.denominator),
        },
        "double": float(exact),
    }
