"""Bit-level algebra on secret keys.

One convention everywhere: bit q of a key is the coefficient of 2**q
(little-endian indexing), while textual I/O is most-significant-bit
first.  Conversion between the two lives only in `parse_key` and
`format_key`; every other module works on integer values.  A `KeySet`
is n plus its values, whose bits only `KeySet.bit_matrix()` unpacks;
`SecretKey` is the per-key view, built where one key is named.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class SecretKey:
    """An n-bit key.  `value` equals the sum of bit(q) * 2**q."""

    value: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"key length must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise InputError(
                f"key value {self.value} does not fit in {self.n} bits"
            )

    @property
    def bits(self) -> tuple[int, ...]:
        """Little-endian bit sequence: bits[q] is the coefficient of 2**q."""
        return tuple((self.value >> q) & 1 for q in range(self.n))

    def bit(self, q: int) -> int:
        if not 0 <= q < self.n:
            raise InputError(f"bit index {q} out of range for {self.n}-bit key")
        return (self.value >> q) & 1

    def __str__(self) -> str:
        return format_key(self.value, self.n)


def format_key(value: int, n: int) -> str:
    """Render an n-bit key value MSB-first, e.g. format_key(1, 4) == "0001"."""
    return format(value, f"0{n}b")


_DELETE_BINARY_DIGITS = str.maketrans("", "", "01")


def parse_key(text: str, n: int) -> SecretKey:
    """Parse an MSB-first binary string, e.g. parse_key("0001", 4).value == 1."""
    return SecretKey(_parse_value(text, n), n)


def _parse_value(text: str, n: int) -> int:
    """`parse_key`'s value, with n left for the caller to check."""
    if len(text) != n:
        raise InputError(
            f"key {text!r} has length {len(text)}, expected {n}"
        )
    # One pass over the whole string: anything left after deleting the
    # binary digits is a bad character.
    if text.translate(_DELETE_BINARY_DIGITS):
        pos, ch = next((p, c) for p, c in enumerate(text) if c not in "01")
        raise InputError(
            f"key {text!r}: non-binary character {ch!r} at position {pos}"
        )
    # int() refuses "", so the empty key reaches the caller's n >= 1 check.
    return int(text or "0", 2)


@dataclass(frozen=True)
class KeySet:
    """Ordered multiset of k n-bit keys, held as their integer values.

    Order is preserved as given: index i identifies which unitary the
    key drives in the simulated circuit.  Duplicates are allowed; the
    count is bounded by 1 <= k <= 2**n.
    """

    values: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not self.values:
            raise InputError("a key set needs at least one key")
        if self.n < 1:
            raise InputError(f"key length must be >= 1, got {self.n}")
        if min(self.values) < 0 or max(self.values) >> self.n:
            value = next(v for v in self.values if not 0 <= v < (1 << self.n))
            raise InputError(f"key value {value} does not fit in {self.n} bits")
        if self.k > (1 << self.n):
            raise InputError(
                f"k={self.k} exceeds the 2^n={1 << self.n} bound for n={self.n}"
            )

    @classmethod
    def from_strings(cls, texts, n: int | None = None) -> "KeySet":
        texts = list(texts)
        if n is None:
            n = len(texts[0]) if texts else 0
        return cls(tuple(_parse_value(t, n) for t in texts), n)

    @property
    def k(self) -> int:
        return len(self.values)

    def strings(self) -> tuple[str, ...]:
        return tuple(format_key(v, self.n) for v in self.values)

    def all_distinct(self) -> bool:
        return len(set(self.values)) == self.k

    def bit_matrix(self) -> np.ndarray:
        """k x n uint8 array whose entry [i, q] is bit q of values[i]."""
        width = (self.n + 7) // 8
        packed = b"".join(v.to_bytes(width, "little") for v in self.values)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(self.k, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little")


@dataclass(frozen=True)
class BitSumProfile:
    """Per-bit-position count of keys having that bit set.

    counts[q] refers to bit position q (little-endian), so counts[0]
    is the number of keys with an odd value.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise InputError("profile needs at least one position")
        for q, c in enumerate(self.counts):
            if c < 0:
                raise InputError(f"negative count {c} at position {q}")

    @property
    def n(self) -> int:
        return len(self.counts)


def bit_sum_profile(keys: KeySet) -> BitSumProfile:
    """Count, for each bit position q, how many keys have bit q equal to 1."""
    return BitSumProfile(tuple(keys.bit_matrix().sum(axis=0).tolist()))


@dataclass(frozen=True)
class KeyMultiplicity:
    """Distinct keys of a multiset with their occurrence counts.

    `permutations` is the number of distinct orderings of the multiset,
    k! / prod(counts[i]!), computed exactly.
    """

    distinct: tuple[SecretKey, ...]
    counts: tuple[int, ...]
    permutations: int

    @property
    def c(self) -> int:
        return len(self.distinct)


def multiplicity(keys: KeySet) -> KeyMultiplicity:
    """Group a key multiset into distinct keys, in first-occurrence order."""
    seen = Counter(keys.values)
    distinct = tuple(SecretKey(v, keys.n) for v in seen)
    counts = tuple(seen.values())
    perms = factorial(keys.k) // prod(map(factorial, counts))
    return KeyMultiplicity(distinct, counts, perms)


def dot_mod2(x: SecretKey, s: SecretKey) -> int:
    """Bit-wise dot product of x and s, modulo 2."""
    if x.n != s.n:
        raise InputError(f"length mismatch: {x.n}-bit input vs {s.n}-bit key")
    return (x.value & s.value).bit_count() & 1
