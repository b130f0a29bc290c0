"""Bit-level algebra on secret keys.

One convention everywhere: bit q of a key is the coefficient of 2**q
(little-endian indexing), while textual I/O is most-significant-bit
first.  Conversion between the two lives only in `parse_key` and
`format_key`; every other module works on integer values, and only the
CLI renders measured outcomes as strings.  A key is an int plus its
set's n: a `KeySet` is n plus its values, whose bits only
`KeySet.bit_matrix()` unpacks.  A bit-sum profile is a tuple of ints,
the count of keys with each bit set; `analytics` checks it against k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod

import numpy as np

from .errors import InputError


def format_key(value: int, n: int) -> str:
    """Render an n-bit key value MSB-first, e.g. format_key(1, 4) == "0001"."""
    return format(value, f"0{n}b")


_DELETE_BINARY_DIGITS = str.maketrans("", "", "01")


def parse_key(text: str, n: int) -> int:
    """Parse an MSB-first binary string, e.g. parse_key("0001", 4) == 1."""
    value = _parse_value(text, n)
    if n < 1:
        raise InputError(f"key length must be >= 1, got {n}")
    return value


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


def bit_sum_profile(keys: KeySet) -> tuple[int, ...]:
    """Count, for each bit position q, how many keys have bit q equal to 1.

    Entry q refers to bit position q (little-endian), so entry 0 is the
    number of keys with an odd value.
    """
    return tuple(keys.bit_matrix().sum(axis=0).tolist())


@dataclass(frozen=True)
class KeyMultiplicity:
    """Distinct key values of a multiset with their occurrence counts.

    `permutations` is the number of distinct orderings of the multiset,
    k! / prod(counts[i]!), computed exactly on first read: at 10^4 keys
    k! takes most of the time `multiplicity` would otherwise spend.
    """

    distinct: tuple[int, ...]
    counts: tuple[int, ...]

    @cached_property
    def permutations(self) -> int:
        return factorial(sum(self.counts)) // prod(map(factorial, self.counts))


def multiplicity(keys: KeySet) -> KeyMultiplicity:
    """Group a key multiset into distinct keys, in first-occurrence order."""
    seen = Counter(keys.values)
    return KeyMultiplicity(tuple(seen), tuple(seen.values()))

