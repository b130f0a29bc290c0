"""Bit-level algebra on secret keys.

One convention everywhere: bit q of a key is the coefficient of 2**q
(little-endian indexing), while textual I/O is most-significant-bit
first.  Conversion between the two lives only in `parse_key` and
`format_key`; every other module works on integer values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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


def parse_key(text: str, n: int) -> SecretKey:
    """Parse an MSB-first binary string, e.g. parse_key("0001", 4).value == 1."""
    if len(text) != n:
        raise InputError(
            f"key {text!r} has length {len(text)}, expected {n}"
        )
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise InputError(
                f"key {text!r}: non-binary character {ch!r} at position {pos}"
            )
    # int() refuses "", so the empty key reaches SecretKey's n >= 1 check.
    return SecretKey(int(text or "0", 2), n)


@dataclass(frozen=True)
class KeySet:
    """Ordered multiset of k keys of a common length n.

    Order is preserved as given: index i identifies which unitary the
    key drives in the simulated circuit.  Duplicates are allowed; the
    count is bounded by 1 <= k <= 2**n.
    """

    keys: tuple[SecretKey, ...]

    def __post_init__(self):
        if not self.keys:
            raise InputError("a key set needs at least one key")
        n = self.keys[0].n
        for key in self.keys:
            if key.n != n:
                raise InputError(
                    f"mixed key lengths: expected {n}, got {key.n} for {key}"
                )
        if len(self.keys) > (1 << n):
            raise InputError(
                f"k={len(self.keys)} exceeds the 2^n={1 << n} bound for n={n}"
            )

    @classmethod
    def from_strings(cls, texts, n: int | None = None) -> "KeySet":
        texts = list(texts)
        if not texts:
            raise InputError("a key set needs at least one key")
        if n is None:
            n = len(texts[0])
        return cls(tuple(parse_key(t, n) for t in texts))

    @property
    def n(self) -> int:
        return self.keys[0].n

    @property
    def k(self) -> int:
        return len(self.keys)

    def values(self) -> tuple[int, ...]:
        return tuple(key.value for key in self.keys)

    def strings(self) -> tuple[str, ...]:
        return tuple(str(key) for key in self.keys)

    def all_distinct(self) -> bool:
        return len(set(self.values())) == self.k

    def __iter__(self):
        return iter(self.keys)

    def __len__(self) -> int:
        return self.k


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
    counts = tuple(
        sum(key.bit(q) for key in keys) for q in range(keys.n)
    )
    return BitSumProfile(counts)


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
    seen: dict[int, int] = {}
    for key in keys:
        seen[key.value] = seen.get(key.value, 0) + 1
    n = keys.n
    distinct = tuple(SecretKey(v, n) for v in seen)
    counts = tuple(seen.values())
    perms = factorial(keys.k)
    for b in counts:
        perms //= factorial(b)
    return KeyMultiplicity(distinct, counts, perms)


def dot_mod2(x: SecretKey, s: SecretKey) -> int:
    """Bit-wise dot product of x and s, modulo 2."""
    if x.n != s.n:
        raise InputError(f"length mismatch: {x.n}-bit input vs {s.n}-bit key")
    return (x.value & s.value).bit_count() & 1
