"""Key parsing, bit-sum profiles, multiplicity."""

import itertools

import pytest

from multikey_bv import (
    InputError,
    KeySet,
    bit_sum_profile,
    multiplicity,
    parse_key,
)
from multikey_bv.keyspace import format_key


class TestParseKey:
    def test_msb_first(self):
        assert parse_key("0001", 4) == 1
        assert parse_key("1110", 4) == 14
        assert parse_key("0000", 4) == 0

    def test_roundtrip(self):
        for v in range(32):
            assert parse_key(format_key(v, 5), 5) == v

    def test_bits_little_endian(self):
        # The last character is bit 0, the coefficient of 2**0.
        key = parse_key("0001", 4)
        assert [(key >> q) & 1 for q in range(4)] == [1, 0, 0, 0]
        assert KeySet.from_strings(["0001"]).bit_matrix().tolist() == [[1, 0, 0, 0]]

    def test_rejects_non_binary(self):
        with pytest.raises(InputError, match="position 2"):
            parse_key("0121", 4)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("01x1", "key '01x1': non-binary character 'x' at position 2"),
            ("0102", "key '0102': non-binary character '2' at position 3"),
            ("1 2_", "key '1 2_': non-binary character ' ' at position 1"),
        ],
    )
    def test_non_binary_message_names_first_bad_character(self, text, message):
        with pytest.raises(InputError) as info:
            parse_key(text, 4)
        assert str(info.value) == message

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError, match="length 3"):
            parse_key("011", 4)

    def test_rejects_bad_value(self):
        # A key value enters as an int checked against its set's n.
        with pytest.raises(InputError, match="^key value 16 does not fit in 4 bits$"):
            KeySet((16,), 4)
        with pytest.raises(InputError, match="^key length must be >= 1, got 0$"):
            KeySet((0,), 0)

    def test_rejects_empty_key(self):
        message = "^key length must be >= 1, got 0$"
        with pytest.raises(InputError, match=message):
            parse_key("", 0)
        with pytest.raises(InputError, match=message):
            KeySet.from_strings([""])


class TestKeySet:
    def test_order_preserved(self):
        ks = KeySet.from_strings(["011", "101", "011"])
        assert ks.strings() == ("011", "101", "011")
        assert ks.k == 3
        assert ks.n == 3
        assert not ks.all_distinct()

    def test_rejects_mixed_lengths(self):
        with pytest.raises(InputError) as exc:
            KeySet.from_strings(["001", "0001"])
        assert str(exc.value) == "key '0001' has length 4, expected 3"

    @pytest.mark.parametrize(
        "values,n,message",
        [
            ((1, 8), 3, "key value 8 does not fit in 3 bits"),
            ((1, -1), 3, "key value -1 does not fit in 3 bits"),
            ((0,), 0, "key length must be >= 1, got 0"),
            ((), 3, "a key set needs at least one key"),
        ],
    )
    def test_refusals_name_the_fault(self, values, n, message):
        with pytest.raises(InputError) as exc:
            KeySet(values, n)
        assert str(exc.value) == message

    def test_rejects_k_above_bound(self):
        with pytest.raises(InputError) as exc:
            KeySet.from_strings(["0", "1", "0"])
        assert str(exc.value) == "k=3 exceeds the 2^n=2 bound for n=1"

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            KeySet.from_strings([])

    def test_duplicates_allowed_up_to_bound(self):
        ks = KeySet.from_strings(["1", "1"])
        assert ks.k == 2


class TestBitSumProfile:
    def test_worked_example(self):
        ks = KeySet.from_strings(["0001", "0011", "1011", "1110"])
        # counts are little-endian: positions 0..3
        profile = bit_sum_profile(ks)
        assert profile == (3, 3, 1, 2)
        assert all(type(c) is int for c in profile)

    def test_zero_keys(self):
        ks = KeySet.from_strings(["0000", "0000"])
        assert bit_sum_profile(ks) == (0, 0, 0, 0)

    def test_single_key_is_its_bits(self):
        ks = KeySet.from_strings(["111"])
        assert bit_sum_profile(ks) == (1, 1, 1)

    def test_double_counting_identity(self):
        # sum of per-position counts equals total popcount over keys
        for values in itertools.combinations_with_replacement(range(8), 3):
            ks = KeySet(tuple(values), 3)
            assert sum(bit_sum_profile(ks)) == sum(v.bit_count() for v in values)


class TestMultiplicity:
    def test_degenerate_example(self):
        ks = KeySet.from_strings(["010", "011", "011", "101"])
        mult = multiplicity(ks)
        assert mult.distinct == (0b010, 0b011, 0b101)
        assert mult.counts == (1, 2, 1)
        assert mult.permutations == 12  # 4!/2!

    def test_all_distinct_gives_k_factorial(self):
        ks = KeySet.from_strings(["011", "101"])
        mult = multiplicity(ks)
        assert len(mult.distinct) == 2
        assert mult.permutations == 2

    def test_identical_keys(self):
        ks = KeySet.from_strings(["01", "01"])
        mult = multiplicity(ks)
        assert len(mult.distinct) == 1
        assert mult.counts == (2,)
        assert mult.permutations == 1

    def test_reexpansion_recovers_multiset(self):
        for values in itertools.combinations_with_replacement(range(8), 4):
            ks = KeySet(tuple(values), 3)
            mult = multiplicity(ks)
            rebuilt = []
            for t, b in zip(mult.distinct, mult.counts):
                rebuilt += [t] * b
            assert sorted(rebuilt) == sorted(ks.values)
            assert sum(mult.counts) == ks.k
            assert all(b >= 1 for b in mult.counts)

    def test_distinct_ints_in_first_occurrence_order(self):
        values = (6, 1, 6, 3, 1, 6, 0)
        mult = multiplicity(KeySet(values, 3))
        assert mult.distinct == (6, 1, 3, 0)
        assert all(type(v) is int for v in mult.distinct)
        assert mult.counts == (3, 2, 1, 1)
        assert mult.permutations == 420  # 7! / (3! 2!)
