"""Key parsing, dot products, bit-sum profiles, multiplicity."""

import itertools

import numpy as np
import pytest

from multikey_bv import (
    ClassicalOracle,
    InputError,
    KeySet,
    SecretKey,
    bit_sum_profile,
    dot_mod2,
    estimate_bit_sums,
    exact_distribution,
    multiplicity,
    parse_key,
    run_circuit,
)


def bitwise_dot_oracle(x: int, s: int, n: int) -> int:
    """Independent check: explicit per-bit product sum."""
    return sum(((x >> q) & 1) * ((s >> q) & 1) for q in range(n)) % 2


class TestParseKey:
    def test_msb_first(self):
        assert parse_key("0001", 4).value == 1
        assert parse_key("1110", 4).value == 14
        assert parse_key("0000", 4).value == 0

    def test_roundtrip(self):
        for v in range(32):
            key = SecretKey(v, 5)
            assert parse_key(str(key), 5) == key

    def test_bits_little_endian(self):
        key = parse_key("0001", 4)
        assert key.bits == (1, 0, 0, 0)
        assert key.bit(0) == 1
        assert key.bit(3) == 0

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
        with pytest.raises(InputError):
            SecretKey(16, 4)
        with pytest.raises(InputError):
            SecretKey(0, 0)

    def test_rejects_empty_key(self):
        message = "^key length must be >= 1, got 0$"
        with pytest.raises(InputError, match=message):
            parse_key("", 0)
        with pytest.raises(InputError, match=message):
            KeySet.from_strings([""])


class TestDotMod2:
    def test_examples(self):
        assert dot_mod2(parse_key("0001", 4), parse_key("0001", 4)) == 1
        assert dot_mod2(parse_key("0000", 4), parse_key("1111", 4)) == 0
        # frozen from the explicit bit-sum oracle: 0110 & 0011 has one
        # overlapping bit, so the parity is 1
        assert bitwise_dot_oracle(0b0110, 0b0011, 4) == 1
        assert dot_mod2(parse_key("0110", 4), parse_key("0011", 4)) == 1

    def test_exhaustive_against_oracle(self):
        for x, s in itertools.product(range(16), repeat=2):
            assert dot_mod2(SecretKey(x, 4), SecretKey(s, 4)) == bitwise_dot_oracle(
                x, s, 4
            )

    def test_symmetric(self):
        for x, s in itertools.product(range(8), repeat=2):
            a, b = SecretKey(x, 3), SecretKey(s, 3)
            assert dot_mod2(a, b) == dot_mod2(b, a)

    def test_linearity_exhaustive(self):
        # dot(x, s^t) == dot(x,s) ^ dot(x,t) for every triple at n=6
        n = 6
        for x in range(1 << n):
            kx = SecretKey(x, n)
            for s in range(1 << n):
                for t in range(1 << n):
                    lhs = dot_mod2(kx, SecretKey(s ^ t, n))
                    rhs = dot_mod2(kx, SecretKey(s, n)) ^ dot_mod2(
                        kx, SecretKey(t, n)
                    )
                    assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            dot_mod2(SecretKey(1, 3), SecretKey(1, 4))


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

    def test_key_set_layer_builds_no_secret_key(self, monkeypatch):
        """The key-set layer reads values and the bit matrix only: with
        every SecretKey construction refused, it answers as before."""
        ks = KeySet.from_strings(["0001", "0011", "1011", "1110", "0011"])
        x = SecretKey(0b0110, 4)

        def run():
            keys = KeySet.from_strings(ks.strings())
            oracle = ClassicalOracle(keys, np.random.default_rng(3))
            return (
                keys.strings(),
                bit_sum_profile(keys),
                oracle.query_batch(x, 9).tolist(),
                estimate_bit_sums(oracle, 50).tolist(),
                oracle.queries,
                exact_distribution(run_circuit(keys, oracle_path="fast")),
            )

        expected = run()

        def refuse(self):
            raise AssertionError("SecretKey built")

        monkeypatch.setattr(SecretKey, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            SecretKey(1, 4)
        assert run() == expected

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
        assert bit_sum_profile(ks).counts == (3, 3, 1, 2)

    def test_zero_keys(self):
        ks = KeySet.from_strings(["0000", "0000"])
        assert bit_sum_profile(ks).counts == (0, 0, 0, 0)

    def test_single_key_is_its_bits(self):
        ks = KeySet.from_strings(["111"])
        assert bit_sum_profile(ks).counts == (1, 1, 1)

    def test_double_counting_identity(self):
        # sum of per-position counts equals total popcount over keys
        for values in itertools.combinations_with_replacement(range(8), 3):
            ks = KeySet(tuple(values), 3)
            profile = bit_sum_profile(ks)
            assert sum(profile.counts) == sum(v.bit_count() for v in values)


class TestMultiplicity:
    def test_degenerate_example(self):
        ks = KeySet.from_strings(["010", "011", "011", "101"])
        mult = multiplicity(ks)
        assert [str(t) for t in mult.distinct] == ["010", "011", "101"]
        assert mult.counts == (1, 2, 1)
        assert mult.permutations == 12  # 4!/2!

    def test_all_distinct_gives_k_factorial(self):
        ks = KeySet.from_strings(["011", "101"])
        mult = multiplicity(ks)
        assert mult.c == 2
        assert mult.permutations == 2

    def test_identical_keys(self):
        ks = KeySet.from_strings(["01", "01"])
        mult = multiplicity(ks)
        assert mult.c == 1
        assert mult.counts == (2,)
        assert mult.permutations == 1

    def test_reexpansion_recovers_multiset(self):
        for values in itertools.combinations_with_replacement(range(8), 4):
            ks = KeySet(tuple(values), 3)
            mult = multiplicity(ks)
            rebuilt = []
            for t, b in zip(mult.distinct, mult.counts):
                rebuilt += [t.value] * b
            assert sorted(rebuilt) == sorted(ks.values)
            assert sum(mult.counts) == ks.k
            assert all(b >= 1 for b in mult.counts)
