"""Statevector gates, circuit construction, oracle paths, sampling."""

import hashlib
import itertools
import math
import os
import random
import threading
import tracemalloc

import numpy as np
import pytest

from multikey_bv import (
    CapacityError,
    ClassicalOracle,
    InputError,
    KeySet,
    build_circuit,
    exact_distribution,
    measure_data_register,
    run_circuit,
)
from multikey_bv import adversary, simulator
from multikey_bv.simulator import (
    OutcomeSampler,
    StateVector,
    chi_square_vs_exact,
    control_width,
)


def keyset(*texts: str) -> KeySet:
    return KeySet.from_strings(texts)


def random_keyset(rng: np.random.Generator, n: int, k: int) -> KeySet:
    values = rng.integers(1 << n, size=k)
    return KeySet(tuple(int(v) for v in values), n)


LAYER_QUBITS = 19


def bits(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as raw uint64 words, so -0.0 and 0.0 differ."""
    return amps.view(np.uint64)


def random_state(total: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << total) + 1j * rng.normal(size=1 << total)
    return amps / np.linalg.norm(amps)


def one_qubit_sequence(total: int, amps: np.ndarray, qubits) -> np.ndarray:
    st = StateVector(total - 1, 0, amps.copy())
    for q in qubits:
        st.apply_hadamard(q)
    return st.amps


def with_negative_zeros(amps: np.ndarray, seed: int) -> np.ndarray:
    """A copy with about a tenth of the entries set to -0.0 (both parts or one)."""
    rng = np.random.default_rng(seed)
    amps = amps.copy()
    kinds = rng.integers(10, size=amps.size)
    amps[kinds == 0] = complex(-0.0, -0.0)
    amps.real[kinds == 1] = -0.0
    amps.imag[kinds == 2] = -0.0
    return amps


def with_dtypes(cases):
    """Each case on complex128 amplitudes, under its bare id, and on float64."""
    params = []
    for case in cases:
        case = case if isinstance(case, tuple) else (case,)
        name = "-".join(map(str, case))
        params.append(pytest.param(*case, np.complex128, id=name))
        params.append(pytest.param(*case, np.float64, id=f"{name}-float64"))
    return params


# A quiet NaN with a nonzero payload: float arithmetic may replace it
# with the default NaN, a swap of raw words must move it unchanged.
NAN_WORD = np.uint64(0x7FF8_0000_DEAD_BEEF)


def parity_table_swap(amps: np.ndarray, n: int, r: int, i: int, key: int) -> None:
    """Reference controlled key unitary: a 2^n parity table and a fancy-index swap."""
    x = np.arange(1 << n, dtype=np.uint64)
    odd = (np.bitwise_count(x & np.uint64(key)) & 1) == 1
    block = amps.reshape(1 << r, 2, 1 << n)[i]
    flipped = block[0, odd].copy()
    block[0, odd] = block[1, odd]
    block[1, odd] = flipped


def pair_formula(amps: np.ndarray, qubits, gate: str) -> np.ndarray:
    """Reference gate layer: the textbook pair formula, one gate at a time.

    H maps each pair (lo, hi) on a qubit to ((lo + hi) s, (lo - hi) s)
    with s = 1/sqrt(2); X swaps the pair.
    """
    out = amps.copy()
    s = 1.0 / math.sqrt(2.0)
    for q in qubits:
        pairs = out.reshape(-1, 2, 1 << q)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        if gate == "h":
            pairs[:, 0], pairs[:, 1] = (lo + hi) * s, (lo - hi) * s
        else:
            pairs[:, 0], pairs[:, 1] = hi, lo
    return out


def planted_state(total: int, planted: dict[int, bool], seed: int, dtype) -> np.ndarray:
    """Random amplitudes whose pairs along each planted qubit are equal, or
    opposite where its value is True, so that H on it leaves one half
    all +0.0 bit for bit, whatever other planted qubits it follows."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << total)
    if dtype is np.complex128:
        amps = amps + 1j * rng.normal(size=1 << total)
    for q, negate in planted.items():
        pairs = amps.reshape(-1, 2, 1 << q)
        pairs[:, 1] = -pairs[:, 0] if negate else pairs[:, 0]
    return amps


def apply_layer(amps: np.ndarray, qubits, gate: str) -> np.ndarray:
    """`apply_hadamard(*qubits)`, or `apply_x` once per qubit, on a copy.

    An array of one qubit, narrower than any register, goes through the
    gate layer itself, once per run of ascending qubits.
    """
    if amps.size == 2:
        amps = amps.copy()
        kernel = simulator._hadamard_row_bit if gate == "h" else simulator._x_row_bit
        runs = simulator._ascending_runs(tuple(qubits)) if gate == "h" else [(q, 1) for q in qubits]
        for first, length in runs:
            simulator._gate_layer(amps, first, length, kernel)
        return amps
    st = StateVector(amps.size.bit_length() - 2, 0, amps)
    if gate == "h":
        st.apply_hadamard(*qubits)
    else:
        for q in qubits:
            st.apply_x(q)
    return st.amps


class TestGates:
    def test_hadamard_on_zero(self):
        st = StateVector(1, 0)
        st.apply_hadamard(0)
        # data qubit 0: |0> -> (|0> + |1>)/sqrt(2)
        assert st.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert st.amps[1] == pytest.approx(1 / math.sqrt(2))

    def test_hadamard_on_one(self):
        st = StateVector(1, 0)
        st.apply_x(0)
        st.apply_hadamard(0)
        assert st.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert st.amps[1] == pytest.approx(-1 / math.sqrt(2))

    def test_hadamard_involution_random_state(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        st = StateVector(2, 1, amps.copy())
        for q in range(st.total_qubits):
            st.apply_hadamard(q).apply_hadamard(q)
        assert np.allclose(st.amps, amps, atol=1e-12)

    def test_norm_preserved_by_every_gate(self):
        rng = np.random.default_rng(11)
        keys = keyset("0110", "1011", "0001")
        spec = build_circuit(keys)
        st = StateVector(spec.n, spec.r)
        from multikey_bv.simulator import _apply_gate

        for gate in spec.gates:
            if gate[0] == "h":
                st.apply_hadamard(gate[1])
            else:
                _apply_gate(st, spec, gate)
            assert abs(st.norm() - 1.0) < 1e-10

    def test_index_out_of_range(self):
        st = StateVector(2, 0)
        with pytest.raises(InputError):
            st.apply_hadamard(3)

    def test_blocked_gates_bit_identical_to_pair_formula(self):
        from multikey_bv.simulator import _TILE_BITS

        total = 19
        # Qubits below _TILE_BITS run the low-qubit pass over several
        # tiles, the others the high-qubit pass; both must be exercised.
        assert _TILE_BITS < total - 1
        rng = np.random.default_rng(19)
        amps = rng.normal(size=1 << total) + 1j * rng.normal(size=1 << total)
        amps /= np.linalg.norm(amps)
        for q in range(total):
            st = StateVector(total - 1, 0, amps.copy()).apply_hadamard(q)
            assert np.array_equal(st.amps, pair_formula(amps, (q,), "h")), f"H on qubit {q}"
            st = StateVector(total - 1, 0, amps.copy()).apply_x(q)
            assert np.array_equal(st.amps, pair_formula(amps, (q,), "x")), f"X on qubit {q}"

    def test_x_on_zero_and_negative_zero_blocks_matches_plain_swap(self):
        from multikey_bv.simulator import _MIN_RUN, _TILE, _TILE_BITS

        total = 19
        zero, neg = complex(0.0, 0.0), complex(-0.0, -0.0)
        for q in range(total):
            amps = random_state(total, q)
            # (tile groups, rows, half, column chunks, columns): one
            # (group, chunk) pair is one tile of the layer apply_x runs.
            if q < _TILE_BITS:
                # Low-qubit pass: _TILE contiguous amplitudes.
                rows, cols = _TILE >> (q + 1), 1 << q
            else:
                # High-qubit pass: both halves over one column chunk.
                rows, cols = 1, max(_TILE // 2, _MIN_RUN)
            blocks = amps.reshape(-1, rows, 2, (1 << q) // cols, cols)
            count = blocks.shape[0] * blocks.shape[3]
            assert count >= 4
            # By tile: both halves zero (skipped), lo zero with hi
            # -0.0, lo zero but one -0.0 with hi zero, both nonzero.
            for m in range(count):
                g, c = divmod(m, blocks.shape[3])
                pair, kind = blocks[g, :, :, c, :], m % 4
                if kind == 0:
                    pair[...] = zero
                elif kind == 1:
                    pair[:, 0], pair[:, 1] = zero, neg
                elif kind == 2:
                    pair[...] = zero
                    pair[-1, 0, -1] = neg
            swapped = amps.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)
            st = StateVector(total - 1, 0, amps.copy()).apply_x(q)
            assert np.array_equal(bits(st.amps), bits(swapped)), f"X on qubit {q}"

    # apply_hadamard(*qubits) against one-qubit calls in sequence.

    def test_layer_every_prefix(self):
        amps = random_state(LAYER_QUBITS, 23)
        ref = StateVector(LAYER_QUBITS - 1, 0, amps.copy())
        for b in range(1, LAYER_QUBITS + 1):
            ref.apply_hadamard(b - 1)
            layer = StateVector(LAYER_QUBITS - 1, 0, amps.copy())
            layer.apply_hadamard(*range(b))
            assert np.array_equal(bits(layer.amps), bits(ref.amps)), f"prefix {b}"

    @pytest.mark.parametrize(
        "qubits",
        [
            tuple(range(5, 12)),
            tuple(range(12, 19)),
            tuple(range(16, 19)),
            (18,),
            tuple(range(3, 19)),
            (7, 0, 18, 3, 3, 16, 0, 12, 17, 17),
            (18, 16, 17),
            (2, 2),
            (15, 1, 14, 2),
        ],
    )
    def test_layer_runs_unsorted_and_repeated(self, qubits):
        amps = random_state(LAYER_QUBITS, 29)
        layer = StateVector(LAYER_QUBITS - 1, 0, amps.copy()).apply_hadamard(*qubits)
        expected = one_qubit_sequence(LAYER_QUBITS, amps, qubits)
        assert np.array_equal(bits(layer.amps), bits(expected))

    @pytest.mark.parametrize("top", [12, 15, 17])
    def test_layer_zero_rows_between_nonzero_rows(self, top):
        # Rows of 2^top amplitudes do not mix under H on qubits below top.
        amps = random_state(LAYER_QUBITS, top)
        rows = amps.reshape(-1, 1 << top)
        rows[1] = 0.0
        rows[2] = complex(-0.0, -0.0)  # not all-zero bits: H turns it to +0.0
        rows[-1, : rows.shape[1] // 2] = 0.0
        qubits = tuple(range(top))
        layer = StateVector(LAYER_QUBITS - 1, 0, amps.copy()).apply_hadamard(*qubits)
        expected = one_qubit_sequence(LAYER_QUBITS, amps, qubits)
        assert np.array_equal(bits(layer.amps), bits(expected))
        assert not np.array_equal(bits(expected.reshape(rows.shape)[2]), bits(rows[2]))

    def test_layer_on_strided_amplitudes(self):
        amps = random_state(LAYER_QUBITS + 1, 37)
        strided = StateVector(LAYER_QUBITS - 1, 0, amps[::2]).apply_hadamard(0, 17)
        expected = one_qubit_sequence(LAYER_QUBITS, amps[::2].copy(), (0, 17))
        assert np.array_equal(bits(strided.amps), bits(expected))

    def test_layer_out_of_range_qubit_changes_nothing(self):
        amps = random_state(LAYER_QUBITS, 31)
        st = StateVector(LAYER_QUBITS - 1, 0, amps.copy())
        with pytest.raises(InputError):
            st.apply_hadamard(0, 1, 18, LAYER_QUBITS)
        with pytest.raises(InputError):
            st.apply_hadamard(3, -1)
        assert np.array_equal(bits(st.amps), bits(amps))

    @pytest.mark.parametrize("total,dtype", with_dtypes(range(1, 17)))
    def test_layer_bit_identical_to_pair_formula_every_width(self, total, dtype):
        # States of at most one tile: a random prefix of amplitudes, then
        # +0.0 that the layer may skip, with -0.0 or a NaN with a payload
        # planted there (both must be transformed), or all +0.0.
        rng = np.random.default_rng(total)
        words = np.dtype(dtype).itemsize // 8
        for trial in range(6):
            amps = rng.normal(size=1 << total)
            if dtype is np.complex128:
                amps = amps + 1j * rng.normal(size=1 << total)
            cut = int(rng.integers(1 << total))
            amps[cut:] = 0.0
            tail = int(rng.integers(cut, 1 << total)) * words + int(rng.integers(words))
            kind = trial % 4
            if kind == 1:
                bits(amps)[tail] = np.uint64(1 << 63)  # -0.0
            elif kind == 2:
                bits(amps)[tail] = NAN_WORD
            elif kind == 3:
                amps[:] = 0.0
            qubits = tuple(int(q) for q in rng.integers(total, size=rng.integers(1, 2 * total + 1)))
            for gate in ("h", "x"):
                expected = pair_formula(amps, qubits, gate)
                layer = apply_layer(amps, qubits, gate)
                assert np.array_equal(bits(layer), bits(expected)), (trial, gate, qubits)
            if kind == 3:
                assert not bits(layer).any()

    @pytest.mark.parametrize(
        "total,top",
        [(8, 3), (14, 10), (16, 13), (16, 16), (19, 10)],
    )
    def test_layer_hands_kernel_only_the_nonzero_block(self, monkeypatch, total, top):
        # A layer on the qubits below `top` of a state nonzero only in its
        # first block of 2^top amplitudes transforms that block alone: the
        # qubits descend, so each is a run of one and takes the kernel, in
        # a part under a tile and in a whole tile alike.
        sizes = []

        def spy(kernel):
            def wrapped(block, bit, scratch):
                sizes.append(block.size)
                kernel(block, bit, scratch)
            return wrapped

        monkeypatch.setattr(simulator, "_hadamard_row_bit", spy(simulator._hadamard_row_bit))
        monkeypatch.setattr(simulator, "_x_row_bit", spy(simulator._x_row_bit))
        amps = np.zeros(1 << total)
        amps[: 1 << top] = np.random.default_rng(top).normal(size=1 << top)
        qubits = tuple(reversed(range(top)))
        StateVector(total - 1, 0, amps).apply_hadamard(*qubits).apply_x(top - 1)
        assert sizes == [1 << top] * (top + 1)

    # Halves along a qubit that a run of ascending qubits leaves all
    # +0.0, as interference does in the circuit's final layer, are
    # dropped from the run's later stages.

    # The full passes over the state that each mixed-order layer below
    # paired when only its last run of ascending qubits dropped halves.
    LAST_RUN_DROP_PASSES = {
        (3, 0, 9, 12, 1, 2, 14, 4, 5, 6, 15, 7, 8, 10, 11, 13): 16,
        (5, 0, 1, 2, 0, 3, 4, 5, 7): 9,
        (0, 1, 2, 3, 9, 4, 9, 5, 6): 8.5,
        (15, 14, 13, 12, 0, 1, 2, 3, 11, 10, 9, 8, 4, 5, 6, 7): 13.875,
    }

    @pytest.mark.parametrize(
        "total,qubits,signs",
        [
            (16, tuple(range(16)), "+-+-+-+-+-+-+-+-"),
            (16, (3, 0, 9, 12, 1, 2, 14, 4, 5, 6, 15, 7, 8, 10, 11, 13), "--+-++-+--+-++-+"),
            # Qubit 0 is listed again after qubits already dropped, and
            # qubit 5 before and after: each is dropped at its last listing.
            (16, (5, 0, 1, 2, 0, 3, 4, 5, 7), "+++++++++"),
            # Qubit 9 is listed twice after the part has shrunk to 2^12.
            (16, (0, 1, 2, 3, 9, 4, 9, 5, 6), "+-+-+-+-+"),
            (17, (15, 14, 13, 12, 0, 1, 2, 3, 11, 10, 9, 8, 4, 5, 6, 7), "-+-+-+-+-+-+-+-+"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_layer_drops_planted_zero_halves(self, monkeypatch, total, qubits, signs, dtype):
        # Pairs along each listed qubit equal or opposite, so H leaves a
        # half of each all +0.0: the layer ends as the pair formula does.
        # Every run of two or more qubits drops a half at each qubit, so
        # the stages pair less than half a pass per gate for one run, and
        # for a mixed-order layer less than when only its last run
        # dropped halves.
        passes = self.LAST_RUN_DROP_PASSES.get(qubits, len(qubits) / 2)
        sizes = self.spy_sizes(monkeypatch)
        amps = planted_state(total, {q: s == "-" for q, s in zip(qubits, signs)}, total, dtype)
        expected = pair_formula(amps, qubits, "h")
        layer = apply_layer(amps, qubits, "h")
        assert np.array_equal(bits(layer), bits(expected))
        # The first stage pairs every amplitude, so the spies see it.
        assert amps.size <= sum(sizes["paired"]) < passes * amps.size

    def test_parts_under_a_tile_drop_nothing(self, monkeypatch):
        # Below a tile the layer's stages build no stack and never reach
        # the zero-half test, so the part drops nothing.  A whole tile, the
        # control, reaches both.
        reached = self.spy_calls(monkeypatch, "_Stack", "_drop_stages")
        total = simulator._TILE_BITS - 1
        amps = planted_state(total, dict.fromkeys(range(total), True), total, np.float64)
        layer = apply_layer(amps, range(total), "h")
        assert np.array_equal(bits(layer), bits(pair_formula(amps, range(total), "h")))
        assert reached == []
        total = simulator._TILE_BITS
        amps = planted_state(total, dict.fromkeys(range(total), True), total, np.float64)
        apply_layer(amps, range(total), "h")
        assert set(reached) == {"_Stack", "_drop_stages"}

    @pytest.mark.parametrize("total,dtype", with_dtypes(range(1, 16)))
    def test_stages_bit_identical_to_pair_formula(self, total, dtype):
        # Parts under a tile: runs of ascending qubits from 0 and from
        # above it, of odd length (the result ends in the spare buffer and
        # is copied back) and even length, unsorted and repeated qubits,
        # single qubits and X layers, over random amplitudes with a random
        # +0.0 tail that may hold a -0.0 or a NaN with a payload.
        rng = np.random.default_rng(100 + total)
        layers = [tuple(range(total)), tuple(range(1, total)), (0, 0, 1), (1, 2), (2, 3, 4),
                  (3, 0, 1, 2, 4, 8, 14), (total - 1,), (total - 1, 0)]
        layers = [qs for qs in layers if qs and max(qs) < total]
        layers.append(tuple(int(q) for q in rng.integers(total, size=2 * total)))
        for trial in range(3):
            amps = self.zero_tail_state(rng, 1 << total, dtype, kind=trial)
            for qubits in layers:
                for gate in ("h", "x"):
                    expected = pair_formula(amps, qubits, gate)
                    layer = apply_layer(amps, qubits, gate)
                    assert np.array_equal(bits(layer), bits(expected)), (trial, gate, qubits)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_whole_and_partial_tile_in_one_layer(self, monkeypatch, dtype):
        # Two tiles: the first dense, a whole live tile that builds the
        # walk's stack, the second live in its first half only, up to a
        # +0.0 tail with a -0.0 or NaN planted in it; both take stages,
        # in each run of ascending qubits.
        tile = simulator._TILE
        rng = np.random.default_rng(17)
        reached = self.spy_calls(monkeypatch, "_Stack", "_stages")
        for kind in (1, 2):
            amps = np.concatenate([
                self.zero_tail_state(rng, tile, dtype, kind=0, cut=tile),
                self.zero_tail_state(rng, tile // 2, dtype, kind=kind, cut=tile // 6),
                np.zeros(tile // 2, dtype),
            ])
            for qubits in (tuple(range(15)), (3, 0, 1, 2, 4, 8, 14)):
                reached.clear()
                expected = pair_formula(amps, qubits, "h")
                layer = apply_layer(amps, qubits, "h")
                assert np.array_equal(bits(layer), bits(expected)), (kind, qubits)
                runs = len(simulator._ascending_runs(qubits))
                assert sorted(reached) == ["_Stack"] * runs + ["_stages"] * 2 * runs

    @staticmethod
    def zero_tail_state(rng, size: int, dtype, kind: int, cut: int | None = None) -> np.ndarray:
        """Random amplitudes up to `cut` (random if not given), then +0.0,
        with one -0.0 (kind 1) or NaN-with-payload word (kind 2) planted
        in the tail."""
        amps = rng.normal(size=size)
        if dtype is np.complex128:
            amps = amps + 1j * rng.normal(size=size)
        cut = int(rng.integers(size)) if cut is None else cut
        amps[cut:] = 0.0
        if kind and cut < size:
            words = amps.itemsize // 8
            where = int(rng.integers(cut, size)) * words + int(rng.integers(words))
            bits(amps)[where] = np.uint64(1 << 63) if kind == 1 else NAN_WORD
        return amps

    @pytest.mark.parametrize("planted", ["negative-zero", "nan"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_half_with_one_nonzero_word_is_kept(self, planted, dtype):
        # One pair along qubit 3 gives a -0.0 or a NaN in the half that H
        # otherwise zeroes: that half must still take the later gates.  A
        # -0.0 survives a gate as the lower member of a pair, so it sits
        # where every later qubit's bit is 0.
        total, qubits = 16, (3, 0, 1, 2, 4, 8, 14)
        amps = planted_state(total, dict.fromkeys(qubits, False), 7, dtype)
        pairs = bits(amps).reshape(-1, 2, 1 << 3, amps.itemsize // 8)
        where = (2, slice(None), 0, 0)
        if planted == "negative-zero":
            pairs[where] = (np.uint64(1 << 63), np.uint64(0))  # (lo, hi) = (-0.0, +0.0)
        else:
            pairs[where] = NAN_WORD
        expected = pair_formula(amps, qubits, "h")
        layer = apply_layer(amps, qubits, "h")
        assert np.array_equal(bits(layer), bits(expected))
        half = bits(expected).reshape(-1, 2, 1 << 3, amps.itemsize // 8)[:, 1]
        assert half.any()

    @pytest.mark.parametrize("flip", [None, 0, 5])
    def test_blocks_keep_different_halves(self, flip):
        # Blocks of 2^11 amplitudes, each with its own signs: every block
        # has a zero half along each qubit, not always the same one.  With
        # `flip`, one block is dense along that qubit, so nothing is dropped
        # there; the result is the pair formula's either way.
        total, top = 16, 11
        rng = np.random.default_rng(top)
        blocks = [
            planted_state(top, {q: bool(rng.integers(2)) for q in range(top)}, b, np.float64)
            for b in range(1 << (total - top))
        ]
        if flip is not None:
            blocks[3] = planted_state(top, {q: False for q in range(top) if q != flip}, 99, np.float64)
        amps = np.concatenate(blocks)
        qubits = tuple(range(top))
        assert np.array_equal(bits(apply_layer(amps, qubits, "h")), bits(pair_formula(amps, qubits, "h")))

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_multi_tile_layer_drops_bit_identical(self, dtype):
        # 2^19 amplitudes, 8 tiles: some tiles planted along every qubit,
        # one only along the low qubits, one only along the odd qubits (it
        # reaches the stack after other stages, with other qubits dropped,
        # than the tiles before it), one dense and one all +0.0.
        total = LAYER_QUBITS
        tile = 1 << simulator._TILE_BITS
        parts = []
        for t in range(1 << (total - simulator._TILE_BITS)):
            if t == 2:
                parts.append(planted_state(simulator._TILE_BITS, {}, t, dtype))
            elif t == 5:
                parts.append(np.zeros(tile, dtype))
            else:
                planted = {6: range(8), 7: range(1, simulator._TILE_BITS, 2)}.get(t, range(simulator._TILE_BITS))
                parts.append(planted_state(simulator._TILE_BITS, {q: (q + t) % 3 == 0 for q in planted}, t, dtype))
        amps = np.concatenate(parts)
        for qubits in (tuple(range(total)), (2, 17, 0, 9, 15, 1, 18, 3, 14, 16, 4)):
            expected = pair_formula(amps, qubits, "h")
            layer = apply_layer(amps, qubits, "h")
            assert np.array_equal(bits(layer), bits(expected)), qubits

    def test_stack_flushes_at_one_tile(self):
        # Every tile drops only the half along qubit 0, so each reaches the
        # layer's stack at the end of the run with half a tile kept: the
        # stack holds two of them, and flushes before taking a third.
        amps = planted_state(LAYER_QUBITS, {0: True}, 3, np.float64)
        qubits = tuple(range(simulator._TILE_BITS))
        assert np.array_equal(bits(apply_layer(amps, qubits, "h")), bits(pair_formula(amps, qubits, "h")))

    @pytest.mark.parametrize("n,k", [(16, 2), (14, 6)])
    def test_final_layer_hands_kernel_only_the_kept_halves(self, monkeypatch, n, k):
        # An 18-qubit circuit's final data layer: interference zeroes a
        # half of every block along each data qubit in turn, so its stages
        # write at most 3 times each nonzero tile's amplitudes, where a
        # full pass per gate would write n times.
        ks = random_keyset(np.random.default_rng(n), n, k)
        spec = simulator.build_circuit(ks)
        state = StateVector(spec.n, spec.r)
        *gates, last = [list(g) for _, g in itertools.groupby(spec.gates, key=lambda g: g[0] == "h")]
        for run in gates:
            if run[0][0] == "h":
                state.apply_hadamard(*(g[1] for g in run))
            else:
                for gate in run:
                    simulator._apply_gate(state, spec, gate)
        before = state.amps.copy()
        width = min(before.size, simulator._TILE)
        tiles = sum(bits(t).any() for t in before.reshape(-1, width))
        sizes = self.spy_sizes(monkeypatch)
        state.apply_hadamard(*(g[1] for g in last))
        assert tiles * width <= sum(sizes["paired"]) <= 3 * tiles * width
        if n >= simulator._TILE_BITS:
            # Tiles of one block scale only the halves they keep; the
            # first stage keeps at least half of each.
            assert 0.5 * tiles * width <= sum(sizes["scaled"]) <= 1.1 * tiles * width
        assert np.array_equal(bits(state.amps), bits(pair_formula(before, range(n), "h")))
        assert np.array_equal(bits(state.amps), bits(run_circuit(ks).amps))

    @pytest.mark.parametrize("total,dtype", with_dtypes([16, 18]))
    def test_planted_tiles_scale_only_the_kept_halves(self, monkeypatch, total, dtype):
        # Whole tiles planted along every qubit of the layer, as a final
        # layer leaves them: each stage of a one-block tile scales only
        # the half it keeps, so the layer scales about one tile's worth
        # per tile, where scaling every stage's output would scale two.
        rng = np.random.default_rng(total)
        qubits = tuple(range(simulator._TILE_BITS))
        amps = planted_state(total, {q: bool(rng.integers(2)) for q in qubits}, total, dtype)
        sizes = self.spy_sizes(monkeypatch)
        layer = apply_layer(amps, qubits, "h")
        monkeypatch.undo()
        assert np.array_equal(bits(layer), bits(one_qubit_sequence(total, amps, qubits)))
        # The first stage pairs every amplitude and keeps half of them.
        assert sum(sizes["paired"]) >= amps.size
        assert 0.5 * amps.size <= sum(sizes["scaled"]) <= 1.1 * amps.size

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_first_data_layer_grows_from_one_amplitude(self, monkeypatch, r):
        # |0..0> with a data register of one tile: the layer on the data
        # qubits pairs only the amplitudes that can be set, 2^(q+1) at
        # qubit q, so it writes about two tiles' worth, not one per gate.
        n = simulator._TILE_BITS
        state = StateVector(n, r)
        sizes = self.spy_sizes(monkeypatch)
        state.apply_hadamard(*range(n))
        monkeypatch.undo()
        # The gate on the last qubit alone pairs the whole tile.
        assert simulator._TILE <= sum(sizes["paired"]) <= 2.1 * simulator._TILE
        expected = one_qubit_sequence(n + 1 + r, StateVector(n, r).amps, range(n))
        assert np.array_equal(bits(state.amps), bits(expected))
        assert state._live.tolist() == [True] * simulator._TILE_CHUNKS + [False] * (
            state._live.size - simulator._TILE_CHUNKS)

    @pytest.mark.parametrize(
        "case",
        ["zero-first", "zero-second", "both-start-zero-first", "both-start-zero-second",
         "negative-zero", "nan"],
    )
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_one_block_zero_half_test(self, case, dtype):
        # One whole tile, pairs along qubit 0 opposite ("first": H leaves
        # its sums half all +0.0) or equal ("second": its differences).
        # "both-start-zero" sets the first pair to +0.0, so both halves
        # start with +0.0 and only one is all zero.  "negative-zero" and
        # "nan" set the first pair to (-0.0, +0.0) or (NaN, +0.0): the
        # differences half then holds a lone -0.0 or NaN and must be kept.
        total = simulator._TILE_BITS
        qubits = tuple(range(total))
        amps = planted_state(total, {0: case.endswith("first")}, 5, dtype)
        if case != "zero-first" and case != "zero-second":
            amps[:2] = 0.0
        if case == "negative-zero":
            bits(amps)[0] = np.uint64(1 << 63)  # the real part
        elif case == "nan":
            bits(amps)[0] = NAN_WORD
        expected = one_qubit_sequence(total, amps, qubits)
        assert np.array_equal(bits(apply_layer(amps, qubits, "h")), bits(expected))
        if case == "negative-zero":
            assert (bits(expected) == np.uint64(1 << 63)).any()
        elif case == "nan":
            assert np.isnan(expected).sum() > 1

    def test_one_block_half_zeroed_only_by_the_scale(self):
        # A first pair (0.0-0.0j, -0.0-0.0j) along an opposite qubit 0
        # leaves the sums half +0.0 but for one 0.0-0.0j, which the
        # scale alone turns into +0.0.  Tested before the scale, the
        # half is kept and carried through the stages; the layer still
        # ends with the bits of one-qubit gates.
        total = simulator._TILE_BITS
        qubits = tuple(range(total))
        amps = planted_state(total, {0: True}, 5, np.complex128)
        amps[:2] = complex(0.0, -0.0), complex(-0.0, -0.0)
        sums = amps[0::2] + amps[1::2]
        assert simulator._is_zero(sums * simulator._INV_SQRT2) and not simulator._is_zero(sums)
        expected = one_qubit_sequence(total, amps, qubits)
        assert np.array_equal(bits(apply_layer(amps, qubits, "h")), bits(expected))

    @pytest.mark.parametrize(
        "qubits",
        [tuple(range(16)), (*range(8), *range(16)), (*range(8), 15, *range(8, 15))],
        ids=["one-run", "grown-run-then-dropping-run", "three-runs"],
    )
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_grown_and_stacked_tiles_in_one_layer(self, monkeypatch, qubits, dtype):
        # Two tiles: tile 0 is set in its first amplitude only and grows,
        # tile 1 is planted along every qubit and drops halves into the
        # run's stack, which the first whole tile builds before either
        # takes a stage.  A run that starts growing grows to its end, so
        # a grown tile drops halves only in a later run: in the two-run
        # layer tile 0 grows on qubits 0-7 and then drops halves along
        # them in the second run.
        tile = simulator._TILE
        rng = np.random.default_rng(len(qubits))
        amps = planted_state(17, {q: bool(rng.integers(2)) for q in range(16)}, 3, dtype)
        amps[1:tile] = 0.0
        reached = self.spy_calls(monkeypatch, "_Stack")
        layer = apply_layer(amps, qubits, "h")
        monkeypatch.undo()
        assert np.array_equal(bits(layer), bits(one_qubit_sequence(17, amps, qubits)))
        assert reached == ["_Stack"] * len(simulator._ascending_runs(qubits))

    @staticmethod
    def spy_calls(monkeypatch, *names: str) -> list[str]:
        """Names of the listed simulator functions, once per call from now on."""
        calls = []
        for name in names:
            original = getattr(simulator, name)

            def wrapped(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(simulator, name, wrapped)
        return calls

    @staticmethod
    def spy_sizes(monkeypatch) -> dict[str, list[int]]:
        """Amplitudes written from now on, per call: under "paired" by the
        adds and subtracts of the H kernel, of a stage and of a one-block
        stage (`_sum_diff`), under "scaled" by their multiplications by
        1/sqrt(2), the kernel's and a stage's included.  Every function
        that writes an amplitude of an H layer is spied, so a bound on
        either cannot pass on work that no spy sees."""
        sizes = {"paired": [], "scaled": []}
        kernel, stage = simulator._hadamard_row_bit, simulator._stage
        sum_diff, scale = simulator._sum_diff, simulator._scale

        def spied_kernel(block, bit, scratch):
            sizes["paired"].append(block.size)
            sizes["scaled"].append(block.size)
            kernel(block, bit, scratch)

        def spied_stage(*views):
            sizes["paired"].append(views[-1].size)
            sizes["scaled"].append(views[-1].size)
            stage(*views)

        def spied_sum_diff(lo, hi, sums, diffs):
            sizes["paired"].append(sums.size + diffs.size)
            sum_diff(lo, hi, sums, diffs)

        def spied_scale(part):
            sizes["scaled"].append(part.size)
            scale(part)

        monkeypatch.setattr(simulator, "_hadamard_row_bit", spied_kernel)
        monkeypatch.setattr(simulator, "_stage", spied_stage)
        monkeypatch.setattr(simulator, "_sum_diff", spied_sum_diff)
        monkeypatch.setattr(simulator, "_scale", spied_scale)
        return sizes


class TestControlledKeyUnitary:
    def test_zero_key_is_identity(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        st = StateVector(2, 2, amps.copy())
        st.apply_controlled_key_unitary(1, 0)
        assert np.array_equal(st.amps, amps)

    def test_direct_flip_action(self):
        # n=1, key=1, no controls: |x=1, y=0> -> |x=1, y=1>
        st = StateVector(1, 0, np.array([0, 1, 0, 0], dtype=complex))
        st.apply_controlled_key_unitary(0, 1)
        assert np.array_equal(st.amps, np.array([0, 0, 0, 1], dtype=complex))

    def test_only_selected_branch_touched(self):
        # amplitude sitting in control branch 0 must ignore a branch-1 unitary
        st = StateVector(1, 1, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
        st.apply_controlled_key_unitary(1, 1)
        assert np.array_equal(
            st.amps, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
        )

    @pytest.mark.parametrize("n,dtype", with_dtypes([1, 2, 15, 16, 17, 19]))
    def test_tiled_swap_bit_identical_to_parity_table(self, n, dtype):
        r = 1 if n == 19 else 2
        amps = with_negative_zeros(random_state(n + 1 + r, n), n)
        if dtype is np.float64:
            amps = amps.real.copy()
        # Branch 0, target 1, data bit n-1 only: every key with that bit
        # swaps it, from the last data tile when n > 16.
        bits(amps)[((1 << n) | (1 << (n - 1))) * (amps.itemsize // 8)] = NAN_WORD
        rng = np.random.default_rng(100 + n)
        keys = {0, (1 << n) - 1, *(int(v) for v in rng.integers(1 << n, size=3))}
        if n > 16:
            keys.add(((1 << n) - 1) & ~0xFFFF)  # only bits from 16 up
        for i in range(1 << r):
            for key in sorted(keys):
                expected = amps.copy()
                parity_table_swap(expected, n, r, i, key)
                st = StateVector(n, r, amps.copy())
                st.apply_controlled_key_unitary(i, key)
                assert np.array_equal(bits(st.amps), bits(expected)), (i, key)

    def test_bad_control_index(self):
        st = StateVector(1, 1)
        with pytest.raises(InputError):
            st.apply_controlled_key_unitary(2, 1)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_refuses_value_outside_n_bits(self, n):
        # A high bit would change the per-tile parity, (t * width & value).
        amps = random_state(n + 2, n)
        for value in (1 << n, -1):
            st = StateVector(n, 1, amps.copy())
            with pytest.raises(InputError, match=f"does not fit in {n} bits"):
                st.apply_controlled_key_unitary(1, value)
            assert np.array_equal(st.amps, amps)


class TestPrepareUniform:
    def control_amps(self, st: StateVector) -> np.ndarray:
        return st.amps.reshape(1 << st.r, -1)[:, 0]

    def test_power_of_two(self):
        st = StateVector(1, 2)
        st.prepare_uniform(4)
        assert np.allclose(self.control_amps(st), 0.5)

    def test_power_of_two_bit_identical_to_hadamards(self):
        direct = StateVector(1, 2).prepare_uniform(4)
        gates = StateVector(1, 2)
        gates.apply_hadamard(2).apply_hadamard(3)
        assert np.array_equal(direct.amps, gates.amps)

    def test_k_three(self):
        st = StateVector(1, 2)
        st.prepare_uniform(3)
        expected = np.array([1, 1, 1, 0]) / math.sqrt(3)
        assert np.allclose(self.control_amps(st), expected, atol=1e-12)

    def test_k_one_unchanged(self):
        st = StateVector(2, 0)
        before = st.amps.copy()
        st.prepare_uniform(1)
        assert np.array_equal(st.amps, before)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            StateVector(1, 1).prepare_uniform(3)

    def test_requires_zeroed_control(self):
        st = StateVector(1, 2)
        st.apply_x(2)
        with pytest.raises(InputError):
            st.prepare_uniform(3)

    @pytest.mark.parametrize("k", [3, 4])
    def test_tiny_control_amplitude_refuses(self, k):
        amps = np.zeros(1 << 5)
        amps[0], amps[2 << 3] = 1.0, 1e-9  # control value 2, data 0, target 0
        st = StateVector(2, 2, amps)
        before = st.amps.copy()
        with pytest.raises(InputError):
            st.prepare_uniform(k)
        assert np.array_equal(st.amps, before)

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_gate_path_calls_no_blas(self, monkeypatch, k):
        # OpenBLAS threads a dot product of a few thousand elements or
        # more, at a fixed cost of milliseconds per call on default
        # threads: the gate path must check the control register without.
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS call")

        keys = random_keyset(np.random.default_rng(k), 11, k)
        expected = run_circuit(keys).amps
        for name in ("vdot", "dot", "inner"):
            monkeypatch.setattr(np, name, refuse)
        assert np.array_equal(bits(run_circuit(keys).amps), bits(expected))
        amps = np.zeros(1 << (12 + control_width(k)))
        amps[0], amps[-1] = 1.0, 1e-9
        st = StateVector(11, control_width(k), amps)
        with pytest.raises(InputError, match="control register in"):
            st.prepare_uniform(k)

    def test_callers_state_is_scanned_once(self, monkeypatch):
        # A caller's 19-qubit state is scanned once, when it is made: the
        # tail check reads its map, so no tile is scanned, and the write
        # marks it.
        n, r, k = 16, 2, 3
        amps = np.zeros(1 << (n + 1 + r))
        rows = amps.reshape(1 << r, -1)
        rows[0] = np.random.default_rng(19).normal(size=rows.shape[1])
        expected = amps.copy().reshape(1 << r, -1)
        expected[0] *= 1.0 / math.sqrt(k)
        expected[1:k] = expected[0]
        scans = []
        scanned_map = simulator._scanned_map
        monkeypatch.setattr(simulator, "_scanned_map", lambda a: scans.append(1) or scanned_map(a))
        monkeypatch.setattr(simulator, "_is_zero", lambda tile: pytest.fail("tile scan"))
        st = StateVector(n, r, amps).prepare_uniform(k)
        assert len(scans) == 1
        assert np.array_equal(bits(st.amps), bits(expected.reshape(-1)))

    @pytest.mark.parametrize("tiny", [1e-12, 0.0])
    def test_accepted_tail_comes_out_bitwise_zero(self, tiny):
        n, r, k = 3, 3, 5
        amps = np.zeros(1 << (n + 1 + r), dtype=complex)
        rows = amps.reshape(1 << r, -1)
        rows[0] = random_state(n + 1, 41)
        rows[1, 2] = 1e-12  # below k: overwritten by row 0
        rows[k, 0] = tiny  # from k on: written back to zero
        rows[k + 1] = with_negative_zeros(np.zeros(rows.shape[1], dtype=complex), 3)
        assert bits(rows[k + 1]).any()
        # Amplitudes of the direct write (1/sqrt(k)) row 0 on rows < k, 0.0 after.
        expected = np.zeros_like(rows)
        expected[:k] = rows[0] * (1.0 / math.sqrt(k))
        st = StateVector(n, r, amps).prepare_uniform(k)
        assert np.array_equal(bits(st.amps), bits(expected.reshape(-1)))


class TestDataMarginal:
    @pytest.mark.parametrize(
        "n,r,dtype",
        with_dtypes([(2, 2), (1, 16), (3, 17), (8, 10), (12, 7), (13, 6), (14, 5),
                     (15, 4), (16, 1), (17, 0), (19, 3)]),
    )
    def test_bit_identical_to_one_expression(self, n, r, dtype):
        # Under one tile every third row is zero.  From one tile up, one
        # 4096-amplitude chunk of each tile and every third tile are
        # planted dead, so that with rows wider than a chunk and
        # narrower than a tile (n = 13 .. 15) runs of live chunks start
        # and end mid-row; the state's map, from one scan, marks them.
        amps = random_state(n + 1 + r, n + r)
        if dtype is np.float64:
            amps = with_negative_zeros(amps, n + r).real.copy()
        if amps.size < simulator._TILE:
            amps.reshape(-1, 1 << n)[::3] = 0.0
        else:
            tiles = amps.reshape(-1, simulator._TILE_CHUNKS, simulator._MIN_RUN)
            dead = np.random.default_rng(n).integers(simulator._TILE_CHUNKS, size=len(tiles))
            tiles[np.arange(len(tiles)), dead] = 0.0
            tiles[1::3] = 0.0
        expected = (np.abs(amps.reshape(-1, 1 << n)) ** 2).sum(axis=0)
        assert np.array_equal(bits(StateVector(n, r, amps).data_marginal()), bits(expected))

    def test_memory_stays_within_tiles(self):
        # n=19, r=3: the result is 4 MiB; a buffer of whole 2^19-column
        # rows would add 8 MiB, one of _TILE-column blocks adds 1 MiB.
        st = StateVector(19, 3)
        tracemalloc.start()
        try:
            st.data_marginal()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestBuildCircuit:
    def test_register_sizes(self):
        assert build_circuit(keyset("011", "101")).total_qubits == 5
        assert build_circuit(keyset("101")).total_qubits == 4
        assert build_circuit(keyset("001", "010", "011", "101")).total_qubits == 6

    def test_control_width(self):
        assert [control_width(k) for k in (1, 2, 3, 4, 5, 8)] == [0, 1, 2, 2, 3, 3]

    def test_single_key_has_no_control_prep(self):
        spec = build_circuit(keyset("101"))
        assert spec.r == 0
        ops = [g[0] for g in spec.gates]
        assert "prepare_uniform" not in ops
        assert ops.count("cku") == 1

    def test_non_power_of_two_uses_uniform_prep(self):
        spec = build_circuit(keyset("001", "010", "111"))
        assert ("prepare_uniform", 3) in spec.gates

    def test_power_of_two_uses_hadamards(self):
        spec = build_circuit(keyset("001", "010", "011", "101"))
        assert all(g[0] != "prepare_uniform" for g in spec.gates)
        assert ("h", 4) in spec.gates and ("h", 5) in spec.gates

    def test_qubit_cap(self):
        ks = KeySet.from_strings(["0" * 23 + "1"])
        with pytest.raises(CapacityError, match="qubits"):
            run_circuit(ks, "gate")


class TestRunCircuit:
    def test_two_distinct_keys(self):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        assert dist == pytest.approx({0b011: 0.5, 0b101: 0.5}, abs=1e-10)

    def test_single_key_deterministic(self):
        dist = exact_distribution(run_circuit(keyset("101")))
        assert dist == pytest.approx({0b101: 1.0}, abs=1e-10)

    def test_four_distinct_keys(self):
        dist = exact_distribution(run_circuit(keyset("001", "010", "011", "101")))
        assert dist == pytest.approx(
            {0b001: 0.25, 0b010: 0.25, 0b011: 0.25, 0b101: 0.25}, abs=1e-10
        )

    def test_duplicate_keys_weighted(self):
        # occurrence-weighted statistics, the normalization-critical case
        dist = exact_distribution(run_circuit(keyset("010", "011", "011", "101")))
        assert dist == pytest.approx(
            {0b010: 0.25, 0b011: 0.5, 0b101: 0.25}, abs=1e-9
        )

    def test_weights_match_multiplicity_everywhere(self):
        # independent oracle: P(t) = occurrences(t) / k for any multiset
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(6, 1 << n) + 1))
            ks = random_keyset(rng, n, k)
            dist = exact_distribution(run_circuit(ks))
            expected = {}
            for v in ks.values:
                expected[v] = expected.get(v, 0.0) + 1.0 / k
            assert dist == pytest.approx(expected, abs=1e-10)

    def test_key_superposition_amplitudes(self):
        # distinct keys: dropped-ancilla state has amplitude 1/sqrt(k)
        # on each key and 0 elsewhere
        for texts in (("011", "101"), ("001", "010", "011", "101"), ("1101",)):
            ks = keyset(*texts)
            reduced = run_circuit(ks).data_register_state()
            expected = np.zeros(1 << ks.n, dtype=complex)
            for v in ks.values:
                expected[v] = 1 / math.sqrt(ks.k)
            phase = reduced[np.argmax(np.abs(reduced))]
            phase /= abs(phase)
            assert np.allclose(reduced / phase, expected, atol=1e-10)

    def test_oracle_paths_agree_exhaustive_small(self):
        for n in (1, 2):
            for k in (1, 2, 3):
                if k > (1 << n):
                    continue
                for values in itertools.combinations_with_replacement(
                    range(1 << n), k
                ):
                    ks = KeySet(tuple(values), n)
                    g = run_circuit(ks, oracle_path="gate")
                    f = run_circuit(ks, oracle_path="fast")
                    assert np.max(np.abs(g.amps - f.to_statevector().amps)) < 1e-10

    def test_oracle_paths_agree_randomized(self):
        rng = np.random.default_rng(23)
        for case in range(40):
            k = case % 8 + 1
            n_lo = max(1, control_width(k))
            n = int(rng.integers(n_lo, 6))
            ks = random_keyset(rng, n, k)
            g = run_circuit(ks, oracle_path="gate")
            f = run_circuit(ks, oracle_path="fast")
            assert np.max(np.abs(g.amps - f.to_statevector().amps)) < 1e-10

    def test_fast_path_is_closed_form_final_state(self):
        # basis index = control i << (n + 1) | target << n | data s_i
        cases = (
            ("011", "101"),
            ("010", "011", "011", "101"),
            ("1101",),
            ("001", "010", "111"),
        )
        for texts in cases:
            ks = keyset(*texts)
            n, k = ks.n, ks.k
            expected = np.zeros(1 << (n + 1 + control_width(k)), dtype=complex)
            for i, v in enumerate(ks.values):
                expected[(i << (n + 1)) | v] = 1 / math.sqrt(2 * k)
                expected[(i << (n + 1)) | (1 << n) | v] = -1 / math.sqrt(2 * k)
            assert np.array_equal(
                run_circuit(ks, oracle_path="fast").to_statevector().amps, expected
            )

    def test_fast_path_returns_the_spec(self):
        ks = keyset("010", "011", "011")
        fast = run_circuit(ks, oracle_path="fast")
        assert fast == build_circuit(ks)
        assert not hasattr(fast, "amps")
        assert (fast.total_qubits, fast.r) == (6, 2)
        assert exact_distribution(fast) == pytest.approx(
            {0b010: 1 / 3, 0b011: 2 / 3}, abs=1e-12
        )

    def test_fast_path_allocates_no_amplitude_array(self):
        # n=19, k=8: a dense state would take 2^23 complex128 = 128 MB.
        ks = random_keyset(np.random.default_rng(19), 19, 8)
        tracemalloc.start()
        try:
            fast = run_circuit(ks, oracle_path="fast")
            measure_data_register(
                exact_distribution(fast), 100_000, np.random.default_rng(0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_fast_path_beyond_cap_refuses_only_the_dense_state(self):
        low, high = "0" * 23 + "1", "1" * 24
        spec = run_circuit(keyset(low, high), oracle_path="fast")
        assert spec.total_qubits == 26
        assert exact_distribution(spec) == {int(low, 2): 0.5, int(high, 2): 0.5}
        with pytest.raises(CapacityError, match="circuit needs 26 qubits"):
            spec.to_statevector()

    def test_gate_path_amplitudes_are_real(self):
        ks = keyset("010", "011", "011")
        assert run_circuit(ks).amps.dtype == np.float64
        assert run_circuit(ks, oracle_path="fast").to_statevector().amps.dtype == np.float64
        assert StateVector(1, 0, np.eye(4)[0]).amps.dtype == np.float64
        assert StateVector(1, 0, np.eye(4, dtype=complex)[0]).amps.dtype == np.complex128

    @pytest.mark.parametrize(
        "n,values",
        [
            (1, (1,)),
            (1, (1, 1)),
            (15, (0x1234,)),
            (15, (0x7001, 0x0f0f, 0x7001)),
            (16, (0xbeef, 0x0001)),
            (16, (0x8000, 0x1357, 0x1357, 0xffff, 0x2468, 0x8000)),
            (17, (0x1abcd, 0x00001, 0x10000, 0x1abcd, 0x0ff00)),
            (17, (0x10001, 0x0a0a0, 0x10001)),
        ],
    )
    def test_real_gate_path_bit_identical_to_complex(self, n, values):
        # r from 0 to 3, k not a power of two, and duplicate keys.
        ks = KeySet(tuple(values), n)
        spec = build_circuit(ks)
        start = np.zeros(1 << spec.total_qubits, dtype=np.complex128)
        start[0] = 1.0
        complex_state = StateVector(spec.n, spec.r, start)
        for is_h, gates in itertools.groupby(spec.gates, key=lambda g: g[0] == "h"):
            if is_h:
                complex_state.apply_hadamard(*(gate[1] for gate in gates))
            else:
                for gate in gates:
                    simulator._apply_gate(complex_state, spec, gate)
        real_state = run_circuit(ks)
        assert complex_state.amps.dtype == np.complex128
        assert real_state.amps.dtype == np.float64
        assert np.array_equal(
            bits(real_state.amps), bits(np.ascontiguousarray(complex_state.amps.real))
        )
        assert not bits(np.ascontiguousarray(complex_state.amps.imag)).any()
        assert np.array_equal(
            bits(real_state.data_marginal()), bits(complex_state.data_marginal())
        )

    def test_gate_path_memory(self):
        # n=19, k=8: 2^23 float64 amplitudes are 64 MiB; complex128 took 140.
        ks = random_keyset(np.random.default_rng(19), 19, 8)
        tracemalloc.start()
        try:
            run_circuit(ks).data_marginal()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20

    def test_gate_path_digest_at_workload_size(self):
        # Six 19-bit keys, random.Random(7).sample(range(1 << 19), 6): a
        # 23-qubit state whose every amplitude and marginal bit is pinned.
        ks = KeySet((339563, 158176, 414002, 50631, 75954, 98702), 19)
        st = run_circuit(ks)
        assert hashlib.sha256(st.amps.tobytes()).hexdigest() == (
            "a7bfa29fb8df43e937f1e0686f5bc99efbe8141d219003fe9d2752d7c9b90a67"
        )
        assert hashlib.sha256(st.data_marginal().tobytes()).hexdigest() == (
            "66829cfa67de35f030b32dfbb13e34d1b5e16067836be9fef6e89ccb782fc5a2"
        )

    @pytest.fixture
    def no_threads(self, monkeypatch):
        """Fail the test if a thread starts or the CPU count is read: every
        gate layer runs in the calling thread, whatever the state's size."""
        def refuse(*args):
            raise AssertionError("a gate layer started a thread or read the CPU count")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(adversary, "_usable_cpus", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", refuse, raising=False)
        monkeypatch.setattr(os, "cpu_count", refuse)

    @pytest.mark.parametrize("total", range(3, 15))
    def test_small_states_start_no_thread(self, no_threads, total):
        # The shapes of the small-circuits workload: control width 0 to 3,
        # k at and just above a power of two, all keys distinct or one
        # duplicated.
        rng = np.random.default_rng(total)
        for r in range(4):
            n = total - 1 - r
            for k in sorted({(1 << r) // 2 + 1, 1 << r}):
                if n < 1 or k > 1 << n:
                    continue
                values = tuple(int(v) for v in rng.choice(1 << n, size=k, replace=False))
                for keys in {values, values[:-1] + values[:1]}:
                    ks = KeySet(keys, n)
                    assert exact_distribution(run_circuit(ks)) == pytest.approx(
                        exact_distribution(run_circuit(ks, oracle_path="fast")), abs=1e-12
                    )

    def test_multi_tile_states_start_no_thread(self, no_threads):
        # States of 4 tiles and more: a 19-qubit layer through both
        # passes, an X through the high-qubit pass, and the 18-qubit
        # circuit of six 14-bit keys.
        amps = random_state(LAYER_QUBITS, 47)
        qubits = tuple(range(LAYER_QUBITS))
        layer = StateVector(LAYER_QUBITS - 1, 0, amps.copy()).apply_hadamard(*qubits)
        assert np.array_equal(bits(layer.amps), bits(pair_formula(amps, qubits, "h")))
        flipped = StateVector(LAYER_QUBITS - 1, 0, amps.copy()).apply_x(simulator._TILE_BITS + 1)
        assert np.array_equal(bits(flipped.amps), bits(pair_formula(amps, (simulator._TILE_BITS + 1,), "x")))
        ks = KeySet(tuple(random.Random(7).sample(range(1 << 14), 6)), 14)
        assert ks.n + 1 + control_width(ks.k) == 18
        assert exact_distribution(run_circuit(ks)) == pytest.approx(
            exact_distribution(run_circuit(ks, oracle_path="fast")), abs=1e-12
        )

    def test_unknown_path(self):
        with pytest.raises(InputError):
            run_circuit(keyset("01"), oracle_path="magic")

    def test_wide_data_register(self):
        # 16 data qubits, 2^18 amplitudes
        a = format(0b1010101010101010, "016b")
        b = format(0b0101010101010101, "016b")
        ks = keyset(a, b)
        gate = run_circuit(ks)
        dist = exact_distribution(gate)
        assert dist == pytest.approx({int(a, 2): 0.5, int(b, 2): 0.5}, abs=1e-10)
        fast = run_circuit(ks, oracle_path="fast")
        assert np.max(np.abs(gate.amps - fast.to_statevector().amps)) < 1e-10



def dead_chunks_are_zero(state: StateVector) -> bool:
    """Whether every chunk the state's live map marks dead is all zero bits."""
    chunks = bits(state.amps).reshape(len(state._live), -1)
    return not chunks[~state._live].any()


def gate_calls(spec, single: bool):
    """The gate calls of the circuit: each run of Hadamards as one layer,
    as `run_circuit` applies them, or with `single` one gate at a time."""
    for is_h, gates in itertools.groupby(spec.gates, key=lambda g: g[0] == "h"):
        gates = list(gates)
        if is_h and not single:
            yield ("h", *(gate[1] for gate in gates))
        else:
            yield from gates


def apply_call(state: StateVector, spec, call) -> None:
    if call[0] == "h":
        state.apply_hadamard(*call[1:])
    else:
        simulator._apply_gate(state, spec, call)


def gates_match_the_pair_formula(state: StateVector) -> bool:
    """Whether an H layer on three qubits, an X and a key unitary on
    control branch 1 leave `state` as the pair formula and the parity
    table do, with every chunk its live map marks dead all zero bits."""
    top = state.total_qubits - 1
    expected = pair_formula(state.amps, (0, 1, top), "h")
    expected = pair_formula(expected, (top - 1,), "x")
    parity_table_swap(expected, state.n, state.r, 1, 0b10110)
    state.apply_hadamard(0, 1, top).apply_x(top - 1).apply_controlled_key_unitary(1, 0b10110)
    return np.array_equal(bits(state.amps), bits(expected)) and (
        state._live is None or dead_chunks_are_zero(state))


class TestLiveMap:
    """The live map of a state of one tile or more: one bool per _MIN_RUN
    amplitudes, False only where every bit is zero, built when the state
    is made and kept true by its gates."""

    @pytest.mark.parametrize(
        "n,values,single",
        [
            # 17 qubits, k = 4 with a duplicate key: control Hadamards.
            (14, (0x1234, 0x0fff, 0x1234, 0x2001), True),
            # 18 qubits, k = 6: direct uniform preparation.
            (14, (0x3fff, 0x0001, 0x2aaa, 0x1555, 0x0f0f, 0x3000), True),
            # 17 qubits, k = 33 with a duplicate: rows of 2^11 amplitudes,
            # under one chunk.
            (10, tuple(range(0, 960, 30)) + (30,), True),
            # 19 qubits, n = 16, k = 3 with a duplicate: data rows of
            # whole tiles.
            (16, (0xbeef, 0x0001, 0xbeef), True),
            # 23 qubits: k = 6 with a duplicate, one gate at a time, and
            # k = 8 in the layers run_circuit groups.
            (19, (339563, 158176, 414002, 50631, 339563, 98702), True),
            (19, (1, 2, 4, 8, 16, 32, 64, 1 << 18), False),
        ],
    )
    def test_dead_chunks_hold_zero_bits_after_every_gate(self, n, values, single):
        # After each gate call the state matches one rebuilt from a copy
        # of its amplitudes before the call, whose map comes from a scan.
        ks = KeySet(values, n)
        spec = build_circuit(ks)
        state = StateVector(spec.n, spec.r)
        assert state._live is not None and dead_chunks_are_zero(state)
        for call in gate_calls(spec, single):
            rebuilt = StateVector(spec.n, spec.r, state.amps)
            apply_call(state, spec, call)
            apply_call(rebuilt, spec, call)
            assert dead_chunks_are_zero(state), call
            assert np.array_equal(bits(state.amps), bits(rebuilt.amps)), call
        assert np.array_equal(bits(state.amps), bits(run_circuit(ks).amps))
        assert np.array_equal(bits(state.data_marginal()), bits(rebuilt.data_marginal()))
        assert list(state.nonzero_amplitudes()) == list(rebuilt.nonzero_amplitudes())

    def test_key_unitary_marks_what_either_half_held(self):
        # With the target at |1>, only the target-1 half of row 0 is live
        # before the swap; the swap moves its odd amplitudes to the other.
        state = StateVector(16, 1).apply_x(16).apply_hadamard(*range(16))
        expected = state.amps.copy()
        parity_table_swap(expected, 16, 1, 0, 0xbeef)
        state.apply_controlled_key_unitary(0, 0xbeef)
        assert dead_chunks_are_zero(state)
        assert np.array_equal(bits(state.amps), bits(expected))

    def test_run_circuit_state_is_read_only_and_gates_still_apply(self):
        ks = KeySet((0x1234, 0x0fff, 0x1234, 0x2001, 0x0007), 14)
        st = run_circuit(ks)
        with pytest.raises(ValueError, match="read-only"):
            st.amps[0] = 1.0
        copy = StateVector(st.n, st.r, st.amps.copy())
        for state in (st, copy):
            state.apply_hadamard(0, 3, 16, 15).apply_x(17)
            state.apply_controlled_key_unitary(2, 0x0f0f)
        assert np.array_equal(bits(st.amps), bits(copy.amps))
        assert dead_chunks_are_zero(st)
        assert np.array_equal(bits(st.data_marginal()), bits(copy.data_marginal()))

    def test_states_under_one_tile_get_no_map(self):
        st = run_circuit(keyset("0110", "1001", "1111"))
        assert st._live is None

    @pytest.mark.parametrize("source", ["under-one-tile", "run-circuit", "caller", "closed-form"])
    def test_amps_cannot_be_made_writable(self, source):
        # `amps` refuses writes and the writeable flag for every state:
        # an 8-qubit caller's state, a 17-qubit gate-path and closed-form
        # state, and a 19-qubit caller's state.  The gates still apply.
        ks = KeySet((0x1234, 0x7fff), 15)
        st = {
            "under-one-tile": lambda: StateVector(6, 1, random_state(8, 8).real.copy()),
            "run-circuit": lambda: run_circuit(ks),
            "caller": lambda: StateVector(17, 1, random_state(19, 19).real.copy()),
            "closed-form": lambda: run_circuit(ks, "fast").to_statevector(),
        }[source]()
        with pytest.raises(ValueError, match="read-only"):
            st.amps[0] = 1.0
        with pytest.raises(ValueError):
            st.amps.flags.writeable = True
        assert gates_match_the_pair_formula(st)

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("total", [8, 19])
    def test_a_callers_array_is_never_written(self, writeable, total):
        # Given amplitudes are copied: the caller's array, writable or
        # read-only, keeps its bits and its flags through every gate.
        amps = random_state(total, total)
        amps.reshape(-1, 64)[::3] = 0.0
        kept = amps.copy()
        amps.flags.writeable = writeable
        st = StateVector(total - 2, 1, amps)
        assert gates_match_the_pair_formula(st)
        assert np.array_equal(bits(amps), bits(kept))
        assert amps.flags.writeable is writeable

    def test_a_callers_state_is_scanned_once(self, monkeypatch):
        # A caller's 19-qubit state with its control register uniform
        # takes the circuit up to its final layer, then both readers: the
        # state is scanned once, when it is made.
        n, r, keys = 16, 2, (0xbeef, 0x0001, 0x8000, 0x1357)
        amps = np.zeros(1 << (n + 1 + r))
        amps.reshape(1 << r, -1)[:, 0] = 0.5
        expected = pair_formula(pair_formula(amps, range(n), "h"), (n,), "x")
        expected = pair_formula(expected, (n,), "h")
        for i, key in enumerate(keys):
            parity_table_swap(expected, n, r, i, key)
        scans = []
        scanned_map = simulator._scanned_map
        monkeypatch.setattr(simulator, "_scanned_map", lambda a: scans.append(a.size) or scanned_map(a))
        st = StateVector(n, r, amps)
        st.apply_hadamard(*range(n)).apply_x(n).apply_hadamard(n)
        for i, key in enumerate(keys):
            st.apply_controlled_key_unitary(i, key)
        marginal, listed = st.data_marginal(), list(st.nonzero_amplitudes())
        assert scans == [amps.size]
        monkeypatch.undo()
        assert np.array_equal(bits(st.amps), bits(expected))
        rebuilt = StateVector(n, r, expected)
        assert np.array_equal(bits(marginal), bits(rebuilt.data_marginal()))
        assert listed == list(rebuilt.nonzero_amplitudes())

    @pytest.mark.parametrize("n,r", [(16, 0), (17, 1)])
    def test_readers_of_a_callers_state_call_no_is_zero(self, monkeypatch, n, r):
        # A caller's 17- or 19-qubit state gets a fresh map from one scan;
        # neither reader scans tile by tile.
        amps = random_state(n + 1 + r, n).real.copy()
        amps.reshape(-1, simulator._MIN_RUN)[1::2] = 0.0
        st = StateVector(n, r, amps)
        expected = StateVector(n, r, amps.copy())
        calls = []
        is_zero = simulator._is_zero
        monkeypatch.setattr(simulator, "_is_zero", lambda tile: calls.append(tile.size) or is_zero(tile))
        marginal, listed = st.data_marginal(), list(st.nonzero_amplitudes())
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(bits(marginal), bits(expected.data_marginal()))
        assert listed == list(expected.nonzero_amplitudes())

    @pytest.mark.parametrize("n,k", [(16, 2), (14, 6)])
    def test_readers_touch_only_live_chunks(self, n, k):
        # Poison every dead chunk with NaN behind the map's back: the
        # marginal and the nonzero list come out as before, so neither
        # read a dead chunk.  n = 16 sums tile-wide blocks of one row,
        # n = 14 whole rows per tile.
        ks = random_keyset(np.random.default_rng(n), n, k)
        st = run_circuit(ks)
        marginal = st.data_marginal()
        listed = list(st.nonzero_amplitudes())
        assert listed == list(StateVector(st.n, st.r, st.amps.copy()).nonzero_amplitudes())
        st._amps.reshape(len(st._live), -1)[~st._live] = np.nan
        assert np.array_equal(bits(st.data_marginal()), bits(marginal))
        assert list(st.nonzero_amplitudes()) == listed

    @pytest.mark.parametrize(
        "n,k,digest",
        [
            (13, 4, "251799608ac4d16f0615d888ddc8649b3abb4d94568633850ed7b65693c82652"),
            (16, 2, "2953c906181e5e81cb9a0f12a2ebeb62819bb33cdb4b0876603a29373c4eae5e"),
            (14, 6, "271616aad69823ca38186b9e09cf01977c547c1f3ceca8ad5a4cf4fcb291a435"),
            (17, 3, "2533f5219f726792a7815c55bdfd6f4e366a15e680e27f035633b6d4037c387d"),
            (18, 5, "a7fa2af6de52f0d19bc846403b3f90a16d02a93676265515c646ed465b27c9be"),
            (19, 6, "ddf805ac6ce1d317353a0ea65a1a6ab36273d37112eb9a27e43b167e31d01067"),
        ],
    )
    def test_map_after_each_layer_is_pinned(self, n, k, digest):
        # Circuits of 16 to 23 qubits: the sha256 over the live map after
        # each gate call of `run_circuit`, pinned when whole tiles of the
        # low pass tested each stage's halves after scaling all of them
        # and took every stage of the first data layer.  Growing and
        # scaling only kept halves change no map.
        rng = np.random.default_rng(1000 + n)
        spec = build_circuit(KeySet(tuple(int(v) for v in rng.integers(1 << n, size=k)), n))
        state = StateVector(spec.n, spec.r)
        maps = hashlib.sha256()
        for call in gate_calls(spec, False):
            apply_call(state, spec, call)
            maps.update(state._live.tobytes())
        assert maps.hexdigest() == digest

    def test_final_high_pass_scans_no_dead_tile(self, monkeypatch):
        # The 23-qubit final data layer: after its low pass, 12 of the
        # high pass's 128 tiles hold amplitudes.  The high pass finds
        # them in the live map, so neither it nor the marginal calls
        # `_is_zero` on any tile.
        ks = KeySet((339563, 158176, 414002, 50631, 75954, 98702), 19)
        spec = build_circuit(ks)
        *calls, last = gate_calls(spec, False)
        expected = run_circuit(ks).amps
        st = StateVector(spec.n, spec.r)
        for call in calls:
            apply_call(st, spec, call)
        # The phase `_is_zero` is called in: "high" while the high pass
        # runs, "marginal" while the marginal runs.
        phase, passes, scans = [None], [], []
        high_pass, is_zero = simulator._high_qubit_pass, simulator._is_zero

        def spied_pass(amps, first, length, kernel, live):
            phase[0] = "high"
            passes.append((first, length))
            high_pass(amps, first, length, kernel, live)
            phase[0] = None

        def spied_is_zero(tile):
            if phase[0] is not None:
                scans.append(phase[0])
            return is_zero(tile)

        monkeypatch.setattr(simulator, "_high_qubit_pass", spied_pass)
        monkeypatch.setattr(simulator, "_is_zero", spied_is_zero)
        apply_call(st, spec, last)
        assert passes == [(16, 3)]
        phase[0] = "marginal"
        marginal = st.data_marginal()
        phase[0] = None
        assert scans == []
        assert np.array_equal(bits(st.amps), bits(expected))
        assert hashlib.sha256(marginal.tobytes()).hexdigest() == (
            "66829cfa67de35f030b32dfbb13e34d1b5e16067836be9fef6e89ccb782fc5a2"
        )

class TestExactDistribution:
    def test_sums_to_one(self):
        dist = exact_distribution(run_circuit(keyset("0110", "1001", "1111")))
        assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_uniform_data_register(self):
        st = StateVector(3, 0)
        for q in range(3):
            st.apply_hadamard(q)
        dist = exact_distribution(st)
        assert len(dist) == 8
        for p in dist.values():
            assert p == pytest.approx(1 / 8, abs=1e-12)


class TestMeasurement:
    def test_deterministic_outcome(self):
        dist = exact_distribution(run_circuit(keyset("101")))
        counts = measure_data_register(dist, 100, np.random.default_rng(0))
        assert dict(zip(dist, counts.tolist())) == {0b101: 100}

    def test_conservation(self):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        for shots in (1, 7, 1024):
            counts = measure_data_register(dist, shots, np.random.default_rng(1))
            assert counts.sum() == shots
            assert counts.dtype == np.int64 and counts.shape == (len(dist),)

    def test_two_key_histogram_within_three_sigma(self):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        counts = measure_data_register(dist, 1024, np.random.default_rng(99))
        observed = dict(zip(dist, counts.tolist()))
        sigma = math.sqrt(0.25 / 1024)
        for outcome in (0b011, 0b101):
            p_hat = observed.get(outcome, 0) / 1024
            assert abs(p_hat - 0.5) <= 3 * sigma

    def test_seeded_determinism(self):
        st = run_circuit(keyset("0011", "0101", "1001", "1111"))
        a = measure_data_register(
            exact_distribution(st), 512, np.random.default_rng(1234)
        )
        b = measure_data_register(
            exact_distribution(st), 512, np.random.default_rng(1234)
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shots", [7, 8, 25])
    def test_chunked_draws_match_one_call(self, monkeypatch, shots):
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 8)
        st = run_circuit(keyset("001", "011", "011", "110", "111"))
        dist = exact_distribution(st)
        counts = measure_data_register(dist, shots, np.random.default_rng(42))
        probs = st.data_marginal()
        probs /= probs.sum()
        drawn = np.random.default_rng(42).choice(probs.size, size=shots, p=probs)
        tallies = np.bincount(drawn, minlength=probs.size)
        expected = {int(x): int(tallies[x]) for x in np.flatnonzero(tallies)}
        assert {x: c for x, c in zip(dist, counts.tolist()) if c} == expected
        assert counts.sum() == shots

    def test_rejects_zero_shots(self):
        with pytest.raises(InputError):
            measure_data_register(
                exact_distribution(run_circuit(keyset("01"))), 0, np.random.default_rng(0)
            )

    def test_outcome_never_drawn_counts_zero(self):
        dist = {0b01: 1.0, 0b10: 0.0}
        counts = measure_data_register(dist, 4, np.random.default_rng(0))
        assert counts.tolist() == [4, 0]


class TestOutcomeSampler:
    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1.0] * 4,
            [1.0] * 3,
            [0.0, 3.0, 0.0, 1.0, 0.0],
            (2.0 ** -np.arange(60)).tolist(),
            np.random.default_rng(3).random(1000).tolist(),
            np.random.default_rng(4).random(70_000).tolist(),
            [1.0] * 9,
            np.random.default_rng(5).random(64).tolist(),
            [1.0] * 64,
        ],
    )
    def test_lookup_equals_searchsorted_at_every_edge(self, weights):
        probs = np.array(weights) / np.sum(weights)
        sampler = OutcomeSampler(probs)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert np.array_equal(sampler.cdf, cdf)
        # Equal weights of a power-of-two count put every cdf edge on a
        # bucket boundary, so their tables skip the edge scan.
        assert sampler._edges == bool((sampler._table < 0).any())
        if len(weights) in (1, 4, 64) and len(set(weights)) == 1:
            assert not sampler._edges
        buckets = sampler.buckets
        assert buckets & (buckets - 1) == 0
        if buckets < simulator._MAX_BUCKETS:
            assert buckets // 2 < 16 * probs.size <= buckets
        else:
            assert 16 * probs.size > simulator._MAX_BUCKETS // 2
        edges = np.concatenate([cdf, np.arange(buckets + 1) / buckets])
        u = np.concatenate(
            [
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
                [0.0, 1.0 - 2.0**-53],
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(sampler.lookup(u), cdf.searchsorted(u, "right"))
        grid = u[: u.size // 2 * 2].reshape(2, -1)
        assert np.array_equal(sampler.lookup(grid), cdf.searchsorted(grid, "right"))
        if probs.size <= 64:
            # One-hot words of the narrowest unsigned dtype of k bits.
            word = np.min_scalar_type((1 << probs.size) - 1)
            for draws in (u, grid):
                expected = word.type(1) << cdf.searchsorted(draws, "right").astype(word)
                words = sampler.onehot(draws, out=np.empty(draws.shape, dtype=word))
                assert np.array_equal(words, expected)

    def test_table_memory_is_bounded_for_a_million_outcomes(self):
        probs = np.random.default_rng(5).random(10**6)
        tracemalloc.start()
        try:
            sampler = OutcomeSampler(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampler.buckets == simulator._MAX_BUCKETS
        assert peak < 64 * 2**20
        u = np.random.default_rng(6).random(1000)
        assert np.array_equal(sampler.lookup(u), sampler.cdf.searchsorted(u, "right"))

    @pytest.mark.parametrize("draws", [1, 2, 3, 1000, 5000, 1 << 20])
    def test_table_capped_by_draws_keeps_choice_indices(self, draws):
        probs = np.random.default_rng(8).random(5000)
        probs /= probs.sum()
        sampler = OutcomeSampler(probs, draws)
        assert sampler.buckets == min(1 << (draws - 1).bit_length(), 1 << 17)
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        expected = reference.choice(probs.size, size=(40, 100), p=probs)
        assert np.array_equal(sampler.draw(rng, (40, 100)), expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_few_draws_from_a_million_outcomes_build_a_small_table(self):
        probs = np.random.default_rng(5).random(10**6)
        tracemalloc.start()
        try:
            sampler = OutcomeSampler(probs, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The cdf alone takes 7.6 MiB; the uncapped table took 41 MiB.
        assert sampler.buckets == 1024
        assert peak < 12 * 2**20

    def test_lookup_writes_into_the_given_buffer(self):
        probs = np.array([0.1, 0.0, 0.6, 0.3])
        sampler = OutcomeSampler(probs)
        u = np.random.default_rng(10).random((30, 7))
        u[0, :3] = [0.0, 0.1, 0.7]
        out = np.full(u.shape, -5, dtype=np.intp)
        assert sampler.lookup(u, out) is out
        assert np.array_equal(out, sampler.cdf.searchsorted(u, "right"))

    @pytest.mark.parametrize(
        "weights", [[], [0.5, -0.1, 0.6], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]]
    )
    def test_rejects_weights_without_a_distribution(self, weights):
        with pytest.raises(InputError, match="nonnegative"):
            OutcomeSampler(weights)


class TestChiSquare:
    def test_reasonable_fit(self):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        counts = measure_data_register(dist, 1024, np.random.default_rng(3))
        chi = chi_square_vs_exact(counts, dist)
        assert chi["dof"] == 1
        assert chi["p_value"] > 0.001

    def test_single_shot_omitted(self):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        counts = measure_data_register(dist, 1, np.random.default_rng(3))
        assert chi_square_vs_exact(counts, dist) is None

    def test_single_outcome_omitted(self):
        dist = exact_distribution(run_circuit(keyset("101")))
        counts = measure_data_register(dist, 100, np.random.default_rng(3))
        assert chi_square_vs_exact(counts, dist) is None

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_counts_of_the_wrong_length_refused(self, size):
        dist = exact_distribution(run_circuit(keyset("011", "101")))
        with pytest.raises(InputError, match=f"{size} counts for 2 outcomes"):
            chi_square_vs_exact(np.full(size, 512), dist)

    @pytest.mark.parametrize("shots", [1, 4])
    def test_outcome_of_probability_zero_refused(self, shots):
        with pytest.raises(InputError, match="outcome 2 has probability 0.0"):
            chi_square_vs_exact(np.array([shots, 0]), {1: 1.0, 2: 0.0})

    @pytest.mark.parametrize("dof", [1, 2, 3, 9999])
    def test_p_value_bit_identical_to_chi2_sf(self, dof):
        from scipy.stats import chi2

        support = range(dof + 1)
        exact = {outcome: 1 / len(support) for outcome in support}
        p_values = []
        # One shot per outcome, plus `extra` more on the first: the
        # statistic runs from 0 to far past where the p-value is 0.0.
        for extra in (0, 1, 3, 10, 100, 10**4, 10**6, 10**9):
            counts = np.ones(len(support), dtype=np.int64)
            counts[0] += extra
            chi = chi_square_vs_exact(counts, exact)
            expected = float(chi2.sf(chi["statistic"], dof))
            assert chi["p_value"] == expected, (extra, chi)
            p_values.append(chi["p_value"])
        assert max(p_values) > 0.99
        assert min(p_values) == 0.0


class TestClassicalOracle:
    def test_single_key_deterministic(self):
        oracle = ClassicalOracle(keyset("101"), np.random.default_rng(0))
        assert all(oracle.probe_batch([2], 1)[0] == 1 for _ in range(20))

    def test_zero_input_always_zero(self):
        oracle = ClassicalOracle(keyset("00", "11"), np.random.default_rng(0))
        assert not oracle.probe_batch([], 20).any()

    def test_output_frequency_converges(self):
        # three of the four keys answer 1 on x = 0001
        oracle = ClassicalOracle(
            keyset("0001", "0011", "1011", "1110"), np.random.default_rng(8)
        )
        trials = 20_000
        freq = oracle.probe_batch([0], trials).sum() / trials
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_query_count_charged(self):
        oracle = ClassicalOracle(keyset("01", "10"), np.random.default_rng(0))
        for _ in range(7):
            oracle.probe_batch([0], 1)
        oracle.probe_batch([0, 1], 5)
        assert oracle.queries == 12

    def test_length_mismatch(self):
        # Inputs wider than the keys, and negative positions, which would
        # index the bit matrix from its end, are refused.
        oracle = ClassicalOracle(keyset("01"), np.random.default_rng(0))
        for positions in ([2], [0, 2], [-1]):
            with pytest.raises(InputError, match=r"not all in \[0, 2\)"):
                oracle.probe_batch(positions, 1)
        assert oracle.queries == 0

    @pytest.mark.parametrize("k", [1, 3, 5, 100])
    def test_batch_matches_single_queries(self, k):
        ks = random_keyset(np.random.default_rng(k), 7, k)
        x = [0, 3, 4, 6]  # the set bits of 0b1011001
        single = ClassicalOracle(ks, np.random.default_rng(4))
        batched = ClassicalOracle(ks, np.random.default_rng(4))
        answers = [int(single.probe_batch(x, 1)[0]) for _ in range(50)]
        batches = batched.probe_batch(x, 20).tolist() + batched.probe_batch(x, 30).tolist()
        assert batches == answers
        assert single.queries == batched.queries == 50

    def test_batch_rejects_empty_size(self):
        oracle = ClassicalOracle(keyset("01"), np.random.default_rng(0))
        with pytest.raises(InputError):
            oracle.probe_batch([0], 0)
