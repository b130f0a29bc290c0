"""Statevector gates, circuit construction, oracle paths, sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from multikey_bv import (
    CapacityError,
    ClassicalOracle,
    InputError,
    KeySet,
    SecretKey,
    build_circuit,
    exact_distribution,
    measure_data_register,
    run_circuit,
)
from multikey_bv import simulator
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


def parity_table_swap(amps: np.ndarray, n: int, r: int, i: int, key: int) -> None:
    """Reference controlled key unitary: a 2^n parity table and a fancy-index swap."""
    x = np.arange(1 << n, dtype=np.uint64)
    odd = (np.bitwise_count(x & np.uint64(key)) & 1) == 1
    block = amps.reshape(1 << r, 2, 1 << n)[i]
    flipped = block[0, odd].copy()
    block[0, odd] = block[1, odd]
    block[1, odd] = flipped


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
        s = 1.0 / math.sqrt(2.0)
        for q in range(total):
            pairs = amps.copy().reshape(-1, 2, 1 << q)
            lo, hi = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
            pairs[:, 0, :], pairs[:, 1, :] = (lo + hi) * s, (lo - hi) * s
            st = StateVector(total - 1, 0, amps.copy()).apply_hadamard(q)
            assert np.array_equal(st.amps, pairs.reshape(-1)), f"H on qubit {q}"

            swapped = amps.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)
            st = StateVector(total - 1, 0, amps.copy()).apply_x(q)
            assert np.array_equal(st.amps, swapped), f"X on qubit {q}"

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


class TestControlledKeyUnitary:
    def test_zero_key_is_identity(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        st = StateVector(2, 2, amps.copy())
        st.apply_controlled_key_unitary(1, SecretKey(0, 2))
        assert np.array_equal(st.amps, amps)

    def test_direct_flip_action(self):
        # n=1, key=1, no controls: |x=1, y=0> -> |x=1, y=1>
        st = StateVector(1, 0, np.array([0, 1, 0, 0], dtype=complex))
        st.apply_controlled_key_unitary(0, SecretKey(1, 1))
        assert np.array_equal(st.amps, np.array([0, 0, 0, 1], dtype=complex))

    def test_only_selected_branch_touched(self):
        # amplitude sitting in control branch 0 must ignore a branch-1 unitary
        st = StateVector(1, 1, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
        st.apply_controlled_key_unitary(1, SecretKey(1, 1))
        assert np.array_equal(
            st.amps, np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
        )

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 19])
    def test_tiled_swap_bit_identical_to_parity_table(self, n):
        r = 1 if n == 19 else 2
        amps = with_negative_zeros(random_state(n + 1 + r, n), n)
        rng = np.random.default_rng(100 + n)
        keys = {0, (1 << n) - 1, *(int(v) for v in rng.integers(1 << n, size=3))}
        if n > 16:
            keys.add(((1 << n) - 1) & ~0xFFFF)  # only bits from 16 up
        for i in range(1 << r):
            for key in sorted(keys):
                expected = amps.copy()
                parity_table_swap(expected, n, r, i, key)
                st = StateVector(n, r, amps.copy())
                st.apply_controlled_key_unitary(i, SecretKey(key, n))
                assert np.array_equal(bits(st.amps), bits(expected)), (i, key)

    def test_bad_control_index(self):
        st = StateVector(1, 1)
        with pytest.raises(InputError):
            st.apply_controlled_key_unitary(2, SecretKey(1, 1))


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
        st = StateVector(2, 2)
        st.amps[2 << 3] = 1e-9  # control value 2, data 0, target 0
        before = st.amps.copy()
        with pytest.raises(InputError):
            st.prepare_uniform(k)
        assert np.array_equal(st.amps, before)

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
        "n,r", [(2, 2), (1, 16), (3, 17), (8, 10), (16, 1), (17, 0), (19, 3)]
    )
    def test_bit_identical_to_one_expression(self, n, r):
        amps = random_state(n + 1 + r, n + r)
        amps.reshape(-1, 1 << n)[::3] = 0.0
        expected = (np.abs(amps.reshape(-1, 1 << n)) ** 2).sum(axis=0)
        marginal = StateVector(n, r, amps).data_marginal()
        assert np.array_equal(bits(marginal), bits(expected))


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
        assert dist == pytest.approx({"011": 0.5, "101": 0.5}, abs=1e-10)

    def test_single_key_deterministic(self):
        dist = exact_distribution(run_circuit(keyset("101")))
        assert dist == pytest.approx({"101": 1.0}, abs=1e-10)

    def test_four_distinct_keys(self):
        dist = exact_distribution(run_circuit(keyset("001", "010", "011", "101")))
        assert dist == pytest.approx(
            {"001": 0.25, "010": 0.25, "011": 0.25, "101": 0.25}, abs=1e-10
        )

    def test_duplicate_keys_weighted(self):
        # occurrence-weighted statistics, the normalization-critical case
        dist = exact_distribution(run_circuit(keyset("010", "011", "011", "101")))
        assert dist == pytest.approx(
            {"010": 0.25, "011": 0.5, "101": 0.25}, abs=1e-9
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
                s = format(v, f"0{n}b")
                expected[s] = expected.get(s, 0.0) + 1.0 / k
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
            {"010": 1 / 3, "011": 2 / 3}, abs=1e-12
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
        assert exact_distribution(spec) == {low: 0.5, high: 0.5}
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
        assert dist == pytest.approx({a: 0.5, b: 0.5}, abs=1e-10)
        fast = run_circuit(ks, oracle_path="fast")
        assert np.max(np.abs(gate.amps - fast.to_statevector().amps)) < 1e-10


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
        st = run_circuit(keyset("101"))
        hist = measure_data_register(
            exact_distribution(st), 100, np.random.default_rng(0)
        )
        assert hist.counts == {"101": 100}

    def test_conservation(self):
        st = run_circuit(keyset("011", "101"))
        for shots in (1, 7, 1024):
            hist = measure_data_register(
                exact_distribution(st), shots, np.random.default_rng(1)
            )
            assert sum(hist.counts.values()) == shots
            assert hist.shots == shots

    def test_two_key_histogram_within_three_sigma(self):
        st = run_circuit(keyset("011", "101"))
        hist = measure_data_register(
            exact_distribution(st), 1024, np.random.default_rng(99)
        )
        sigma = math.sqrt(0.25 / 1024)
        for outcome in ("011", "101"):
            p_hat = hist.counts.get(outcome, 0) / 1024
            assert abs(p_hat - 0.5) <= 3 * sigma

    def test_seeded_determinism(self):
        st = run_circuit(keyset("0011", "0101", "1001", "1111"))
        a = measure_data_register(
            exact_distribution(st), 512, np.random.default_rng(1234)
        )
        b = measure_data_register(
            exact_distribution(st), 512, np.random.default_rng(1234)
        )
        assert a == b

    @pytest.mark.parametrize("shots", [7, 8, 25])
    def test_chunked_draws_match_one_call(self, monkeypatch, shots):
        monkeypatch.setattr(simulator, "_SHOT_CHUNK", 8)
        st = run_circuit(keyset("001", "011", "011", "110", "111"))
        hist = measure_data_register(
            exact_distribution(st), shots, np.random.default_rng(42)
        )
        probs = st.data_marginal()
        probs /= probs.sum()
        drawn = np.random.default_rng(42).choice(probs.size, size=shots, p=probs)
        tallies = np.bincount(drawn, minlength=probs.size)
        expected = {
            format(int(x), "03b"): int(tallies[x]) for x in np.flatnonzero(tallies)
        }
        assert hist.counts == expected
        assert sum(hist.counts.values()) == shots

    def test_rejects_zero_shots(self):
        with pytest.raises(InputError):
            measure_data_register(
                exact_distribution(run_circuit(keyset("01"))), 0, np.random.default_rng(0)
            )

    def test_serialization_records(self):
        st = run_circuit(keyset("011", "101"))
        hist = measure_data_register(
            exact_distribution(st), 64, np.random.default_rng(5)
        )
        records = hist.to_records(exact=exact_distribution(st))
        assert [r["outcome"] for r in records] == sorted(r["outcome"] for r in records)
        for rec in records:
            assert set(rec) == {"outcome", "count", "probability", "exact_probability"}

    def test_exact_outcome_never_drawn_reports_zero(self):
        hist = simulator.Histogram(counts={"01": 4}, shots=4)
        assert hist.to_records(exact={"01": 0.5, "10": 0.5}) == [
            {"outcome": "01", "count": 4, "probability": 1.0, "exact_probability": 0.5},
            {"outcome": "10", "count": 0, "probability": 0.0, "exact_probability": 0.5},
        ]


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
        ],
    )
    def test_lookup_equals_searchsorted_at_every_edge(self, weights):
        probs = np.array(weights) / np.sum(weights)
        sampler = OutcomeSampler(probs)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert np.array_equal(sampler.cdf, cdf)
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

    @pytest.mark.parametrize(
        "weights", [[], [0.5, -0.1, 0.6], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]]
    )
    def test_rejects_weights_without_a_distribution(self, weights):
        with pytest.raises(InputError, match="nonnegative"):
            OutcomeSampler(weights)


class TestChiSquare:
    def test_reasonable_fit(self):
        st = run_circuit(keyset("011", "101"))
        hist = measure_data_register(
            exact_distribution(st), 1024, np.random.default_rng(3)
        )
        chi = chi_square_vs_exact(hist, exact_distribution(st))
        assert chi["dof"] == 1
        assert chi["p_value"] > 0.001

    def test_single_shot_omitted(self):
        st = run_circuit(keyset("011", "101"))
        hist = measure_data_register(
            exact_distribution(st), 1, np.random.default_rng(3)
        )
        assert chi_square_vs_exact(hist, exact_distribution(st)) is None

    def test_single_outcome_omitted(self):
        st = run_circuit(keyset("101"))
        hist = measure_data_register(
            exact_distribution(st), 100, np.random.default_rng(3)
        )
        assert chi_square_vs_exact(hist, exact_distribution(st)) is None

    @pytest.mark.parametrize("dof", [1, 2, 3, 9999])
    def test_p_value_bit_identical_to_chi2_sf(self, dof):
        from scipy.stats import chi2

        support = [format(i, "014b") for i in range(dof + 1)]
        exact = {outcome: 1 / len(support) for outcome in support}
        p_values = []
        # One shot per outcome, plus `extra` more on the first: the
        # statistic runs from 0 to far past where the p-value is 0.0.
        for extra in (0, 1, 3, 10, 100, 10**4, 10**6, 10**9):
            counts = dict.fromkeys(support, 1)
            counts[support[0]] += extra
            hist = simulator.Histogram(counts=counts, shots=len(support) + extra)
            chi = chi_square_vs_exact(hist, exact)
            expected = float(chi2.sf(chi["statistic"], dof))
            assert chi["p_value"] == expected, (extra, chi)
            p_values.append(chi["p_value"])
        assert max(p_values) > 0.99
        assert min(p_values) == 0.0


class TestClassicalOracle:
    def test_single_key_deterministic(self):
        oracle = ClassicalOracle(keyset("101"), np.random.default_rng(0))
        x = SecretKey(0b100, 3)
        assert all(oracle.query(x) == 1 for _ in range(20))

    def test_zero_input_always_zero(self):
        oracle = ClassicalOracle(keyset("00", "11"), np.random.default_rng(0))
        x = SecretKey(0, 2)
        assert all(oracle.query(x) == 0 for _ in range(20))

    def test_output_frequency_converges(self):
        # three of the four keys answer 1 on x = 0001
        oracle = ClassicalOracle(
            keyset("0001", "0011", "1011", "1110"), np.random.default_rng(8)
        )
        x = SecretKey(1, 4)
        trials = 20_000
        freq = sum(oracle.query(x) for _ in range(trials)) / trials
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_query_count_charged(self):
        oracle = ClassicalOracle(keyset("01", "10"), np.random.default_rng(0))
        for _ in range(7):
            oracle.query(SecretKey(1, 2))
        assert oracle.queries == 7

    def test_length_mismatch(self):
        oracle = ClassicalOracle(keyset("01"), np.random.default_rng(0))
        with pytest.raises(InputError):
            oracle.query(SecretKey(1, 3))

    @pytest.mark.parametrize("k", [1, 3, 5, 100])
    def test_batch_matches_single_queries(self, k):
        ks = random_keyset(np.random.default_rng(k), 7, k)
        x = SecretKey(0b1011001, 7)
        single = ClassicalOracle(ks, np.random.default_rng(4))
        batched = ClassicalOracle(ks, np.random.default_rng(4))
        answers = [single.query(x) for _ in range(50)]
        batches = batched.query_batch(x, 20).tolist() + batched.query_batch(x, 30).tolist()
        assert batches == answers
        assert single.queries == batched.queries == 50

    def test_batch_rejects_empty_size(self):
        oracle = ClassicalOracle(keyset("01"), np.random.default_rng(0))
        with pytest.raises(InputError):
            oracle.query_batch(SecretKey(1, 2), 0)
