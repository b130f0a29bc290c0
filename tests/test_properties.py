"""Property tests (Hypothesis) for the simulator kernels."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from multikey_bv.keyspace import (  # noqa: E402
    KeySet,
    bit_sum_profile,
)
from multikey_bv.simulator import (  # noqa: E402
    ClassicalOracle,
    OutcomeSampler,
    StateVector,
    exact_distribution,
    run_circuit,
)


@st.composite
def sparse_states(draw):
    """A random state of 2..18 qubits whose rows are partly all-zero or -0.0."""
    # Half the draws are single-tile states, half are tiled (17-18 qubits).
    total = draw(st.one_of(st.integers(2, 16), st.integers(17, 18)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << total) + 1j * rng.normal(size=1 << total)
    rows = amps.reshape(-1, 1 << draw(st.integers(0, total)))
    kinds = rng.integers(3, size=rows.shape[0])
    rows[kinds == 1] = 0.0
    rows[kinds == 2] = complex(-0.0, -0.0)
    qubits = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=8))
    return total, amps, qubits


@settings(max_examples=60, deadline=None)
@given(sparse_states())
def test_hadamard_layer_equals_one_qubit_sequence(case):
    total, amps, qubits = case
    layer = StateVector(total - 1, 0, amps.copy()).apply_hadamard(*qubits)
    sequence = StateVector(total - 1, 0, amps.copy())
    for q in qubits:
        sequence.apply_hadamard(q)
    assert np.array_equal(layer.amps.view(np.uint64), sequence.amps.view(np.uint64))


def bits(amps: np.ndarray) -> np.ndarray:
    return amps.view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(sparse_states())
def test_x_equals_plain_swap(case):
    total, amps, qubits = case
    for q in qubits:
        swapped = amps.reshape(-1, 2, 1 << q)[:, ::-1, :].reshape(-1)
        state = StateVector(total - 1, 0, amps.copy()).apply_x(q)
        assert np.array_equal(bits(state.amps), bits(swapped))


@settings(max_examples=60, deadline=None)
@given(sparse_states(), st.data())
def test_oracle_equals_index_permutation(case, data):
    total, amps, _ = case
    n = data.draw(st.integers(1, total - 1))
    r = total - 1 - n
    i = data.draw(st.integers(0, (1 << r) - 1))
    key = data.draw(st.integers(0, (1 << n) - 1))
    # Basis state (i, y, x) goes to (i, y ^ (x . key), x).
    index = np.arange(amps.size)
    x, control = index & ((1 << n) - 1), index >> (n + 1)
    odd = (np.bitwise_count(x & key) & 1) == 1
    source = np.where((control == i) & odd, index ^ (1 << n), index)
    state = StateVector(n, r, amps.copy()).apply_controlled_key_unitary(i, key)
    assert np.array_equal(bits(state.amps), bits(amps[source]))


@st.composite
def key_multisets(draw, max_qubits):
    """Keys drawn from a small pool, so duplicates are common; any k <= 2^n."""
    n = draw(st.integers(1, max_qubits - 1))
    k = draw(st.integers(1, min(40, 1 << n, 1 << (max_qubits - 1 - n))))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=k))
    values = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    return KeySet(tuple(values), n)


@settings(max_examples=60, deadline=None)
@given(key_multisets(max_qubits=12))
def test_fast_path_matches_gate_path(keys):
    gate = run_circuit(keys, oracle_path="gate")
    spec = run_circuit(keys, oracle_path="fast")
    dense = spec.to_statevector()
    assert np.max(np.abs(gate.amps - dense.amps)) < 1e-10
    assert list(exact_distribution(spec).items()) == list(
        exact_distribution(dense).items()
    )
    # Sampling draws from the distinct keys alone, so the gate path must
    # leave exactly zero probability on every other outcome.
    off_keys = np.ones(1 << keys.n, dtype=bool)
    off_keys[list(keys.values)] = False
    assert np.all(gate.data_marginal()[off_keys] == 0.0)


@settings(max_examples=30, deadline=None)
@given(key_multisets(max_qubits=20))
def test_closed_form_marginal_equals_dense_marginal(keys):
    spec = run_circuit(keys, oracle_path="fast")
    assert list(exact_distribution(spec).items()) == list(
        exact_distribution(spec.to_statevector()).items()
    )


@st.composite
def weighted_draws(draw):
    """Probabilities over 1..4097 outcomes, a 1-D or 2-D shape and a seed.

    The weights are uniform, skewed over 60 binary orders of magnitude
    (many outcomes share a bucket), or contain zeros.
    """
    k = draw(st.one_of(st.integers(1, 16), st.integers(17, 4097)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "skewed", "zeros"]))
    if kind == "uniform":
        weights = np.ones(k)
    elif kind == "skewed":
        weights = 2.0 ** -rng.integers(0, 60, size=k)
    else:
        weights = rng.random(k) * (rng.random(k) < 0.5)
        weights[rng.integers(k)] = 1.0
    shape = draw(
        st.one_of(
            st.integers(1, 3000),
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
        )
    )
    return weights / weights.sum(), shape, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(weighted_draws())
def test_sampler_equals_rng_choice(case):
    probs, shape, seed = case
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expected_rng.choice(probs.size, size=shape, p=probs)
    drawn = OutcomeSampler(probs).draw(rng, shape)
    assert drawn.dtype == expected.dtype
    assert drawn.shape == expected.shape
    assert np.array_equal(drawn, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@st.composite
def wide_key_values(draw):
    """n in [1, 130], byte and word edges included, and k <= min(2^n, 40)
    keys drawn from a smaller pool, so duplicates are common."""
    n = draw(st.one_of(st.sampled_from([1, 8, 64, 65, 128]), st.integers(1, 130)))
    k = draw(st.integers(1, min(1 << n, 40)))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=k))
    values = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    return n, values


@settings(max_examples=150, deadline=None)
@given(wide_key_values(), st.data())
def test_bit_matrix_profile_and_oracle_match_per_key_route(case, data):
    n, values = case
    ks = KeySet(tuple(values), n)
    matrix = ks.bit_matrix()
    assert matrix.shape == (len(values), n) and matrix.dtype == np.uint8
    assert [sum(int(b) << q for q, b in enumerate(row)) for row in matrix] == values
    assert bit_sum_profile(ks) == tuple(
        sum((v >> q) & 1 for v in values) for q in range(n)
    )

    x = data.draw(st.integers(0, (1 << n) - 1))
    size = data.draw(st.integers(1, 50))
    seed = data.draw(st.integers(0, 2**32 - 1))
    oracle = ClassicalOracle(ks, np.random.default_rng(seed))
    answers = oracle.probe_batch([q for q in range(n) if x >> q & 1], size)
    twin = np.random.default_rng(seed)
    picks = twin.integers(len(values), size=size)
    # Per key, the answer is the parity of x & s.
    assert answers.tolist() == [(x & values[i]).bit_count() & 1 for i in picks]
    assert oracle.rng.bit_generator.state == twin.bit_generator.state
    assert oracle.queries == size
