"""Exact dense statevector simulation of the multi-key oracle circuit.

Register layout, fixed for everything in this module: basis-state index
bit q < n is data qubit q, bit n is the target ancilla, bits n+1 .. n+r
are the control ancillas.  A circuit for k keys uses r = ceil(log2 k)
control ancillas (r = 0 for k = 1), so the amplitude array has
2**(n + 1 + r) entries.

The circuit: Hadamards put the data register into a uniform
superposition, the target ancilla is taken to (|0> - |1>)/sqrt(2) via X
then H, and the control ancillas into (1/sqrt(k)) sum_j |j>.  Each key
s_i then drives a controlled XOR unitary, selected by control value i,
that flips the target ancilla exactly when the data value x has odd
overlap with s_i.  With the target in the minus state this kicks the
phase (-1)^(s_i . x) onto the data register within branch i.  A trailing
Hadamard layer on the data register collapses branch i onto |s_i>, so
the final measurement returns key t with probability b_t / k, where b_t
is the number of times t occurs in the key multiset.

The control register stays in the state on purpose: with duplicate keys
the branches (1/sqrt(k))|s_i> x |i> would otherwise be summed into an
unnormalized vector.  Marginals are always taken by summing
probabilities over ancilla configurations, which is what reproduces the
non-uniform duplicate-key histograms.

Two oracle paths are exposed and must agree.  The gate-by-gate path
(`oracle_path="gate"`) executes the explicit gate list and is the only
one that simulates the circuit.  Its Hadamard and X gates update the
amplitude array in place, one cache-sized block of amplitude pairs at a
time, and give results bit-identical to the textbook pair formula.  The
fast path (`oracle_path="fast"`) applies no gates: it writes the
closed-form final state (1/sqrt(k)) sum_i |i>|->|s_i>, whose only
nonzero amplitudes are +1/sqrt(2k) at (control i, target 0, data s_i)
and -1/sqrt(2k) at (control i, target 1, data s_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .keyspace import KeySet, SecretKey, dot_mod2

QUBIT_CAP = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Amplitude pairs per block of an in-place gate.  lo, hi and the scratch
# block hold 256 KB of complex128 each, so a block stays in a core's L2
# cache while a gate's four passes run over it.
_BLOCK = 1 << 14


def control_width(k: int) -> int:
    """Number of control ancillas needed to address k unitaries."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return (k - 1).bit_length()


@dataclass(frozen=True)
class CircuitSpec:
    """Register sizes plus the ordered gate list for a key multiset.

    Gate entries: ("h", qubit), ("x", qubit), ("prepare_uniform", k),
    ("cku", i) for the controlled unitary driven by keys[i].
    """

    keys: KeySet
    n: int
    r: int
    gates: tuple[tuple, ...]

    @property
    def k(self) -> int:
        return self.keys.k

    @property
    def total_qubits(self) -> int:
        return self.n + 1 + self.r


def build_circuit(keys: KeySet) -> CircuitSpec:
    """Lay out the full circuit for a key multiset.

    Control ancillas get explicit Hadamards when k is a power of two and
    a direct uniform preparation otherwise.
    """
    n, k = keys.n, keys.k
    r = control_width(k)
    total = n + 1 + r
    if total > QUBIT_CAP:
        raise CapacityError(
            f"circuit needs {total} qubits ({n} data + 1 target + {r} control), "
            f"cap is {QUBIT_CAP}"
        )
    target = n
    gates: list[tuple] = [("h", q) for q in range(n)]
    gates += [("x", target), ("h", target)]
    if r > 0:
        if k == (1 << r):
            gates += [("h", n + 1 + j) for j in range(r)]
        else:
            gates.append(("prepare_uniform", k))
    gates += [("cku", i) for i in range(k)]
    gates += [("h", q) for q in range(n)]
    return CircuitSpec(keys=keys, n=n, r=r, gates=tuple(gates))


def _parity_table(n: int, key_value: int) -> np.ndarray:
    """parity[x] = (x . key) mod 2 for every n-bit data value x."""
    x = np.arange(1 << n, dtype=np.uint64)
    return ((np.bitwise_count(x & np.uint64(key_value)) & 1) == 1)


class StateVector:
    """Dense complex amplitudes over the full (n + 1 + r)-qubit register."""

    __slots__ = ("n", "r", "amps")

    def __init__(self, n: int, r: int, amps: np.ndarray | None = None):
        if n < 1 or r < 0:
            raise InputError(f"invalid register sizes n={n}, r={r}")
        if n + 1 + r > QUBIT_CAP:
            raise CapacityError(
                f"{n + 1 + r} qubits exceed the cap of {QUBIT_CAP}"
            )
        self.n = n
        self.r = r
        dim = 1 << (n + 1 + r)
        if amps is None:
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (dim,):
                raise InputError(
                    f"amplitude array has shape {amps.shape}, expected ({dim},)"
                )
        self.amps = amps

    @property
    def total_qubits(self) -> int:
        return self.n + 1 + self.r

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def _pair_blocks(self, qubit: int):
        """Yield (lo, hi, tmp) over blocks of at most `_BLOCK` amplitude pairs.

        lo[j] and hi[j] are views of two amplitudes that differ only in
        `qubit` (0 in lo, 1 in hi); tmp is one block-shaped scratch array
        reused for every block.  Blocks cover every pair exactly once, so
        a gate applied block by block updates the whole array in place.
        """
        if not 0 <= qubit < self.total_qubits:
            raise InputError(
                f"qubit {qubit} out of range for {self.total_qubits}-qubit register"
            )
        stride = 1 << qubit
        view = self.amps.reshape(-1, 2, stride)
        # Below _BLOCK a block is several whole rows; from _BLOCK on it is
        # one column slice of a single row.
        rows, cols = max(1, _BLOCK // stride), min(stride, _BLOCK)
        scratch = np.empty((min(rows, view.shape[0]), cols), self.amps.dtype)
        for r in range(0, view.shape[0], rows):
            for c in range(0, stride, cols):
                block = view[r:r + rows, :, c:c + cols]
                yield block[:, 0], block[:, 1], scratch

    def apply_hadamard(self, qubit: int) -> "StateVector":
        # The ufuncs of ((lo + hi) * s, (lo - hi) * s) on the same operands,
        # so the result is bit-identical to that pair formula.
        for lo, hi, diff in self._pair_blocks(qubit):
            np.subtract(lo, hi, out=diff)
            lo += hi
            lo *= _INV_SQRT2
            np.multiply(diff, _INV_SQRT2, out=hi)
        return self

    def apply_x(self, qubit: int) -> "StateVector":
        for lo, hi, tmp in self._pair_blocks(qubit):
            tmp[...] = lo
            lo[...] = hi
            hi[...] = tmp
        return self

    def apply_controlled_key_unitary(self, i: int, key: SecretKey) -> "StateVector":
        """XOR unitary for one key, selected by control value i.

        On basis states whose control register equals i, the target
        ancilla is flipped exactly when the data value has odd overlap
        with the key; every other basis state is untouched.
        """
        if key.n != self.n:
            raise InputError(
                f"key length {key.n} does not match data register width {self.n}"
            )
        if not 0 <= i < (1 << self.r):
            raise InputError(
                f"control value {i} cannot be addressed by {self.r} control qubits"
            )
        odd = _parity_table(self.n, key.value)
        block = self.amps.reshape(1 << self.r, 2, 1 << self.n)[i]
        flipped = block[0, odd].copy()
        block[0, odd] = block[1, odd]
        block[1, odd] = flipped
        return self

    def prepare_uniform(self, k: int) -> "StateVector":
        """Take the control register from |0..0> to (1/sqrt(k)) sum_{j<k} |j>.

        Dispatches to plain Hadamards when k is a power of two (so the
        result is bit-identical to that gate sequence) and writes the
        amplitudes directly otherwise.
        """
        if k < 1:
            raise InputError(f"k must be >= 1, got {k}")
        if k > (1 << self.r):
            raise CapacityError(
                f"k={k} exceeds the control register capacity 2^{self.r}"
            )
        if k == 1:
            return self
        rows = self.amps.reshape(1 << self.r, -1)
        tail = float(np.sum(np.abs(rows[1:]) ** 2))
        if tail > 1e-20:
            raise InputError(
                "uniform preparation requires the control register in |0..0>"
            )
        if k == (1 << control_width(k)):
            for j in range(control_width(k)):
                self.apply_hadamard(self.n + 1 + j)
            return self
        base = rows[0] * (1.0 / math.sqrt(k))
        rows[:k] = base
        rows[k:] = 0.0
        return self

    def data_marginal(self) -> np.ndarray:
        """Probability of each data-register outcome, traced over ancillas."""
        probs = np.abs(self.amps.reshape(-1, 1 << self.n)) ** 2
        return probs.sum(axis=0)

    def data_register_state(self) -> np.ndarray:
        """Data-register amplitudes with the ancillas dropped.

        Factors out the minus state on the target ancilla, then sums the
        control branches.  For all-distinct keys this is the normalized
        vector with amplitude 1/sqrt(k) on each key; with duplicate keys
        the branch sum is unnormalized (use `data_marginal` for
        statistics in that case).
        """
        view = self.amps.reshape(1 << self.r, 2, 1 << self.n)
        if not np.allclose(view[:, 1, :], -view[:, 0, :], atol=1e-10):
            raise InputError(
                "target ancilla is not in the minus state; cannot factor it out"
            )
        return view[:, 0, :].sum(axis=0) * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, r={self.r}, dim={self.dim})"


def run_circuit(keys: KeySet, oracle_path: str = "gate") -> StateVector:
    """Return the circuit's final statevector.

    The gate path simulates the circuit gate by gate; the fast path
    writes the closed-form final state from the module docstring.  The
    measurement distribution over the data register is b_t / k for
    each distinct key t occurring b_t times, and 0 elsewhere.
    """
    spec = build_circuit(keys)
    if oracle_path == "gate":
        state = StateVector(spec.n, spec.r)
        for gate in spec.gates:
            _apply_gate(state, spec, gate)
        return state
    if oracle_path == "fast":
        state = StateVector(
            spec.n, spec.r, np.zeros(1 << spec.total_qubits, dtype=np.complex128)
        )
        view = state.amps.reshape(1 << spec.r, 2, 1 << spec.n)
        branches, data = np.arange(spec.k), keys.values()
        view[branches, 0, data] = 1.0 / math.sqrt(2 * spec.k)
        view[branches, 1, data] = -1.0 / math.sqrt(2 * spec.k)
        return state
    raise InputError(f"unknown oracle path {oracle_path!r}; use 'gate' or 'fast'")


def _apply_gate(state: StateVector, spec: CircuitSpec, gate: tuple) -> None:
    op = gate[0]
    if op == "h":
        state.apply_hadamard(gate[1])
    elif op == "x":
        state.apply_x(gate[1])
    elif op == "prepare_uniform":
        state.prepare_uniform(gate[1])
    elif op == "cku":
        i = gate[1]
        state.apply_controlled_key_unitary(i, spec.keys.keys[i])
    else:
        raise InputError(f"unknown gate {gate!r}")


def exact_distribution(state: StateVector, tol: float = 1e-12) -> dict[str, float]:
    """Marginal probability of each data-register outcome, MSB-first keys.

    Entries below `tol` are dropped; the remainder sums to 1 within
    numerical precision.
    """
    probs = state.data_marginal()
    n = state.n
    return {
        format(int(x), f"0{n}b"): float(probs[x])
        for x in np.flatnonzero(probs > tol)
    }


@dataclass(frozen=True)
class Histogram:
    """Outcome counts from repeated measurement of the data register."""

    counts: dict[str, int]
    shots: int

    def probabilities(self) -> dict[str, float]:
        return {outcome: c / self.shots for outcome, c in self.counts.items()}

    def to_records(self, exact: dict[str, float] | None = None) -> list[dict]:
        """Stable per-outcome records: outcome, count, probability."""
        outcomes = set(self.counts)
        if exact:
            outcomes |= set(exact)
        records = []
        for outcome in sorted(outcomes):
            rec = {
                "outcome": outcome,
                "count": self.counts.get(outcome, 0),
                "probability": self.counts.get(outcome, 0) / self.shots,
            }
            if exact is not None:
                rec["exact_probability"] = exact.get(outcome, 0.0)
            records.append(rec)
        return records


def measure_data_register(
    state: StateVector, shots: int, rng: np.random.Generator
) -> Histogram:
    """Draw i.i.d. samples from the exact data-register marginal."""
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    probs = state.data_marginal()
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    drawn = rng.choice(probs.size, size=shots, p=probs)
    tallies = np.bincount(drawn, minlength=probs.size)
    n = state.n
    counts = {
        format(int(x), f"0{n}b"): int(tallies[x]) for x in np.flatnonzero(tallies)
    }
    return Histogram(counts=counts, shots=shots)


def chi_square_vs_exact(
    hist: Histogram, exact: dict[str, float]
) -> dict | None:
    """Goodness-of-fit statistic of a histogram against exact probabilities.

    Returns None (to be reported with a notice) when the sample is a
    single shot or the support leaves no degrees of freedom.
    """
    from scipy.stats import chi2

    support = sorted(exact)
    dof = len(support) - 1
    if hist.shots < 2 or dof < 1:
        return None
    for outcome in hist.counts:
        if outcome not in exact:
            raise InputError(
                f"observed outcome {outcome} has no exact probability"
            )
    stat = 0.0
    for outcome in support:
        expected = exact[outcome] * hist.shots
        observed = hist.counts.get(outcome, 0)
        stat += (observed - expected) ** 2 / expected
    return {
        "statistic": stat,
        "dof": dof,
        "p_value": float(chi2.sf(stat, dof)),
    }


class ClassicalOracle:
    """Black box holding k keys; each query answers with a uniformly
    random key's dot product against the input, independently per query."""

    def __init__(self, keys: KeySet, rng: np.random.Generator):
        self.keys = keys
        self.rng = rng
        self.queries = 0

    @property
    def k(self) -> int:
        return self.keys.k

    @property
    def n(self) -> int:
        return self.keys.n

    def query(self, x: SecretKey) -> int:
        if x.n != self.keys.n:
            raise InputError(
                f"input length {x.n} does not match key length {self.keys.n}"
            )
        i = int(self.rng.integers(self.keys.k))
        self.queries += 1
        return dot_mod2(x, self.keys.keys[i])
