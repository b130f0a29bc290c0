"""Exact dense statevector simulation of the multi-key oracle circuit.

Register layout, fixed for everything in this module: basis-state index
bit q < n is data qubit q, bit n is the target ancilla, bits n+1 .. n+r
are the control ancillas.  A circuit for k keys uses r = ceil(log2 k)
control ancillas (r = 0 for k = 1), so the amplitude array has
2**(n + 1 + r) entries.

Amplitudes are real float64.  Every gate of the circuit (H, X, the
uniform control preparation and the controlled XOR key unitaries) has
real entries, so a state that starts real stays real, and each
amplitude takes 8 bytes instead of the 16 of complex128.  The result is
bit for bit the real part of the same gates applied in complex128: the
imaginary parts stay +0.0, and numpy's complex add, subtract, multiply
by a real scalar and abs then reduce to the real operations.  A
`StateVector` built from given complex amplitudes stays complex, and
the same kernels run on it.

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
one that simulates the circuit.  It applies each run of consecutive
Hadamards as one layer: the layer runs all its gates over one
cache-sized tile of amplitudes before moving to the next, and skips
tiles whose bits are all zero, which H leaves unchanged.  The X gate
swaps amplitude pairs through the same tiled layer, with the same skip.
Each controlled key unitary swaps the odd-parity amplitudes of its
branch one data tile at a time, through a low-bit parity mask or its
complement.  The gates give results bit-identical to the textbook pair
formula applied one gate at a time, and no gate writes an amplitude the
circuit leaves at zero.  The fast path
(`oracle_path="fast"`) returns the `CircuitSpec`, which stands for the
closed-form final state (1/sqrt(k)) sum_i |i>|->|s_i> without gates or
amplitudes; its only nonzero amplitudes are +1/sqrt(2k) at (control i,
target 0, data s_i) and -1/sqrt(2k) at (control i, target 1, data s_i).

`exact_distribution` is the one route from either final state to
outcome probabilities; for a spec it reads the key multiset, with no 2^n
array.  `nonzero_amplitudes` lists either state's nonzero amplitudes;
for a spec it yields the closed form's 2k entries, the one place they
are written down.  Only the gate path and `CircuitSpec.to_statevector()`
write a dense amplitude array.  `QUBIT_CAP` is checked only where
amplitudes are allocated, in `StateVector`, so the fast path has no
qubit cap.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .keyspace import KeySet, SecretKey, format_key

QUBIT_CAP = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A gate layer (a run of Hadamards, or the X) runs all its gates over one
# tile before moving to the next.  For qubits below _TILE_BITS a tile is 2^16 contiguous amplitudes
# (512 KB of float64, 1 MB for a complex state, within a core's L2
# cache), seen as four axes of 4 qubits each.
# numpy runs a gate at full speed only when the paired amplitudes form
# contiguous runs of at least 2^12 (shorter runs go through its ufunc
# buffers, 2-10x slower), so the tile is copied with the gate's qubit
# group as the outermost axis whenever it is not already.
_TILE_BITS = 16
_TILE = 1 << _TILE_BITS
_GROUP_BITS = 4
_GROUP_SHAPE = (1 << _GROUP_BITS,) * (_TILE_BITS // _GROUP_BITS)
_NATURAL_ORDER = tuple(reversed(range(len(_GROUP_SHAPE))))
_MIN_RUN = _TILE >> _GROUP_BITS

# Draws per rng call, for measurement shots here and for Monte Carlo
# trials and oracle queries in `adversary`, so that memory stays bounded
# however many are asked for.  At 2^16 draws a block's uniforms, bucket
# numbers and indices (512 KB each) stay in a core's L2 cache through
# the few passes an `OutcomeSampler` makes over them.  Chunked draws
# read the same random stream in the same order as one call over all
# of them.
_SHOT_CHUNK = 1 << 16

# An `OutcomeSampler`'s guide table has at most this many buckets (8 MB
# of indices), so its memory stays bounded however many outcomes there
# are; above 2^16 outcomes more than 1/16 of the draws then fall back to
# searchsorted.
_MAX_BUCKETS = 1 << 20

# Dense-marginal entries at or below this are rounding noise, not outcomes.
_PROB_TOL = 1e-12


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

    def nonzero_amplitudes(self) -> Iterator[tuple[int, float]]:
        """Yield (basis index, amplitude) for the closed-form final
        state's 2k nonzero amplitudes, in ascending index order:
        +1/sqrt(2k) at (control i, target 0, data s_i) and -1/sqrt(2k)
        at (control i, target 1, data s_i).  No array is allocated, so
        any number of qubits is answered."""
        amp = 1.0 / math.sqrt(2 * self.k)
        minus = 1 << self.n
        for i, value in enumerate(self.keys.values):
            index = (i << (self.n + 1)) | value
            yield index, amp
            yield index | minus, -amp

    def to_statevector(self) -> "StateVector":
        """The closed-form final state as a dense statevector.

        The state is created, and so checked against the qubit cap,
        before any amplitude is written.
        """
        state = StateVector(self.n, self.r)
        state.amps[0] = 0.0
        for index, amp in self.nonzero_amplitudes():
            state.amps[index] = amp
        return state


def build_circuit(keys: KeySet) -> CircuitSpec:
    """Lay out the full circuit for a key multiset.

    Control ancillas get explicit Hadamards when k is a power of two and
    a direct uniform preparation otherwise.
    """
    n, k = keys.n, keys.k
    r = control_width(k)
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


class StateVector:
    """Dense amplitudes over the full (n + 1 + r)-qubit register.

    A new state, |0..0>, is real float64, as is every state the circuit
    reaches from it.  Given amplitudes keep their kind: a real array is
    stored as float64 and any other as complex128.
    """

    __slots__ = ("n", "r", "amps")

    def __init__(self, n: int, r: int, amps: np.ndarray | None = None):
        if n < 1 or r < 0:
            raise InputError(f"invalid register sizes n={n}, r={r}")
        if n + 1 + r > QUBIT_CAP:
            raise CapacityError(
                f"circuit needs {n + 1 + r} qubits ({n} data + 1 target + "
                f"{r} control), cap is {QUBIT_CAP}"
            )
        self.n = n
        self.r = r
        dim = 1 << (n + 1 + r)
        if amps is None:
            amps = np.zeros(dim)
            amps[0] = 1.0
        else:
            # The gate kernels work on reshaped views of one C-ordered
            # array; real amplitudes stay real, any others are complex.
            kind = np.float64 if np.isrealobj(amps) else np.complex128
            amps = np.ascontiguousarray(amps, dtype=kind)
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

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.total_qubits:
            raise InputError(
                f"qubit {qubit} out of range for {self.total_qubits}-qubit register"
            )

    def apply_hadamard(self, *qubits: int) -> "StateVector":
        """Apply H to each listed qubit, in the given order, in one call.

        All qubits are checked before any amplitude changes.  The result
        is bit-identical to one-qubit calls in sequence: see
        `_gate_layer`.
        """
        for qubit in qubits:
            self._check_qubit(qubit)
        _gate_layer(self.amps, qubits, _hadamard_row_bit)
        return self

    def apply_x(self, qubit: int) -> "StateVector":
        """Apply X to one qubit, through the same tiled layer as H."""
        self._check_qubit(qubit)
        _gate_layer(self.amps, (qubit,), _x_row_bit)
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
        # Within a tile at offset base, x . key = (low bits of x) . key
        # + parity(base & key) mod 2, so one low-bit parity table or its
        # complement masks every tile.
        width = 1 << min(self.n, _TILE_BITS)
        low = np.arange(width, dtype=np.uint64) & np.uint64(key.value)
        odd = (np.bitwise_count(low) & 1) == 1
        masks = (odd, ~odd)
        lo_tiles, hi_tiles = self.amps.reshape(1 << self.r, 2, -1, width)[i]
        buf = np.empty(width, self.amps.dtype)
        for t, (lo, hi) in enumerate(zip(lo_tiles, hi_tiles)):
            mask = masks[(t * width & key.value).bit_count() & 1]
            np.copyto(buf, lo, where=mask)
            np.copyto(lo, hi, where=mask)
            np.copyto(hi, buf, where=mask)
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
        tail = rows[1:].reshape(-1)
        if np.vdot(tail, tail).real > 1e-20:
            raise InputError(
                "uniform preparation requires the control register in |0..0>"
            )
        if k == (1 << control_width(k)):
            first = self.n + 1
            return self.apply_hadamard(*range(first, first + control_width(k)))
        rows[0] *= 1.0 / math.sqrt(k)
        rows[1:k] = rows[0]
        # Rows from k on passed the check above, so they are (near) zero;
        # they are written only when some bit is set.
        if not _is_zero(rows[k:]):
            rows[k:] = 0.0
        return self

    def data_marginal(self) -> np.ndarray:
        """Probability of each data-register outcome, traced over ancillas.

        Gives `(np.abs(rows) ** 2).sum(axis=0)` over the ancilla rows bit
        for bit, one chunk of rows at a time, so no temporary spans the
        whole array: row 0 of each chunk's buffer carries the running
        sum, and numpy adds the rows of an axis-0 sum in order.
        """
        rows = self.amps.reshape(-1, 1 << self.n)
        step = max(1, _TILE // rows.shape[1])
        buf = np.empty((step + 1, rows.shape[1]))
        total = np.zeros(rows.shape[1])
        for start in range(0, rows.shape[0], step):
            chunk = rows[start:start + step]
            part = buf[:len(chunk) + 1]
            part[0] = total
            np.abs(chunk, out=part[1:])
            np.square(part[1:], out=part[1:])
            part.sum(axis=0, out=total)
        return total

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

    def nonzero_amplitudes(self) -> Iterator[tuple[int, np.number]]:
        """Yield (basis index, amplitude) for each amplitude above 1e-12
        in magnitude, in ascending index order."""
        amps = self.amps
        for i in np.flatnonzero(amps).tolist():
            if abs(amps[i]) > 1e-12:
                yield i, amps[i]

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, r={self.r}, dim={self.dim})"


def _hadamard_row_bit(block: np.ndarray, bit: int, scratch: np.ndarray) -> None:
    """H on bit `bit` of the row index of the 2-D view `block`, in place.

    The ufuncs of ((lo + hi) * s, (lo - hi) * s) on the same operands, so
    the result is bit-identical to that pair formula.
    """
    pairs = block.reshape(-1, 2, 1 << bit, block.shape[-1])
    lo, hi = pairs[:, 0], pairs[:, 1]
    diff = scratch[:lo.size].reshape(lo.shape)
    np.subtract(lo, hi, out=diff)
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _x_row_bit(block: np.ndarray, bit: int, scratch: np.ndarray) -> None:
    """X on bit `bit` of the row index of the 2-D view `block`, in place."""
    pairs = block.reshape(-1, 2, 1 << bit, block.shape[-1])
    lo, hi = pairs[:, 0], pairs[:, 1]
    tmp = scratch[:lo.size].reshape(lo.shape)
    np.copyto(tmp, lo)
    np.copyto(lo, hi)
    np.copyto(hi, tmp)


def _is_zero(tile: np.ndarray) -> bool:
    """True when every bit of the tile is 0 (so -0.0 counts as nonzero).

    The first amplitude settles most nonzero tiles without a scan.
    """
    return tile.item(0) == 0 and not tile.view(np.uint64).any()


def _gate_layer(amps: np.ndarray, qubits: tuple[int, ...], kernel) -> None:
    """Apply one single-qubit gate to each qubit in turn, a tile at a time.

    `kernel` is `_hadamard_row_bit` or `_x_row_bit`.  Every amplitude
    goes through the gate's pair formula once per listed qubit, in list
    order, exactly as in one-qubit calls; only the order in which tiles
    are visited changes, so the result is bit-identical.  Tiles whose
    bits are all zero, such as the rows of a register still in |0..0>,
    are skipped: both gates map them to themselves bit for bit.  A state
    of at most one tile is transformed whole, without the zero check.
    """
    if amps.size <= _TILE:
        column, scratch = amps.reshape(-1, 1), np.empty(amps.size // 2, amps.dtype)
        for qubit in qubits:
            kernel(column, qubit, scratch)
        return
    for low, run in itertools.groupby(qubits, key=lambda q: q < _TILE_BITS):
        if low:
            _low_qubit_pass(amps, tuple(run), kernel)
        else:
            _high_qubit_pass(amps, tuple(run), kernel)


def _low_qubit_pass(amps: np.ndarray, qubits: tuple[int, ...], kernel) -> None:
    """The gate on qubits below _TILE_BITS, over tiles of _TILE amplitudes.

    The tile is regrouped, alternately into `spare` and back in place, so
    that each gate's qubit group is the outermost axis, and ends in its
    natural order.
    """
    scratch = np.empty(_TILE // 2, amps.dtype)
    spare = np.empty(_TILE, amps.dtype)
    for tile in amps.reshape(-1, _TILE):
        if _is_zero(tile):
            continue
        buf, order = tile, _NATURAL_ORDER
        for qubit in qubits:
            group, bit = divmod(qubit, _GROUP_BITS)
            if order[0] != group:
                new = (group,) + tuple(g for g in _NATURAL_ORDER if g != group)
                buf, order = _regroup(buf, order, new, spare if buf is tile else tile)
            kernel(buf.reshape(_GROUP_SHAPE[0], -1), bit, scratch)
        if order != _NATURAL_ORDER:
            buf, order = _regroup(
                buf, order, _NATURAL_ORDER, spare if buf is tile else tile
            )
        if buf is not tile:
            tile[...] = buf


def _regroup(
    src: np.ndarray, order: tuple[int, ...], new: tuple[int, ...], dst: np.ndarray
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Copy `src`, whose group axes run in `order`, into `dst` in `new` order."""
    np.copyto(
        dst.reshape(_GROUP_SHAPE),
        src.reshape(_GROUP_SHAPE).transpose([order.index(g) for g in new]),
    )
    return dst, new


def _high_qubit_pass(amps: np.ndarray, qubits: tuple[int, ...], kernel) -> None:
    """The gate on qubits from _TILE_BITS up, as row bits over column chunks.

    Rows are indexed by the bits from the lowest to the highest listed
    qubit; a tile is every such row over one chunk of at least _MIN_RUN
    contiguous columns.
    """
    low, top = min(qubits), max(qubits) + 1
    view = amps.reshape(-1, 1 << (top - low), 1 << low)
    height = view.shape[1]
    width = max(_TILE // height, _MIN_RUN)
    scratch = np.empty(height * width // 2, amps.dtype)
    for rows in view:
        for start in range(0, rows.shape[1], width):
            tile = rows[:, start:start + width]
            if _is_zero(tile):
                continue
            for qubit in qubits:
                kernel(tile, qubit - low, scratch)


def run_circuit(keys: KeySet, oracle_path: str = "gate") -> StateVector | CircuitSpec:
    """Return the circuit's final state.

    The gate path simulates the circuit gate by gate into a dense
    `StateVector`; the fast path returns the `CircuitSpec`, which stands
    for the closed-form final state without allocating it.  For both,
    `exact_distribution` gives b_t / k for each key t occurring b_t times.
    """
    spec = build_circuit(keys)
    if oracle_path == "gate":
        state = StateVector(spec.n, spec.r)
        # Each run of consecutive Hadamards is applied as one layer.
        for is_h, gates in itertools.groupby(spec.gates, key=lambda g: g[0] == "h"):
            if is_h:
                state.apply_hadamard(*(gate[1] for gate in gates))
            else:
                for gate in gates:
                    _apply_gate(state, spec, gate)
        return state
    if oracle_path == "fast":
        return spec
    raise InputError(f"unknown oracle path {oracle_path!r}; use 'gate' or 'fast'")


def _apply_gate(state: StateVector, spec: CircuitSpec, gate: tuple) -> None:
    op = gate[0]
    if op == "x":
        state.apply_x(gate[1])
    elif op == "prepare_uniform":
        state.prepare_uniform(gate[1])
    elif op == "cku":
        i = gate[1]
        state.apply_controlled_key_unitary(i, SecretKey(spec.keys.values[i], spec.n))
    else:
        raise InputError(f"unknown gate {gate!r}")


def exact_distribution(state: StateVector | CircuitSpec) -> dict[str, float]:
    """Probability of each data-register outcome, MSB-first keys, ascending.

    A `StateVector` gives the outcomes of its `data_marginal()` above
    `_PROB_TOL`; the remainder sums to 1 within numerical precision.  A
    `CircuitSpec` gives its keys only: key t gets the square 1/(2k) added
    2 b_t times in turn, the additions the dense row sum makes, so each
    value is bit-identical to the dense marginal's and no 2^n array is
    allocated.
    """
    n = state.n
    if isinstance(state, CircuitSpec):
        amp = 1.0 / math.sqrt(2 * state.k)
        square = amp * amp
        sums: dict[int, float] = {}
        for value in state.keys.values:
            sums[value] = sums.get(value, 0.0) + square + square
        return {format_key(x, n): sums[x] for x in sorted(sums)}
    probs = state.data_marginal()
    return {
        format_key(int(x), n): float(probs[x])
        for x in np.flatnonzero(probs > _PROB_TOL)
    }


@dataclass(frozen=True)
class Histogram:
    """Outcome counts from repeated measurement of the data register."""

    counts: dict[str, int]
    shots: int

    def to_records(self, exact: dict[str, float]) -> list[dict]:
        """Stable per-outcome records over observed and exact outcomes:
        outcome, count, probability, exact probability."""
        return [
            {
                "outcome": outcome,
                "count": self.counts.get(outcome, 0),
                "probability": self.counts.get(outcome, 0) / self.shots,
                "exact_probability": exact.get(outcome, 0.0),
            }
            for outcome in sorted(set(self.counts) | set(exact))
        ]


class OutcomeSampler:
    """Weighted draws of outcome indices, equal to `rng.choice`'s.

    `Generator.choice(k, shape, p=probs)` maps `u = rng.random(shape)`
    to `cdf.searchsorted(u, "right")`, with `cdf = probs.cumsum()` and
    `cdf /= cdf[-1]`.  This sampler builds the same cdf, splits [0, 1)
    into T = `buckets` equal parts, the smallest power of two at least
    16 k but at most `_MAX_BUCKETS`, and tabulates the index of each
    bucket's first value b / T and of its last double, the count of cdf
    values below (b + 1) / T (a guide table, Chen & Asau 1974).  `u * T`
    and `b / T` are exact in floating point and the index is monotone
    in u, so where the two agree every u in the bucket maps to that
    index, read with one gather.  Only draws in the at most k - 1
    buckets holding a cdf edge, at most 1/16 of the mass up to 2^16
    outcomes, go through `searchsorted`.  The indices, and the random
    stream read, are those of `choice`.
    """

    __slots__ = ("cdf", "buckets", "_table")

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        cdf = probs.cumsum()
        if not (probs.size and (probs >= 0).all() and 0 < cdf[-1] < math.inf):
            raise InputError(
                "outcome probabilities must be finite and nonnegative "
                "with a positive sum"
            )
        cdf /= cdf[-1]
        self.cdf = cdf
        self.buckets = min(1 << (16 * cdf.size - 1).bit_length(), _MAX_BUCKETS)
        edges = np.arange(self.buckets + 1) / self.buckets
        first = cdf.searchsorted(edges[:-1], "right")
        last = cdf.searchsorted(edges[1:], "left")
        # -1 marks a bucket that holds a cdf edge.
        self._table = np.where(first == last, first, -1)

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """`cdf.searchsorted(u, "right")` for an array of u in [0, 1)."""
        flat = u.reshape(-1)
        idx = self._table[(flat * self.buckets).astype(np.intp)]
        edge = np.flatnonzero(idx < 0)
        idx[edge] = self.cdf.searchsorted(flat[edge], "right")
        return idx.reshape(u.shape)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Indices of `rng.choice(k, shape, p=probs)`, from the same stream."""
        return self.lookup(rng.random(shape))


def measure_data_register(
    exact: dict[str, float], shots: int, rng: np.random.Generator
) -> Histogram:
    """Draw i.i.d. samples from an `exact_distribution` result.

    The outcomes are drawn in ascending order by an `OutcomeSampler`,
    `_SHOT_CHUNK` shots at a time, and tallied per chunk; the counts are
    those of `rng.choice` over the normalized probabilities.
    """
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    outcomes = sorted(exact)
    probs = np.array([exact[outcome] for outcome in outcomes])
    probs /= probs.sum()
    sampler = OutcomeSampler(probs)
    tallies = np.zeros(len(outcomes), dtype=np.int64)
    for start in range(0, shots, _SHOT_CHUNK):
        drawn = sampler.draw(rng, min(_SHOT_CHUNK, shots - start))
        tallies += np.bincount(drawn, minlength=len(outcomes))
    counts = {
        outcome: int(tally) for outcome, tally in zip(outcomes, tallies) if tally
    }
    return Histogram(counts=counts, shots=shots)


def chi_square_vs_exact(
    hist: Histogram, exact: dict[str, float]
) -> dict | None:
    """Goodness-of-fit statistic of a histogram against exact probabilities.

    Returns None (to be reported with a notice) when the sample is a
    single shot or the support leaves no degrees of freedom.  The
    p-value is the chi-square survival function `chdtrc(dof, stat)`,
    which `scipy.stats.chi2.sf` also evaluates; `scipy.special` imports
    in a fraction of the time `scipy.stats` takes.
    """
    from scipy.special import chdtrc

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
        "p_value": float(chdtrc(dof, stat)),
    }


class ClassicalOracle:
    """Black box holding k keys; each query answers with a uniformly
    random key's dot product against the input, independently per query."""

    def __init__(self, keys: KeySet, rng: np.random.Generator):
        self.bits = keys.bit_matrix()
        self.rng = rng
        self.queries = 0

    @property
    def k(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    def query(self, x: SecretKey) -> int:
        return int(self.query_batch(x, 1)[0])

    def query_batch(self, x: SecretKey, size: int) -> np.ndarray:
        """Answers to `size` independent queries with the same input x."""
        if x.n != self.n:
            raise InputError(
                f"input length {x.n} does not match key length {self.n}"
            )
        return self.probe_batch(np.flatnonzero(x.bits), size)

    def probe_batch(self, positions, size: int) -> np.ndarray:
        """Answers to `size` queries with the input whose set bits are at
        `positions` (each in [0, n)): per drawn key, the parity of its bits
        there, read from the bit matrix with no input key built.

        Charges `size` queries and draws the keys with one
        `rng.integers(k, size=size)`, which reads the same stream as
        `size` single draws.
        """
        if size < 1:
            raise InputError(f"query batch size must be >= 1, got {size}")
        answers = np.bitwise_xor.reduce(self.bits[:, positions], axis=1)
        picks = self.rng.integers(self.k, size=size)
        self.queries += size
        return answers[picks]
