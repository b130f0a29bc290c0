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
Hadamards, always qubits q0, q0 + 1, ..., as one layer;
`apply_hadamard` splits any other list into such runs.  The layer runs
all its gates over one cache-sized tile of amplitudes before moving to
the next, and skips amplitudes whose bits are all zero, which H leaves
unchanged: whole tiles, and the blocks of a tile after the last one
with a set bit (a layer on qubits below t mixes amplitudes only within
aligned blocks of 2^t).  A state of any size takes this walk, so the
first data layer of a small circuit transforms the data register of one
ancilla row, not the whole state.  Each live part takes the layer's
qubits as constant-geometry stages between two buffers (`_stages`).
The X gate swaps amplitude pairs through the same tiled layer, with the
same skip.  The skip extends to halves: after a stage on a qubit, a
whole tile whose blocks each have an all +0.0 half along that qubit
takes the layer's later stages on the other halves alone.  The final
data layer leaves such a half at every qubit, as it interferes control
branch i onto |s_i>, so it transforms about two tiles' worth of
amplitudes per nonzero tile, not one per gate; parts shrunk that way
are stacked to take the rest of the run together (`_Stack`), and each
such tile is zeroed as soon as its kept amplitudes are copied out,
while it is still in cache, so the stack only writes them back.  A tile
of one block, as every whole tile of a final layer of 16 or more data
qubits is, takes each stage in the order add, subtract, test, then
scale: only the half that survives is multiplied by 1/sqrt(2).  The
test reads the amplitudes' bits only, so it holds for any state.  A
whole tile nonzero only in its first 2^q0 amplitudes, for a run from
qubit q0, grows instead of taking stages: the gate on each qubit q of
the run pairs only the first 2^(q+1) amplitudes, so the first data
layer on |0..0> writes about two tiles' worth, not sixteen.  A part
under one tile, as every part of a state under 16 qubits is, neither
drops nor grows.  Every layer runs in the calling thread, and nothing
here reads the CPU count, so the result is the same bytes on any number
of CPUs.
Each controlled key unitary swaps the odd-parity amplitudes of its
branch one data tile at a time, as a masked XOR of the amplitudes'
uint64 words, which moves every bit.  The gates give
results bit-identical to the textbook pair formula applied one gate at
a time, and no gate writes an amplitude the circuit leaves at zero.
The fast path (`oracle_path="fast"`) returns the `CircuitSpec`, which
stands for the closed-form final state (1/sqrt(k)) sum_i |i>|->|s_i>
without gates or amplitudes; its only nonzero amplitudes are
+1/sqrt(2k) at (control i, target 0, data s_i) and -1/sqrt(2k) at
(control i, target 1, data s_i).

Every state of at least one tile (2^16 amplitudes) is read through a
live map: one bool per chunk of 4096 amplitudes, False only where every
bit of the chunk is zero.  Each gate reads the map instead of scanning,
skipping dead tiles unread, and marks what it may have left nonzero: a
23-qubit circuit of six keys ends with 192 of its 2048 chunks live,
those of the 12 tiles its last pass transformed.  `data_marginal` and
`nonzero_amplitudes` read only live chunks.  A `StateVector` owns its
amplitudes: given ones are copied, `amps` is a read-only view, and
only the state's methods write them, so the map is built once, when
the state is made, and stays true.  |0..0> is live in chunk 0 alone;
given amplitudes are scanned once.  States under one tile keep no map.

`exact_distribution` is the one route from either final state to
outcome probabilities, keyed by outcome value; for a spec it reads the
key multiset, with no 2^n array.  `measure_data_register` draws one
count per outcome of that dict, in its order.  `nonzero_amplitudes`
lists either state's nonzero amplitudes; for a spec it yields the
closed form's 2k entries, the one place they are written down.  Only
the gate path and `CircuitSpec.to_statevector()` write a dense
amplitude array.  `QUBIT_CAP` is checked only where amplitudes are
allocated, in `StateVector`, so the fast path has no qubit cap.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .keyspace import KeySet

QUBIT_CAP = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A gate layer (a run of Hadamards, or the X) runs all its gates over one
# tile before moving to the next.  For qubits below _TILE_BITS a tile is
# 2^16 contiguous amplitudes, or the whole state if that is smaller
# (512 KB of float64, 1 MB for a complex state, within a core's L2
# cache).  The tile also bounds the controlled key unitary's data tiles
# and mask words and the runs in which the data marginal is summed.
# Every live part of a tile, whole or not, takes a layer of ascending
# Hadamards as constant-geometry stages (`_stages`): three ufunc calls
# per qubit between two buffers, in the natural layout.  Only whole
# tiles grow or drop zero halves, and they stack what they keep once it
# is under _MIN_RUN amplitudes (`_Stack`); a high-qubit tile spans
# column chunks of at least _MIN_RUN.
_TILE_BITS = 16
_TILE = 1 << _TILE_BITS
_MIN_RUN = 1 << 12

# A live map (see the module docstring) has one bool per chunk of
# _MIN_RUN amplitudes, _TILE_CHUNKS per tile.
_TILE_CHUNKS = _TILE // _MIN_RUN

# `_is_zero` counts the nonzero words of a scan shorter than this, and
# takes the max of a longer one: in cache, counting 64-512 words took
# 0.5-0.9 us against 1.7-1.9 us for the max, and at 32K-64K words
# 11-21 us against 4.4-6.7 us, with the two even at about 4K words.
_COUNT_WORDS = 1 << 12

# Draws per rng call, for measurement shots here and for Monte Carlo
# trials and oracle queries in `adversary`, so that memory stays bounded
# however many are asked for.  At 2^16 draws a block's uniforms, bucket
# numbers and indices (512 KB each), or in a coupon block of at most 64
# keys its one-hot words (one per draw, at most 512 KB) and the OR of
# each trial's words, stay in a core's L2 cache through the few passes
# an `OutcomeSampler` makes over them.  Chunked draws read the same
# random stream in the same order as one call over all of them.
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
        before any amplitude is written; its live map comes from one
        scan after the writes.
        """
        state = StateVector(self.n, self.r)
        amps = state._amps
        amps[0] = 0.0
        for index, amp in self.nonzero_amplitudes():
            amps[index] = amp
        state._live = _scanned_map(amps)
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


def check_register(n: int, r: int) -> None:
    """Refuse register sizes a `StateVector` cannot hold: n < 1, r < 0,
    or more than QUBIT_CAP qubits in all."""
    if n < 1 or r < 0:
        raise InputError(f"invalid register sizes n={n}, r={r}")
    if n + 1 + r > QUBIT_CAP:
        raise CapacityError(
            f"circuit needs {n + 1 + r} qubits ({n} data + 1 target + "
            f"{r} control), cap is {QUBIT_CAP}"
        )


class StateVector:
    """Dense amplitudes over the full (n + 1 + r)-qubit register.

    A new state, |0..0>, is real float64, as is every state the circuit
    reaches from it.  Given amplitudes are copied, so the caller's array
    is never written: a real array is stored as float64 and any other as
    complex128.  The state owns its amplitudes, and only its methods
    write them, so the live map of a state of one tile or more, built
    once here, stays true from gate to gate.  `amps` is a read-only view
    that cannot be made writable; a copy of it can be written, and
    given to a new state.
    """

    __slots__ = ("n", "r", "_amps", "_live")

    def __init__(self, n: int, r: int, amps: np.ndarray | None = None):
        check_register(n, r)
        self.n = n
        self.r = r
        dim = 1 << (n + 1 + r)
        if amps is None:
            self._amps = np.zeros(dim)
            self._amps[0] = 1.0
            # |0..0> is live in chunk 0 alone.
            self._live = np.arange(dim // _MIN_RUN) == 0 if dim >= _TILE else None
            return
        # The gate kernels work on reshaped views of one C-ordered
        # array; real amplitudes stay real, any others are complex.
        kind = np.float64 if np.isrealobj(amps) else np.complex128
        self._amps = np.array(amps, dtype=kind, order="C")
        if self._amps.shape != (dim,):
            raise InputError(
                f"amplitude array has shape {self._amps.shape}, expected ({dim},)"
            )
        self._live = _scanned_map(self._amps)

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes, as a read-only view of the state's own array.

        The view's buffer is a read-only memoryview, so its writeable
        flag cannot be set again.  Making it took 0.6 us, against 3.7 us
        for `as_strided(..., writeable=False)` (numpy 2.4.6, 2 vCPUs).
        """
        return np.frombuffer(memoryview(self._amps).toreadonly(), self._amps.dtype)

    @property
    def total_qubits(self) -> int:
        return self.n + 1 + self.r

    @property
    def dim(self) -> int:
        return self._amps.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self._amps) ** 2)))

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.total_qubits:
            raise InputError(
                f"qubit {qubit} out of range for {self.total_qubits}-qubit register"
            )

    def apply_hadamard(self, *qubits: int) -> "StateVector":
        """Apply H to each listed qubit, in the given order, in one call.

        All qubits are checked before any amplitude changes.  Each
        maximal run of ascending qubits (`_ascending_runs`) is applied as
        one layer, in list order, so the result is bit-identical to
        one-qubit calls in sequence: see `_gate_layer`.
        """
        for qubit in qubits:
            self._check_qubit(qubit)
        for first, length in _ascending_runs(qubits):
            _gate_layer(self._amps, first, length, _hadamard_row_bit, self._live)
        return self

    def apply_x(self, qubit: int) -> "StateVector":
        """Apply X to one qubit, through the same tiled layer as H."""
        self._check_qubit(qubit)
        _gate_layer(self._amps, qubit, 1, _x_row_bit, self._live)
        return self

    def apply_controlled_key_unitary(self, i: int, value: int) -> "StateVector":
        """XOR unitary for the n-bit key `value`, selected by control value i.

        On basis states whose control register equals i, the target
        ancilla is flipped exactly when the data value has odd overlap
        with the key; every other basis state is untouched.
        """
        if not 0 <= value < (1 << self.n):
            raise InputError(f"key value {value} does not fit in {self.n} bits")
        if not 0 <= i < (1 << self.r):
            raise InputError(
                f"control value {i} cannot be addressed by {self.r} control qubits"
            )
        # Within a tile at offset base, x . value = (low bits of x) . value
        # + parity(base & value) mod 2, so one low-bit parity mask or its
        # complement selects the odd amplitudes of every tile.  The mask
        # holds uint64 words, all ones on each word of an odd amplitude,
        # and a tile pair swaps there as a masked XOR of its words, which
        # moves every bit (-0.0 and NaN payloads included).
        width = 1 << min(self.n, _TILE_BITS)
        words = self._amps.itemsize // 8
        odd = np.arange(width, dtype=np.uint64)
        odd &= np.uint64(value)
        np.bitwise_count(odd, out=odd)
        odd &= np.uint64(1)
        if words > 1:
            odd = np.repeat(odd, words)
        np.negative(odd, out=odd)
        masks = (odd, ~odd)
        tiles = self._amps.view(np.uint64).reshape(1 << self.r, 2, -1, width * words)
        lo_tiles, hi_tiles = tiles[i]
        diff = np.empty(width * words, np.uint64)
        for t, (lo, hi) in enumerate(zip(lo_tiles, hi_tiles)):
            np.bitwise_xor(lo, hi, out=diff)
            diff &= masks[(t * width & value).bit_count() & 1]
            lo ^= diff
            hi ^= diff
        # Each half may now hold what either held.  Halves shorter than a
        # chunk lie in their row's one chunk, which the swap leaves live
        # or dead as it was.
        if self._live is not None and 1 << self.n >= _MIN_RUN:
            halves = self._live.reshape(1 << self.r, 2, -1)[i]
            halves[0] |= halves[1]
            halves[1] = halves[0]
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
        rows = self._amps.reshape(1 << self.r, -1)
        width = rows.shape[1]
        # The live map, or one scan under one tile, settles the usual
        # all-zero tail; only a tail with a set bit has its squared
        # magnitudes summed.  Rows under a chunk share chunk 0 with row
        # 0, so the map shows their tail dead only if row 0 is too.  The
        # writes below mark the map.
        live = self._live
        clean = _is_zero(rows[1:]) if live is None else not live[width // _MIN_RUN:].any()
        if not clean and _sum_squares(rows[1:]) > 1e-20:
            raise InputError(
                "uniform preparation requires the control register in |0..0>"
            )
        if k == (1 << control_width(k)):
            first = self.n + 1
            return self.apply_hadamard(*range(first, first + control_width(k)))
        rows[0] *= 1.0 / math.sqrt(k)
        rows[1:k] = rows[0]
        # Rows from k on passed the check above, so they are (near) zero;
        # they are written only when some bit of the tail is set.
        if not clean:
            rows[k:] = 0.0
        if live is not None:
            if width >= _MIN_RUN:
                marks = live.reshape(len(rows), -1)
                marks[1:k] = marks[0]
                marks[k:] = False
            else:
                # Rows share chunks: mark those that hold rows below k.
                live[:] = np.arange(live.size) * _MIN_RUN < k * width
        return self

    def data_marginal(self) -> np.ndarray:
        """Probability of each data-register outcome, traced over ancillas.

        Gives `(np.abs(rows) ** 2).sum(axis=0)` over the ancilla rows bit
        for bit, one run of live chunks (`_live_runs`) at a time, so no
        temporary spans more than a tile and the buffer stays in cache;
        a state under one tile is one run.  Every column gets its rows
        in order, each added into a running total: a run adds the part
        of the row it starts in, then its whole rows, with the running
        total in row 0 of an axis-0 sum (numpy adds those rows in
        order), then the part of the row it ends in.  A dead chunk is
        skipped: the total holds sums of squares, all +0.0 or above, and
        adding +0.0 to one changes no bit.
        """
        amps, live = self._amps, self._live
        width = 1 << self.n
        size = min(amps.size, _TILE)
        # Room for the running total before a run's whole rows, if a run
        # can hold a whole row.
        lead = width if width <= size else 0
        buf = np.empty(lead + size)
        total = np.zeros(width)
        for start, stop in [(0, amps.size)] if live is None else _live_runs(live):
            squares = buf[lead:lead + stop - start]
            np.abs(amps[start:stop], out=squares)
            np.square(squares, out=squares)
            col = start % width
            head = min(-start % width, squares.size)
            if head:
                total[col:col + head] += squares[:head]
            whole = (squares.size - head) // width * width
            if whole:
                rows = buf[lead + head - width:lead + head + whole]
                rows[:width] = total
                rows.reshape(-1, width).sum(axis=0, out=total)
            tail = squares[head + whole:]
            if tail.size:
                total[:tail.size] += tail
        return total

    def data_register_state(self) -> np.ndarray:
        """Data-register amplitudes with the ancillas dropped.

        Factors out the minus state on the target ancilla, then sums the
        control branches.  For all-distinct keys this is the normalized
        vector with amplitude 1/sqrt(k) on each key; with duplicate keys
        the branch sum is unnormalized (use `data_marginal` for
        statistics in that case).
        """
        view = self._amps.reshape(1 << self.r, 2, 1 << self.n)
        if not np.allclose(view[:, 1, :], -view[:, 0, :], atol=1e-10):
            raise InputError(
                "target ancilla is not in the minus state; cannot factor it out"
            )
        return view[:, 0, :].sum(axis=0) * math.sqrt(2.0)

    def nonzero_amplitudes(self) -> Iterator[tuple[int, np.number]]:
        """Yield (basis index, amplitude) for each amplitude above 1e-12
        in magnitude, in ascending index order.  A state of one tile or
        more searches only the chunks its live map marks."""
        amps, live = self._amps, self._live
        for start, stop in [(0, amps.size)] if live is None else _live_runs(live):
            for i in (np.flatnonzero(amps[start:stop]) + start).tolist():
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

    The first amplitude settles most nonzero tiles without a scan.  Under
    _COUNT_WORDS uint64 words the scan counts the nonzero words, above it
    takes their max.
    """
    if tile.item(0) != 0:
        return False
    words = tile.view(np.uint64)
    if words.size < _COUNT_WORDS:
        return not np.count_nonzero(words)
    return not words.max()


def _sum_squares(rows: np.ndarray) -> float:
    """Sum of squared magnitudes, one tile at a time, in numpy's own sums:
    a BLAS dot threads on large arrays at a fixed cost of milliseconds."""
    parts = rows.reshape(-1).view(np.float64)  # real and imaginary alike
    return sum(float(np.square(parts[s:s + _TILE]).sum()) for s in range(0, parts.size, _TILE))


def _live_runs(live: np.ndarray) -> Iterator[tuple[int, int]]:
    """(start, stop) amplitude offsets of each run of live chunks, split at
    tile boundaries, in ascending order."""
    marks = live.reshape(-1, _TILE_CHUNKS).view(np.int8)
    # Each tile's row of the map, padded dead at both ends, flips
    # between the start and the end of a run.
    flips = np.flatnonzero(np.diff(marks, axis=1, prepend=0, append=0))
    tile, chunk = np.divmod(flips, _TILE_CHUNKS + 1)
    offsets = ((tile * _TILE_CHUNKS + chunk) * _MIN_RUN).tolist()
    return zip(offsets[0::2], offsets[1::2])


def _scanned_map(amps: np.ndarray) -> np.ndarray | None:
    """The live map of `amps` from one scan, None under one tile.

    The scan takes each chunk's largest word, which at 2^18 amplitudes
    took half the time of `any` (31 against 64 us).
    """
    if amps.size < _TILE:
        return None
    return amps.view(np.uint64).reshape(amps.size // _MIN_RUN, -1).max(axis=1) != 0


def _gate_layer(amps: np.ndarray, first: int, length: int, kernel, live: np.ndarray | None = None) -> None:
    """Apply one single-qubit gate to qubits first .. first + length - 1
    in turn, a tile at a time.

    `kernel` is `_hadamard_row_bit` or `_x_row_bit`.  Every amplitude
    goes through the gate's pair formula once per qubit, in ascending
    order, exactly as in one-qubit calls; only the order in which tiles
    are visited changes, so the result is bit-identical.  Amplitudes
    whose bits are all zero, such as the rows of a register still in
    |0..0>, are skipped a tile or a block at a time: both gates map them
    to themselves bit for bit.  A state of any size takes the same walk.
    A state of one tile or more gives its live map (None under one tile,
    where no qubit is high): a pass skips the tiles whose chunks it marks
    dead without reading them, and marks what it may leave nonzero.
    """
    low = min(max(_TILE_BITS - first, 0), length)
    if low:
        _low_qubit_pass(amps, first, low, kernel, live)
    if length > low:
        _high_qubit_pass(amps, first + low, length - low, kernel, live)


def _low_qubit_pass(amps: np.ndarray, first: int, length: int, kernel, live: np.ndarray | None) -> None:
    """The gate on qubits first .. first + length - 1, all below
    _TILE_BITS, over tiles of up to _TILE amplitudes.

    Gates on qubits below t = first + length mix amplitudes only within
    aligned blocks of 2^t, so each tile is transformed only up to its
    last block with a set bit (`_live_length`); the blocks after it are
    all +0.0.  Every live part takes `_stages`.  A whole live tile may
    grow, or drop zero halves and hand what is left of it to the
    layer's `_Stack`, built at its first whole live tile; a shorter
    part, every part of a state under one tile, does neither.
    Given a live map, a tile with no live chunk is skipped before
    `_live_length`.  A part left in place marks the chunks up to its
    end, and the stack marks those where it writes kept amplitudes.
    """
    width = min(amps.size, _TILE)
    scratch = np.empty(width // 2, amps.dtype)
    spare = np.empty(width, amps.dtype)
    stack = None
    if live is not None:
        marks = live.reshape(-1, _TILE_CHUNKS)
        tiles, placed, ends = marks.any(axis=1).tolist(), [], []
    for start in range(0, amps.size, width):
        if live is not None and not tiles[start // width]:
            continue
        tile = amps[start:start + width]
        end = _live_length(tile, 1 << (first + length))
        if end == _TILE:
            if stack is None:
                stack = _Stack(amps, live, first, length)
            left = _stages(tile, spare, first, length, kernel, scratch, drop=True)
            if left is not None:
                stack.add(start, *left)
                continue
        elif end:
            _stages(tile[:end], spare[:end], first, length, kernel, scratch)
        if live is not None:
            placed.append(start // width)
            ends.append(end)
    if stack is not None:
        stack.flush()
    if live is not None and placed:
        marks[placed] = np.arange(_TILE_CHUNKS) * _MIN_RUN < np.array(ends)[:, None]


def _ascending_runs(qubits: tuple[int, ...]) -> list[tuple[int, int]]:
    """(first qubit, length) of each maximal run q, q + 1, ... of `qubits`."""
    runs: list[tuple[int, int]] = []
    for qubit in qubits:
        if runs and qubit == sum(runs[-1]):
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((qubit, 1))
    return runs


def _stages(
    part: np.ndarray,
    spare: np.ndarray,
    first: int,
    length: int,
    kernel,
    scratch: np.ndarray,
    drop: bool = False,
) -> tuple | None:
    """The gate on qubits first .. first + length - 1 over `part`, a live
    part of at most one tile.

    One qubit takes `kernel` in place.  L >= 2 Hadamards on qubits
    q0 .. q0 + L - 1 take L constant-geometry stages (Pease 1968) over
    `part` seen as (blocks, 2^L, 2^q0), each from one buffer into the
    other: a stage pairs bit 0 of the middle index, writes (lo + hi) s
    to the first half of that axis and (lo - hi) s to the second, and
    so rotates the index right by one bit (`_stage`).  Stage i thus
    pairs qubit q0 + i, with the ufuncs `_hadamard_row_bit` applies to
    the same operands, so the result is bit-identical, and after L
    stages the index is back in natural order.  With `drop`, the part
    is a whole tile, which may drop zero halves (`_drop_stages`); once
    it has, this returns (src, stage, dropped, kept) of what is left,
    for the layer's `_Stack`.  Otherwise the part ends in place and this
    returns None.

    A whole tile also grows: one with every bit from 2^q0 on zero takes
    `kernel` on each qubit q in turn over the first 2^(q+1) amplitudes
    only, since the pairs after them are all +0.0, which H and X leave
    as they are.  The gate on q leaves every bit from 2^(q+1) on zero,
    so the tile grows to the run's end, in place, with nothing for the
    `_Stack`.
    """
    if drop and _is_zero(part[1 << first:]):
        for qubit in range(first, first + length):
            kernel(part[:2 << qubit].reshape(-1, 1), qubit, scratch)
        return None
    if length == 1:
        kernel(part.reshape(-1, 1), first, scratch)
        return None
    shape = (-1, 1 << length, 1 << first)
    if drop:
        src, buf, _, stage, dropped, kept = _drop_stages(
            part.reshape(shape), part, spare, length, until=_MIN_RUN
        )
        if dropped:
            return src, stage, dropped, kept
    else:
        # The views of a stage from each buffer into the other.
        views = [_stage_views(src.reshape(shape), out) for src, out in ((part, spare), (spare, part))]
        for i in range(length):
            _stage(*views[i & 1])
        buf = spare if length & 1 else part
    if buf is not part:
        part[...] = buf
    return None


def _stage_views(src: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arguments of `_stage` from `src`, seen as (blocks, rows, inner),
    into `out`, a contiguous buffer of its size."""
    half = src.shape[1] // 2
    halves = out.reshape(src.shape)
    return src[:, 0::2], src[:, 1::2], halves[:, :half], halves[:, half:], out


def _stage(lo: np.ndarray, hi: np.ndarray, sums: np.ndarray, diffs: np.ndarray, out: np.ndarray) -> None:
    """One constant-geometry stage: (lo + hi) s into `sums` and (lo - hi) s
    into `diffs`, the two halves of the middle axis of `out`."""
    np.add(lo, hi, out=sums)
    np.subtract(lo, hi, out=diffs)
    np.multiply(out, _INV_SQRT2, out=out)


def _sum_diff(lo: np.ndarray, hi: np.ndarray, sums: np.ndarray, diffs: np.ndarray) -> None:
    """A one-block stage's first step: lo + hi into `sums`, lo - hi into
    `diffs`, unscaled."""
    np.add(lo, hi, out=sums)
    np.subtract(lo, hi, out=diffs)


def _scale(part: np.ndarray) -> None:
    """A one-block stage's last step: `part` times 1/sqrt(2), in place."""
    np.multiply(part, _INV_SQRT2, out=part)


def _drop_stages(
    src: np.ndarray,
    base: np.ndarray,
    free: np.ndarray,
    length: int,
    stage: int = 0,
    dropped: int = 0,
    kept: np.ndarray | int = 0,
    until: int = 0,
) -> tuple:
    """Stages `stage` .. length - 1 of a layer's run, on `src`.

    `src` holds the amplitudes kept so far, seen as (blocks, rows,
    inner), in `base`; `free` is the other buffer.  Bit i of `dropped`
    marks qubit q0 + i as dropped, and bit i of kept[b] the half of
    block b kept along it.  After each stage but the last, the half of a
    block along the qubit just gated is a contiguous half of it.  If
    every block has one whose every bit is zero (-0.0 and NaN payloads
    count as nonzero), as interference leaves them in a circuit's final
    layer, the later stages run on the other halves alone: they pair
    amplitudes that agree on the dropped qubit, and the run lists no
    qubit twice.  When every block keeps the same half, the next stage
    reads it in place; otherwise the OR of the two halves' words, which
    is the kept half bit for bit, is written to `free`.

    A part of one block, such as a whole tile whose run ends at qubit
    15, takes each stage in four steps: add, subtract (`_sum_diff`), test
    the unscaled halves, then scale (`_scale`) only the half it keeps,
    or the whole output when it keeps both, as it always does at the
    run's last stage.  Each half is tested from its first amplitude
    and, if that is zero, one word scan of that half alone.  Testing
    before the scale gives the same bits: a real x s has every bit zero
    only where x has, and the one complex value the scale zeroes,
    0.0-0.0j, is kept and taken through stages that leave it +0.0.
    `dropped` and `kept` stay Python ints there.  Parts of more blocks,
    as the `_Stack` holds, test all blocks at once after `_stage`.

    Returns (src, base, free, stage, dropped, kept) at the end of the
    run, or as soon as a drop leaves fewer than `until` amplitudes.
    """
    while stage < length:
        out = free[:src.size]
        views = _stage_views(src, out)
        blocks, rows, inner = src.shape
        base, free, stage = free, base, stage + 1
        if blocks == 1:
            lo, hi, sums, diffs, _ = views
            _sum_diff(lo, hi, sums, diffs)
            if stage < length and _is_zero(diffs):
                keep = 0
            elif stage < length and _is_zero(sums):
                keep = 1
            else:
                _scale(out)
                src = out.reshape(src.shape)
                continue
            src = (sums, diffs)[keep]
            _scale(src)
        else:
            _stage(*views)
            src = out.reshape(src.shape)
            # The first amplitude of each half of the first block settles
            # a dense layer with two reads.
            if stage == length or src.item(0) and src.item(rows // 2 * inner):
                continue
            words = src.view(np.uint64).reshape(blocks, 2, -1)
            peaks = words.max(axis=2)
            if peaks.min(axis=1).any():
                continue
            keep = peaks[:, 1] != 0
            if keep.all() or not keep.any():
                src = src.reshape(blocks, 2, rows // 2, inner)[:, int(keep[0])]
            else:
                out = free[:src.size // 2]
                np.bitwise_or(words[:, 0], words[:, 1], out=out.view(np.uint64).reshape(blocks, -1))
                base, free, src = free, base, out.reshape(blocks, rows // 2, inner)
        dropped |= 1 << (stage - 1)
        kept = kept | keep << (stage - 1)
        if src.size < until:
            break
    return src, base, free, stage, dropped, kept


class _Stack:
    """What whole tiles of a gate layer keep after dropping halves,
    stacked along the block axis to take the rest of the layer, on
    qubits first .. first + length - 1, together.

    A tile's part arrives once it has shrunk below _MIN_RUN amplitudes,
    where a stage's fixed cost outweighs its work, or once the run is
    done.  `add` copies the kept amplitudes and zeroes the tile while it
    is still in cache.  Parts stack while they agree on the stages done
    and the qubits dropped, up to one tile of amplitudes.  `flush` runs
    the stages left, which may drop more halves, and writes the kept
    amplitudes to their places, and marks in the state's live map the
    chunks where it writes a set bit and no other chunk of those tiles.
    The stack's two buffers are allocated at the first part.
    """

    def __init__(self, amps: np.ndarray, live: np.ndarray, first: int, length: int):
        self.amps, self.live = amps, live
        self.first, self.length = first, length
        self.buffers = None
        self.key, self.used, self.starts, self.kept = None, 0, [], []

    def add(self, start: int, src: np.ndarray, stage: int, dropped: int, kept: np.ndarray) -> None:
        """Take the whole tile at `start`, whose amplitudes kept after
        `stage` stages are `src` (see `_drop_stages`)."""
        key = (stage, dropped)
        if self.starts and (key != self.key or self.used + src.size > _TILE):
            self.flush()
        if self.buffers is None:
            self.buffers = tuple(np.empty(_TILE, self.amps.dtype) for _ in range(2))
        np.copyto(self.buffers[0][self.used:self.used + src.size].reshape(src.shape), src)
        self.amps[start:start + _TILE].fill(0)
        self.key = key
        self.used += src.size
        self.starts.append(start)
        self.kept.append(kept)

    def flush(self) -> None:
        """Run the stages left on the stacked parts and write them back."""
        if not self.starts:
            return
        stage, dropped = self.key
        rows = 1 << (self.length - dropped.bit_count())
        buf, free = self.buffers
        src = buf[:self.used].reshape(-1, rows, 1 << self.first)
        # A one-block part's kept bits are an int, a longer part's an array.
        kept = np.hstack(self.kept)
        src, _, _, _, dropped, kept = _drop_stages(src, buf, free, self.length, stage, dropped, kept)
        # Row of each kept amplitude in its block when the dropped bits
        # are 0, in natural order, and that block's number in the state.
        places = np.flatnonzero(np.arange(1 << self.length) & dropped == 0)
        bits = self.length + self.first
        blocks = (np.array(self.starts)[:, None] >> bits) + np.arange(_TILE >> bits)
        index = kept[:, None] | places
        blocks = blocks.reshape(-1, 1)
        self.amps.reshape(-1, 1 << self.length, 1 << self.first)[blocks, index] = src
        # Each kept row of 2^first amplitudes with a set bit lies in one
        # chunk or spans whole chunks.
        offsets = ((blocks << self.length | index) << self.first)[src.view(np.uint64).any(axis=2)]
        span = np.arange(max((1 << self.first) // _MIN_RUN, 1))
        self.live.reshape(-1, _TILE_CHUNKS)[np.array(self.starts) // _TILE] = False
        self.live[(offsets // _MIN_RUN)[:, None] + span] = True
        self.key, self.used, self.starts, self.kept = None, 0, [], []


def _live_length(tile: np.ndarray, block: int) -> int:
    """Length of the shortest prefix of `tile`, a multiple of `block`,
    after which every bit is zero (0 for an all-zero tile).

    A nonzero last amplitude settles a dense tile with one read, and one
    scan settles a tile with nothing set after its first block, such as
    a layer's view of a register still in |0..0> above its qubits.
    Otherwise the search steps down from the end over all-zero windows
    of doubling size, then halves the first window with a set bit.
    Each scan covers only zero bits: a check that meets a nonzero
    amplitude first (`_is_zero`) costs one read.
    """
    if tile.item(-1):
        return tile.size
    if tile.size == block or _is_zero(tile[block:]):
        return 0 if _is_zero(tile[:block]) else block
    # A bit is set after the first block, so some window below has one.
    end, step = tile.size, block
    while True:
        start = max(end - step, 0)
        if not _is_zero(tile[start:end]):
            break
        end, step = start, 2 * step
    # tile[start:end] has a set bit and everything from `end` on is zero.
    while end - start > block:
        mid = start + (end - start) // (2 * block) * block
        if _is_zero(tile[mid:end]):
            end = mid
        else:
            start = mid
    return end


def _high_qubit_pass(amps: np.ndarray, first: int, length: int, kernel, live: np.ndarray) -> None:
    """The gate on qubits first .. first + length - 1, all from
    _TILE_BITS up, as row bits over column chunks.

    Rows are indexed by the bits of those qubits; a tile is every such
    row over one chunk of at least _MIN_RUN contiguous columns.  Only
    the tiles with a chunk the state's live map marks are read; each is
    transformed and every chunk of it marked live, and every chunk of
    the other tiles stays dead.
    """
    view = amps.reshape(-1, 1 << length, 1 << first)
    height = view.shape[1]
    width = max(_TILE // height, _MIN_RUN)
    scratch = np.empty(height * width // 2, amps.dtype)
    # marks[o, :, c]: the chunks of tile c of the rows at o.
    marks = live.reshape(len(view), height, -1, width // _MIN_RUN)
    done = marks.any(axis=(1, 3))
    for o, c in np.argwhere(done).tolist():
        tile = view[o, :, c * width:(c + 1) * width]
        for bit in range(length):
            kernel(tile, bit, scratch)
    marks[...] = done[:, None, :, None]


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
        state.apply_controlled_key_unitary(gate[1], spec.keys.values[gate[1]])
    else:
        raise InputError(f"unknown gate {gate!r}")


def exact_distribution(state: StateVector | CircuitSpec) -> dict[int, float]:
    """Probability of each data-register outcome value, in ascending order.

    A `StateVector` gives the outcomes of its `data_marginal()` above
    `_PROB_TOL`; the remainder sums to 1 within numerical precision.  A
    `CircuitSpec` gives its keys only: key t gets the square 1/(2k) added
    2 b_t times in turn, the additions the dense row sum makes, so each
    value is bit-identical to the dense marginal's and no 2^n array is
    allocated.
    """
    if isinstance(state, CircuitSpec):
        amp = 1.0 / math.sqrt(2 * state.k)
        square = amp * amp
        sums: dict[int, float] = {}
        for value in state.keys.values:
            sums[value] = sums.get(value, 0.0) + square + square
        return {x: sums[x] for x in sorted(sums)}
    probs = state.data_marginal()
    outcomes = np.flatnonzero(probs > _PROB_TOL)
    return dict(zip(outcomes.tolist(), probs[outcomes].tolist()))


class OutcomeSampler:
    """Weighted draws of outcome indices, equal to `rng.choice`'s.

    `Generator.choice(k, shape, p=probs)` maps `u = rng.random(shape)`
    to `cdf.searchsorted(u, "right")`, with `cdf = probs.cumsum()` and
    `cdf /= cdf[-1]`.  This sampler builds the same cdf, splits [0, 1)
    into T = `buckets` equal parts, and tabulates the index of each
    bucket's first value b / T and of its last double, the count of cdf
    values below (b + 1) / T (a guide table, Chen & Asau 1974).  T is
    the smallest power of two at least 16 k, but at most `_MAX_BUCKETS`
    and, when the caller gives the number of `draws` to follow, at most
    the smallest power of two at least that, so a few draws from many
    outcomes pay for no large table.  `u * T` and `b / T` are exact in
    floating point and the index is monotone in u, so where the two
    agree every u in the bucket maps to that index, read with one
    gather.  Only draws in the at most k - 1 buckets holding a cdf edge,
    at most 1/16 of the mass up to 2^16 outcomes when the table is not
    capped, go through `searchsorted`; a table without such a bucket,
    as for k equal weights with k a power of two, skips the scan for
    them.  The indices, and the random stream read, are those of
    `choice` whatever T is.
    """

    __slots__ = ("cdf", "buckets", "_table", "_edges", "_onehot")

    def __init__(self, probs, draws: int | None = None):
        probs = np.asarray(probs, dtype=np.float64)
        cdf = probs.cumsum()
        if not (probs.size and (probs >= 0).all() and 0 < cdf[-1] < math.inf):
            raise InputError(
                "outcome probabilities must be finite and nonnegative "
                "with a positive sum"
            )
        cdf /= cdf[-1]
        self.cdf = cdf
        buckets = min(1 << (16 * cdf.size - 1).bit_length(), _MAX_BUCKETS)
        if draws is not None:
            buckets = min(buckets, 1 << (draws - 1).bit_length())
        self.buckets = buckets
        edges = np.arange(buckets + 1) / buckets
        first = cdf.searchsorted(edges[:-1], "right")
        last = cdf.searchsorted(edges[1:], "left")
        # -1 marks a bucket that holds a cdf edge.
        inside = first == last
        self._table = np.where(inside, first, -1)
        self._edges = not inside.all()
        self._onehot = None

    def lookup(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """`cdf.searchsorted(u, "right")` for an array of u in [0, 1).

        The indices are written into `out`, a C-contiguous intp array of
        u's shape, when one is given, so that a caller drawing block
        after block allocates nothing per block.
        """
        if out is None:
            out = np.empty(u.shape, dtype=np.intp)
        # Bucket numbers (u * T < T), then each bucket's index in place:
        # take reads an element's bucket before writing its index.
        np.multiply(u, self.buckets, out=out, casting="unsafe")
        np.take(self._table, out, out=out, mode="clip")
        if self._edges:
            flat = out.reshape(-1)
            edge = np.flatnonzero(flat < 0)
            flat[edge] = self.cdf.searchsorted(u.reshape(-1)[edge], "right")
        return out

    def onehot(
        self, u: np.ndarray, out: np.ndarray, buckets: np.ndarray | None = None
    ) -> np.ndarray:
        """`1 << cdf.searchsorted(u, "right")` for an array of u in [0, 1).

        The words are written into `out`, a C-contiguous array of u's
        shape whose unsigned integer dtype holds at least `cdf.size`
        bits.  `buckets`, a C-contiguous intp array of u's shape, takes
        the bucket numbers when given, so that a caller drawing block
        after block allocates nothing per block.  The words are read from
        `onehot_table(out.dtype)`.
        """
        if buckets is None:
            buckets = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, self.buckets, out=buckets, casting="unsafe")
        np.take(self.onehot_table(out.dtype), buckets, out=out, mode="clip")
        if self._edges:
            flat = out.reshape(-1)
            edge = np.flatnonzero(flat == 0)
            index = self.cdf.searchsorted(u.reshape(-1)[edge], "right")
            flat[edge] = out.dtype.type(1) << index.astype(out.dtype)
        return out

    def onehot_table(self, dtype: np.dtype) -> np.ndarray:
        """The guide table as one-hot words of the unsigned integer `dtype`,
        0 marking an edge bucket.

        It is tabulated on the first call for a dtype and kept, so a
        caller drawing from several threads at once calls this before
        they start: `onehot` then only reads the sampler.
        """
        if self._onehot is None or self._onehot.dtype != dtype:
            shifts = self._table.clip(0).astype(dtype)
            self._onehot = np.where(self._table < 0, dtype.type(0), dtype.type(1) << shifts)
        return self._onehot

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Indices of `rng.choice(k, shape, p=probs)`, from the same stream."""
        return self.lookup(rng.random(shape))


def measure_data_register(
    exact: dict[int, float], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Counts of `shots` i.i.d. draws from an `exact_distribution` result:
    an int64 array, one per outcome of `exact` in its order, zeros included.

    The outcomes are drawn by an `OutcomeSampler`, `_SHOT_CHUNK` shots at
    a time, and tallied per chunk; the counts are those of `rng.choice`
    over the normalized probabilities.
    """
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    probs = np.fromiter(exact.values(), np.float64, len(exact))
    probs /= probs.sum()
    sampler = OutcomeSampler(probs, shots)
    counts = np.zeros(len(exact), dtype=np.int64)
    for start in range(0, shots, _SHOT_CHUNK):
        drawn = sampler.draw(rng, min(_SHOT_CHUNK, shots - start))
        counts += np.bincount(drawn, minlength=len(exact))
    return counts


def chi_square_vs_exact(counts: np.ndarray, exact: dict[int, float]) -> dict | None:
    """Goodness-of-fit statistic of `measure_data_register` counts, one
    per outcome of `exact` in its order, against exact probabilities.

    Returns None (to be reported with a notice) when the sample is a
    single shot or the support leaves no degrees of freedom.  An outcome
    of probability 0 or less, whose expected count the statistic would
    divide by, is refused.  The p-value is the chi-square survival
    function `chdtrc(dof, stat)`, which `scipy.stats.chi2.sf` also
    evaluates; `scipy.special` imports in a fraction of the time
    `scipy.stats` takes.
    """
    from scipy.special import chdtrc

    if len(counts) != len(exact):
        raise InputError(f"{len(counts)} counts for {len(exact)} outcomes")
    for outcome, p in exact.items():
        if p <= 0.0:
            raise InputError(
                f"outcome {outcome} has probability {p}; every outcome "
                "needs a positive expected count"
            )
    observed = counts.tolist()
    shots = sum(observed)
    dof = len(exact) - 1
    if shots < 2 or dof < 1:
        return None
    stat = 0.0
    for count, p in zip(observed, exact.values()):
        expected = p * shots
        stat += (count - expected) ** 2 / expected
    return {
        "statistic": stat,
        "dof": dof,
        "p_value": float(chdtrc(dof, stat)),
    }


class ClassicalOracle:
    """Black box holding k keys; each query answers with a uniformly
    random key's dot product against the input, independently per query.
    `probe_batch` is its one query primitive."""

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

    def probe_batch(self, positions, size: int) -> np.ndarray:
        """Answers to `size` queries with the input whose set bits are at
        `positions`: per drawn key, the parity of its bits there, read
        from the bit matrix.

        Charges `size` queries and draws the keys with one
        `rng.integers(k, size=size)`, which reads the same stream as
        `size` single draws.  A position outside [0, n), which would
        index the matrix from its end or past it, is refused.
        """
        if size < 1:
            raise InputError(f"query batch size must be >= 1, got {size}")
        if not all(0 <= q < self.n for q in positions):
            raise InputError(
                f"query positions {list(positions)} are not all in [0, {self.n})"
            )
        answers = np.bitwise_xor.reduce(self.bits[:, positions], axis=1)
        picks = self.rng.integers(self.k, size=size)
        self.queries += size
        return answers[picks]
