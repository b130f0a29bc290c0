"""Seeded operation lists for the benchmark workloads.

Every workload is a fixed list of CLI invocations, one "round".  The
seed chooses key values and per-command RNG seeds only: register sizes,
key counts, duplicate counts, shots and trials are the same for every
seed, so a new seed changes the inputs but not the amount of work.

The constant-work key families rely on symmetries of the analysis:
complementing one bit column maps weight w to k - w and permuting
columns permutes bit positions, both bijections on consistent
multisets.  So every 5-key 5-bit profile with column weights in {2, 3}
has the same 10**5 ordered assignments, 923 multisets and 752
duplicate-free multisets, and every 4-key 8-bit profile with column
weights in {1, 3} has the same 4**8 ordered assignments.

Every op is kept under about a second so that a 30-second run repeats
each one about ten times; see the best-of-rounds note in worker.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

COMMANDS = ("simulate", "sample", "analyze", "adversary")


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its correctness check needs."""

    kind: str  # simulate | sample | analyze-keys | analyze-grid | adversary
    argv: tuple[str, ...]
    keys: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _key_args(keys, seed: int) -> tuple[str, ...]:
    return ("--keys", ",".join(keys), "--seed", str(seed))


def simulate(keys, path: str, seed: int) -> Op:
    argv = ("simulate",) + _key_args(keys, seed) + ("--oracle-path", path)
    return Op("simulate", argv, tuple(keys))


def sample(keys, path: str, shots: int, seed: int) -> Op:
    argv = ("sample",) + _key_args(keys, seed) + (
        "--oracle-path", path, "--shots", str(shots),
    )
    return Op("sample", argv, tuple(keys), {"shots": shots})


def analyze_keys(keys, seed: int, family: str | None = None) -> Op:
    argv = ("analyze",) + _key_args(keys, seed) + ("--enumerate",)
    return Op("analyze-keys", argv, tuple(keys), {"family": family})


def analyze_grid(k_range: str, m_range: str, seed: int) -> Op:
    argv = ("analyze", "--k", k_range, "--m", m_range, "--seed", str(seed))
    return Op("analyze-grid", argv)


def adversary(keys, seed: int, trials: int, m: int, shots: int) -> Op:
    argv = ("adversary",) + _key_args(keys, seed) + (
        "--trials", str(trials), "--m", str(m), "--shots", str(shots),
    )
    return Op(
        "adversary", argv, tuple(keys),
        {"trials": trials, "m": m, "shots": shots},
    )


def _fmt(values, n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in values]


def _multiset(rng: random.Random, n: int, k: int, distinct: int) -> list[str]:
    """k keys of n bits with exactly `distinct` different values."""
    values = rng.sample(range(1 << n), distinct)
    values += [rng.choice(values) for _ in range(k - distinct)]
    rng.shuffle(values)
    return _fmt(values, n)


def _column_family(rng: random.Random, k: int, n: int, weights) -> list[str]:
    """k distinct n-bit keys whose every bit column has a weight in `weights`."""
    while True:
        rows = [0] * k
        for q in range(n):
            for row in rng.sample(range(k), rng.choice(weights)):
                rows[row] |= 1 << q
        if len(set(rows)) == k:
            return _fmt(rows, n)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


# Warm-up run once per worker before timing: one toy call of every
# command, so lazy imports are done and a traced run sees every layer.
PROBE = (
    simulate(["01", "10", "11"], "gate", 1),
    sample(["01", "10", "11"], "fast", 64, 1),
    analyze_keys(["011", "101", "110"], 1),
    analyze_grid("2:3", "4", 1),
    adversary(["01", "10"], 1, trials=200, m=6, shots=256),
)


def probe(commands=COMMANDS) -> tuple[Op, ...]:
    return tuple(op for op in PROBE if op.command in commands)


def dense_23q(rng: random.Random) -> list[Op]:
    """Two 23-qubit circuits: n=19 with k=6 (r=3) and k=8 (r=3)."""
    six = _multiset(rng, 19, 6, 6)
    eight = _multiset(rng, 19, 8, 7)
    return [
        simulate(six, "gate", _seed(rng)),
        sample(eight, "fast", 100_000, _seed(rng)),
    ]


def _small_shapes() -> list[tuple[int, int, int]]:
    """(n, k, distinct) for every total width 3..14 and control width 0..3.

    Includes k below a power of two (direct uniform preparation) and at
    one (control Hadamards), with one duplicate key whenever k >= 3.
    """
    shapes = []
    for total in range(3, 15):
        for r in range(0, 4):
            n = total - 1 - r
            if n < 1:
                continue
            ks = {1} if r == 0 else {(1 << (r - 1)) + 1, 1 << r}
            for k in sorted(ks):
                if k > (1 << n):
                    continue
                distinct = k - 1 if k >= 3 else k
                shapes.append((n, k, distinct))
    return shapes


SMALL_SHAPES = _small_shapes()
SMALL_PASSES = 4
SMALL_SHOTS = 4096


def small_circuits(rng: random.Random) -> list[Op]:
    """Every small shape on both commands and both oracle paths, SMALL_PASSES times."""
    ops = []
    for _ in range(SMALL_PASSES):
        for n, k, distinct in SMALL_SHAPES:
            for path in ("gate", "fast"):
                ops.append(simulate(_multiset(rng, n, k, distinct), path, _seed(rng)))
                ops.append(
                    sample(_multiset(rng, n, k, distinct), path, SMALL_SHOTS, _seed(rng))
                )
    return ops


# Cells near the coupon-collector threshold m ~ k ln k.  Larger cells,
# such as k=2000, m=4096, are not used: rendering their rationals
# exceeds Python's 4300-digit int-to-str limit and the CLI fails.
GRID_K = "296:300"
GRID_M = "1690:1700"


def classical_analysis(rng: random.Random) -> list[Op]:
    """Enumeration, a bignum recovery grid, and adversary runs of two sizes.

    The large adversary run draws a 10**6 x 12 coupon array, which sets
    the workload's peak memory.
    """
    return [
        adversary(
            _column_family(rng, 4, 8, (1, 3)), _seed(rng),
            trials=1_000_000, m=12, shots=10_000,
        ),
        analyze_keys(_column_family(rng, 5, 5, (2, 3)), _seed(rng), "5x5-w23"),
        analyze_keys(_column_family(rng, 5, 5, (2, 3)), _seed(rng), "5x5-w23"),
        analyze_grid(GRID_K, GRID_M, _seed(rng)),
    ] + [
        adversary(
            _column_family(rng, 4, 8, (1, 3)), _seed(rng),
            trials=10_000, m=12, shots=1024,
        )
        for _ in range(5)
    ]


WORKLOADS = {
    "dense-23q": dense_23q,
    "small-circuits": small_circuits,
    "classical-analysis": classical_analysis,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's round of operations for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
