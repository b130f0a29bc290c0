"""Classical baselines against the probabilistic oracle, and the
quantum-side coupon-collector experiment they are compared with.

Every strategy here assumes the key count k is known to the adversary
(without it the bit-sum inference is underdetermined); reports carry
that assumption explicitly.  No strategy claims certainty unless the
oracle holds a single key, in which case the n-query bit-probing
recovery is exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import simulator
from .analytics import (
    DEFAULT_WORK_BOUND,
    count_consistent_keysets,
    prob_all_keys,
)
from .errors import InputError
from .keyspace import KeySet, bit_sum_profile, format_key
from .simulator import ClassicalOracle, exact_distribution, run_circuit


@dataclass
class ExperimentReport:
    """Outcome of one strategy run, ready for CLI serialization.

    `queries` is exactly the number of oracle interactions charged: one
    per classical query, one per quantum circuit execution.  Every
    strategy assumes k is known, so `assumes_k_known` is a constant.
    """

    assumes_k_known: ClassVar[bool] = True
    strategy: str
    queries: int
    success_probability: float | None
    claims_certainty: bool
    seed: int | None
    wall_time_s: float
    recovered: list[str] | None = None
    success: bool | None = None
    notes: str = ""
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "strategy": self.strategy,
            "queries": self.queries,
            "success_probability": self.success_probability,
            "success": self.success,
            "recovered": self.recovered,
            "claims_certainty": self.claims_certainty,
            "assumes_k_known": self.assumes_k_known,
            "seed": self.seed,
            "notes": self.notes,
            "wall_time_s": self.wall_time_s,
        }
        rec.update(self.details)
        return rec


def classical_bv_single_key(oracle: ClassicalOracle) -> int:
    """Recover a single-key oracle's key value in exactly n queries.

    Querying with x = 2**q, one `probe_batch([q], 1)`, returns bit q of
    the key.  Only sound for k = 1, where the oracle is deterministic;
    larger oracles are refused because a returned bit cannot be
    attributed to a key.
    """
    if oracle.k != 1:
        raise InputError(
            f"bit-probing recovery is only sound for a single-key oracle, got k={oracle.k}"
        )
    value = 0
    for q in range(oracle.n):
        value |= int(oracle.probe_batch([q], 1)[0]) << q
    return value


def estimate_bit_sums(oracle: ClassicalOracle, trials_per_bit: int) -> np.ndarray:
    """Estimate how many keys have each bit set, by repeated probing.

    For each position q the oracle is queried trials_per_bit times with
    x = 2**q, in batches of at most `simulator._SHOT_CHUNK` queries; the
    estimate is k times the observed frequency of 1.  Estimates stay
    real-valued; round separately via `rounded_bit_sums`.
    """
    if trials_per_bit < 1:
        raise InputError(f"trials_per_bit must be >= 1, got {trials_per_bit}")
    n, k = oracle.n, oracle.k
    chunk = simulator._SHOT_CHUNK
    estimates = np.empty(n, dtype=np.float64)
    for q in range(n):
        ones = 0
        for start in range(0, trials_per_bit, chunk):
            size = min(chunk, trials_per_bit - start)
            ones += int(np.count_nonzero(oracle.probe_batch([q], size)))
        estimates[q] = k * ones / trials_per_bit
    return estimates


def rounded_bit_sums(estimates: np.ndarray, k: int) -> tuple[int, ...]:
    """Post-process real-valued bit-sum estimates to the nearest integers."""
    return tuple(int(min(max(round(float(e)), 0), k)) for e in estimates)


def classical_guess_attack(
    true_keys: KeySet,
    runs: int,
    seed: int,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> ExperimentReport:
    """Guess the key multiset uniformly among profile-consistent ones.

    The profile is the true keys' own (the infinite-query limit of
    bit-sum estimation), so the attack is charged zero oracle queries.
    The candidate pool is duplicate-free exactly when the true keys
    are, so it always holds the truth, and the success frequency over
    the runs converges to 1 / (pool size).  The pool is the rows of the
    enumeration's table, in its order; the truth's row is found by
    comparing rows.  Guesses are drawn as row indices from
    `np.random.default_rng(seed)`, `simulator._SHOT_CHUNK` at a time;
    only the last one is expanded to keys and reported as `recovered`.
    """
    if runs < 1:
        raise InputError(f"runs must be >= 1, got {runs}")
    t0 = time.perf_counter()
    distinct = true_keys.all_distinct()
    count = count_consistent_keysets(
        bit_sum_profile(true_keys), true_keys.k, work_bound=work_bound
    )
    pool = count.table[count.duplicate_free] if distinct else count.table
    truth = np.array(count.compress(sorted(true_keys.values)), dtype=np.uint64)
    truth_idx = int(np.flatnonzero((pool == truth).all(axis=1))[0])
    rng = np.random.default_rng(seed)
    successes = 0
    chunk = simulator._SHOT_CHUNK
    for start in range(0, runs, chunk):
        draws = rng.integers(len(pool), size=min(chunk, runs - start))
        successes += int(np.count_nonzero(draws == truth_idx))
    guess = count.expand(pool[int(draws[-1])].tolist())
    return ExperimentReport(
        strategy="uniform-guess-among-consistent-multisets",
        queries=0,
        success_probability=successes / runs,
        claims_certainty=False,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
        recovered=[format_key(v, true_keys.n) for v in guess],
        notes=(
            "profile assumed exact (infinite-query limit); "
            + (
                "candidates restricted to distinct-key multisets"
                if distinct
                else "candidates include duplicate-key multisets"
            )
        ),
        details={
            "runs": runs,
            "candidate_pool_size": len(pool),
            "theory_success_probability": 1 / len(pool),
            "assume_distinct": distinct,
        },
    )


# Up to this many keys a trial's seen keys are one unsigned word.
_WORD_BITS = 64

# Bit generators whose `advance(d)` skips exactly the d words that d
# `random()` doubles read.  Philox's `advance` counts 4-word blocks, and
# MT19937 and SFC64 have none, so they draw in one share.
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)

# Rows of fewer draws than this are OR-folded one column at a time,
# longer ones by one reduce per row: on 2 vCPUs the column loop is
# faster up to about 24 draws a row and the reduce from about 40.
_COLUMN_FOLD = 32


def _require_distinct(keys: KeySet) -> None:
    """Refuse duplicate keys: the all-keys recovery analysis assumes k
    equiprobable outcomes, which duplicates break."""
    if not keys.all_distinct():
        raise InputError(
            "coupon experiment assumes k equiprobable distinct keys; "
            "duplicate keys bias the per-key probabilities"
        )


def quantum_coupon_experiment(
    keys: KeySet,
    m: int,
    trials: int,
    rng: np.random.Generator,
    oracle_path: str = "gate",
) -> float:
    """Empirical probability that m circuit runs reveal all k keys.

    Each trial samples m measurements from the simulated circuit's
    exact data-register marginal and succeeds when every key was
    observed.  Measurements are drawn by a `simulator.OutcomeSampler`,
    which gives the indices of `rng.choice(k, ..., p=p)` from the same
    stream, about `simulator._SHOT_CHUNK` at a time: whole trials at
    once when m is below it and in column chunks of one trial
    otherwise.  For k <= 64 each draw becomes the one-hot word of its
    key, in the narrowest unsigned dtype of k bits, and each trial's
    words are OR-folded into one word, full when all k bits are set.
    For larger k each draw becomes a key index, marked in a seen bitmap
    of one row of trials per key.  Every trial reads exactly m uniforms,
    trial after trial, so trial t starts t * m words into the stream.
    With a PCG64 or PCG64DXSM generator, whose `advance` skips exactly
    that many words, the blocks are split into contiguous shares of
    whole blocks: one per usable CPU, at most half the blocks, and one
    under 4 blocks.  The calling thread draws the first share from
    `rng` itself; a standard-library thread pool draws each other one
    from a copy advanced to its first trial (`_advanced`), and raises
    a worker's error here once every thread is joined.  numpy releases
    the interpreter lock inside its kernels and rng calls, so the
    shares overlap.  A one-share draw starts no thread.  The
    full-trial count and `rng`'s end state are those of one share, bit
    for bit.  Each share allocates its block's buffers (uniforms, then
    bucket numbers, words and trial words, or indices and the bitmap)
    once, sized for at most `trials` trials, so memory is the shares
    times one block's buffers, growing with neither `trials` nor m, and
    no block allocates an array of its own.
    Distinct keys required: see `_require_distinct`.
    """
    _require_distinct(keys)
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    k = keys.k
    if m < k:
        return 0.0
    dist = exact_distribution(run_circuit(keys, oracle_path=oracle_path))
    p = np.array([dist[v] for v in keys.values])
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InputError(
            f"key outcomes carry probability {total}, expected 1"
        )
    sampler = simulator.OutcomeSampler(p / total, m * trials)
    chunk = simulator._SHOT_CHUNK
    rows, cols = min(max(1, chunk // m), trials), min(m, chunk)
    if k <= _WORD_BITS:
        # Tabulated before any share draws, so the shares only read the sampler.
        sampler.onehot_table(np.min_scalar_type((1 << k) - 1))
        full_trials = _word_trials
    else:
        full_trials = _bitmap_trials
    blocks = -(-trials // rows)
    shares = 1
    if blocks >= 4 and type(rng.bit_generator) in _JUMPABLE:
        shares = min(_usable_cpus(), blocks // 2)
    if shares == 1:
        return full_trials(sampler, rng, k, m, trials, rows, cols) / trials
    # Imported here, so that a one-share draw never loads the pool.
    from concurrent.futures import ThreadPoolExecutor

    bounds = [blocks * w // shares * rows for w in range(shares)] + [trials]
    copies = [_advanced(rng, first * m) for first in bounds[1:-1]]
    with ThreadPoolExecutor(shares - 1) as pool:
        futures = [
            pool.submit(full_trials, sampler, copy, k, m, stop - first, rows, cols)
            for copy, first, stop in zip(copies, bounds[1:], bounds[2:])
        ]
        full = full_trials(sampler, rng, k, m, bounds[1], rows, cols)
        full += sum(future.result() for future in futures)
    # `rng` ends where the last share's copy does, keeping the buffered
    # 32-bit half that `advance` clears and `random` never reads.
    start = rng.bit_generator.state
    end = copies[-1].bit_generator.state
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    rng.bit_generator.state = end
    return full / trials


def _advanced(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A copy of `rng` that has skipped `words` 64-bit outputs."""
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    copy.bit_generator.advance(words)
    return copy


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so `taskset` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _word_trials(sampler, rng, k, m, trials, rows, cols) -> int:
    """Trials of `quantum_coupon_experiment` that see all k <= 64 keys,
    drawn in blocks of rows x cols: each trial's one-hot words OR-fold
    into one word."""
    word = np.min_scalar_type((1 << k) - 1)
    all_keys = word.type((1 << k) - 1)
    uniforms = np.empty(rows * cols)
    buckets = np.empty(rows * cols, dtype=np.intp)
    words = np.empty(rows * cols, dtype=word)
    seen = np.empty(rows, dtype=word)
    full = 0
    for start in range(0, trials, rows):
        count = min(rows, trials - start)
        trial_seen = seen[:count]
        trial_seen.fill(0)
        for done in range(0, m, cols):
            size = count * min(cols, m - done)
            block = sampler.onehot(
                rng.random(out=uniforms[:size].reshape(count, -1)),
                out=words[:size].reshape(count, -1),
                buckets=buckets[:size].reshape(count, -1),
            )
            if block.shape[1] < _COLUMN_FOLD:
                for column in block.T:
                    trial_seen |= column
            else:
                trial_seen |= np.bitwise_or.reduce(block, axis=1)
        full += int(np.count_nonzero(trial_seen == all_keys))
    return full


def _bitmap_trials(sampler, rng, k, m, trials, rows, cols) -> int:
    """Trials of `quantum_coupon_experiment` that see all k keys, drawn
    in blocks of rows x cols: a k x rows seen bitmap marks outcome i of
    trial t at flat index i * rows + t."""
    uniforms = np.empty(rows * cols)
    drawn = np.empty(rows * cols, dtype=np.intp)
    seen = np.empty((k, rows), dtype=bool)
    trial = np.arange(rows)[:, None]
    full = 0
    for start in range(0, trials, rows):
        count = min(rows, trials - start)
        seen.fill(False)
        for done in range(0, m, cols):
            size = count * min(cols, m - done)
            u = uniforms[:size].reshape(count, -1)
            block = drawn[:size].reshape(count, -1)
            sampler.lookup(rng.random(out=u), out=block)
            block *= rows
            block += trial[:count]
            seen.reshape(-1)[block] = True
        full += int(np.count_nonzero(np.logical_and.reduce(seen[:, :count], axis=0)))
    return full


def run_single_key_baseline(keys: KeySet, seed: int) -> ExperimentReport:
    """Deterministic n-query recovery against a single-key oracle."""
    t0 = time.perf_counter()
    oracle = ClassicalOracle(keys, np.random.default_rng(seed))
    recovered = classical_bv_single_key(oracle)
    return ExperimentReport(
        strategy="classical-single-key-bit-probing",
        queries=oracle.queries,
        success_probability=1.0,
        claims_certainty=True,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
        recovered=[format_key(recovered, keys.n)],
        success=recovered == keys.values[0],
    )


def run_bit_sum_estimation(
    keys: KeySet, trials_per_bit: int, seed: int
) -> ExperimentReport:
    """Bit-sum profile estimation by repeated single-bit probing."""
    t0 = time.perf_counter()
    oracle = ClassicalOracle(keys, np.random.default_rng(seed))
    estimates = estimate_bit_sums(oracle, trials_per_bit)
    rounded = rounded_bit_sums(estimates, keys.k)
    true_profile = bit_sum_profile(keys)
    return ExperimentReport(
        strategy="bit-sum-profile-estimation",
        queries=oracle.queries,
        success_probability=None,
        claims_certainty=False,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
        success=rounded == true_profile,
        notes="recovers per-bit counts, not the keys themselves",
        details={
            "trials_per_bit": trials_per_bit,
            "estimates": [float(e) for e in estimates],
            "rounded_counts": list(rounded),
            "true_counts": list(true_profile),
        },
    )


def run_coupon_experiment(
    keys: KeySet,
    m: int,
    trials: int,
    seed: int,
    oracle_path: str = "gate",
) -> ExperimentReport:
    """Quantum-side all-keys recovery rate over repeated circuit runs.

    The exact theory comes first: it refuses an out-of-range m at once.
    """
    t0 = time.perf_counter()
    theory = prob_all_keys(keys.k, m)
    rng = np.random.default_rng(seed)
    rate = quantum_coupon_experiment(keys, m, trials, rng, oracle_path)
    return ExperimentReport(
        strategy="quantum-repeated-measurement",
        queries=m * trials,
        success_probability=rate,
        claims_certainty=False,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
        notes="one oracle query per circuit execution",
        details={
            "measurements_per_trial": m,
            "trials": trials,
            "theory_success_probability": float(theory),
        },
    )
