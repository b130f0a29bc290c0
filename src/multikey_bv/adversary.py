"""Classical baselines against the probabilistic oracle, and the
quantum-side coupon-collector experiment they are compared with.

Every strategy here assumes the key count k is known to the adversary
(without it the bit-sum inference is underdetermined); reports carry
that assumption explicitly.  No strategy claims certainty unless the
oracle holds a single key, in which case the n-query bit-probing
recovery is exact.
"""

from __future__ import annotations

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
from .keyspace import (
    BitSumProfile,
    KeySet,
    SecretKey,
    bit_sum_profile,
    format_key,
)
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


def classical_bv_single_key(oracle: ClassicalOracle) -> SecretKey:
    """Recover a single-key oracle's key in exactly n queries.

    Querying with x = 2**q returns bit q of the key.  Only sound for
    k = 1, where the oracle is deterministic; larger oracles are
    refused because a returned bit cannot be attributed to a key.
    """
    if oracle.k != 1:
        raise InputError(
            f"bit-probing recovery is only sound for a single-key oracle, got k={oracle.k}"
        )
    n = oracle.n
    value = 0
    for q in range(n):
        value |= oracle.query(SecretKey(1 << q, n)) << q
    return SecretKey(value, n)


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


def rounded_bit_sums(estimates: np.ndarray, k: int) -> BitSumProfile:
    """Post-process real-valued bit-sum estimates to the nearest integers."""
    counts = tuple(
        int(min(max(round(float(e)), 0), k)) for e in estimates
    )
    return BitSumProfile(counts)


def classical_guess_attack(
    true_keys: KeySet,
    runs: int,
    rng: np.random.Generator,
    work_bound: int = DEFAULT_WORK_BOUND,
    seed: int | None = None,
) -> ExperimentReport:
    """Guess the key multiset uniformly among profile-consistent ones.

    The profile is the true keys' own (the infinite-query limit of
    bit-sum estimation), so the attack is charged zero oracle queries.
    The candidate pool is duplicate-free exactly when the true keys
    are, so it always holds the truth, and the success frequency over
    the runs converges to 1 / (pool size).  Guesses are drawn
    `simulator._SHOT_CHUNK` at a time; the last one is reported as
    `recovered`.
    """
    if runs < 1:
        raise InputError(f"runs must be >= 1, got {runs}")
    t0 = time.perf_counter()
    distinct = true_keys.all_distinct()
    count = count_consistent_keysets(
        bit_sum_profile(true_keys),
        true_keys.k,
        include_multisets=True,
        work_bound=work_bound,
    )
    pool = count.distinct_multisets() if distinct else count.multisets
    truth_idx = pool.index(tuple(sorted(true_keys.values)))
    successes = 0
    chunk = simulator._SHOT_CHUNK
    for start in range(0, runs, chunk):
        draws = rng.integers(len(pool), size=min(chunk, runs - start))
        successes += int(np.count_nonzero(draws == truth_idx))
    return ExperimentReport(
        strategy="uniform-guess-among-consistent-multisets",
        queries=0,
        success_probability=successes / runs,
        claims_certainty=False,
        seed=seed,
        wall_time_s=time.perf_counter() - t0,
        recovered=[format_key(v, true_keys.n) for v in pool[int(draws[-1])]],
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
    otherwise, into one flat seen bitmap of k entries per trial, so
    memory grows with neither `trials` nor m.
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
    p = np.array([dist[s] for s in keys.strings()])
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InputError(
            f"key outcomes carry probability {total}, expected 1"
        )
    sampler = simulator.OutcomeSampler(p / total)
    chunk = simulator._SHOT_CHUNK
    rows, cols = max(1, chunk // m), min(m, chunk)
    # Trial t of a block marks outcome i seen at seen[t * k + i].
    offsets = np.arange(0, rows * k, k)[:, None]
    full = 0
    for start in range(0, trials, rows):
        count = min(rows, trials - start)
        seen = np.zeros(count * k, dtype=bool)
        for done in range(0, m, cols):
            drawn = sampler.draw(rng, (count, min(cols, m - done)))
            drawn += offsets[:count]
            seen[drawn] = True
        full += int(np.count_nonzero(seen.reshape(count, k).all(axis=1)))
    return float(full / trials)


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
        recovered=[str(recovered)],
        success=recovered.value == keys.values[0],
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
        success=rounded.counts == true_profile.counts,
        notes="recovers per-bit counts, not the keys themselves",
        details={
            "trials_per_bit": trials_per_bit,
            "estimates": [float(e) for e in estimates],
            "rounded_counts": list(rounded.counts),
            "true_counts": list(true_profile.counts),
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
            "theory_success_probability": theory.value,
        },
    )
