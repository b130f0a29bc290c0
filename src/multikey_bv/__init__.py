"""Multi-key Bernstein-Vazirani simulation and analysis.

Exact statevector simulation of the probabilistic-oracle circuit,
closed-form and Monte Carlo key-recovery analysis, and classical
adversary baselines, with a CLI for reproducible experiments.
"""

__version__ = "0.1.0"

from .errors import CapacityError, InputError
from .keyspace import (
    KeyMultiplicity,
    KeySet,
    bit_sum_profile,
    multiplicity,
    parse_key,
)
from .simulator import (
    CircuitSpec,
    ClassicalOracle,
    StateVector,
    build_circuit,
    exact_distribution,
    measure_data_register,
    run_circuit,
)
from .analytics import (
    ConsistencyCount,
    classical_guess_bound,
    classical_guess_exact,
    count_consistent_keysets,
    prob_all_keys,
    prob_two_keys,
    surjection_count,
)
from .adversary import (
    ExperimentReport,
    classical_bv_single_key,
    classical_guess_attack,
    estimate_bit_sums,
    quantum_coupon_experiment,
)

__all__ = [
    "CapacityError",
    "CircuitSpec",
    "ClassicalOracle",
    "ConsistencyCount",
    "ExperimentReport",
    "InputError",
    "KeyMultiplicity",
    "KeySet",
    "StateVector",
    "bit_sum_profile",
    "build_circuit",
    "classical_bv_single_key",
    "classical_guess_attack",
    "classical_guess_bound",
    "classical_guess_exact",
    "count_consistent_keysets",
    "estimate_bit_sums",
    "exact_distribution",
    "measure_data_register",
    "multiplicity",
    "parse_key",
    "prob_all_keys",
    "prob_two_keys",
    "quantum_coupon_experiment",
    "run_circuit",
    "surjection_count",
]
