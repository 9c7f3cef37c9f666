"""Randomized-measurement probes of symmetry-protected topological order.

Desk-scale toolkit for spin-1/2 chains: exact diagonalization of the
bond-alternating XXZ model and its perturbations, exact topological
invariants from reduced density matrices, simulated randomized-measurement
campaigns with their statistical estimators, Trotterized adiabatic state
preparation, and sweep/error-scaling studies.
"""
from .spincore import (
    SpinState,
    basis_state,
    neel_state,
    random_state,
)
from .partitions import PartitionSpec, reflection_partition, three_segment_partition
from .hamiltonians import CompiledHamiltonian, HamiltonianSpec
from .groundstate import EigenResult, ConvergenceError, ground_state
from .rdm import (
    InvariantValue,
    exact_invariant,
    purity,
    reduced_density_matrix,
)
from .protocols import (
    CampaignRecords,
    EstimatorResult,
    ProtocolParams,
    estimate_normalized,
    estimate_purity,
    estimate_raw,
    run_campaign,
    twirl_check,
)
from .dynamics import RampSpec, adiabatic_evolve, evolve, monitor_invariants
from .analysis import (
    CorrelationLengthFit,
    SweepSpec,
    error_scaling_scan,
    fit_correlation_length,
    run_sweep,
)

__all__ = [
    "SpinState",
    "basis_state",
    "neel_state",
    "random_state",
    "PartitionSpec",
    "reflection_partition",
    "three_segment_partition",
    "HamiltonianSpec",
    "CompiledHamiltonian",
    "EigenResult",
    "ConvergenceError",
    "ground_state",
    "InvariantValue",
    "reduced_density_matrix",
    "purity",
    "exact_invariant",
    "ProtocolParams",
    "CampaignRecords",
    "EstimatorResult",
    "run_campaign",
    "estimate_raw",
    "estimate_purity",
    "estimate_normalized",
    "twirl_check",
    "RampSpec",
    "evolve",
    "adiabatic_evolve",
    "monitor_invariants",
    "SweepSpec",
    "run_sweep",
    "CorrelationLengthFit",
    "fit_correlation_length",
    "error_scaling_scan",
]

__version__ = "0.1.0"
