"""Exact branch-level simulator and verifier for deterministic N-to-one
joint remote state preparation over EPR pairs.

The package enumerates every measurement branch of two preparation
protocols, applies configurable recovery rules at the receiver, and
adjudicates the success-probability claims made by the manuscript under
audit, including a structured report of its internal inconsistencies.
"""

from .qcore import (
    DEFAULT_TOL,
    OrthonormalBasis,
    RecoveryOp,
    StateVector,
    Tolerances,
)
from .bases import (
    RULES,
    RecoveryRule,
    TargetState,
    bich_alice_basis3,
    bich_basis_selector,
    bich_bob_basis,
    improved_alice_basis,
    improved_bob_basis,
    printed_improved_matrix3,
)
from .protocol import (
    VARIANTS,
    BranchRecord,
    ProtocolReport,
    generic_shares,
    run_exact,
    run_sampled,
    split_phase,
)
from .verify import (
    SEMANTICS,
    ErratumFinding,
    RuleComparison,
    best_pauli,
    compare_rules,
    detect_errata,
    oracle_branches,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "OrthonormalBasis",
    "RecoveryOp",
    "StateVector",
    "Tolerances",
    "RULES",
    "RecoveryRule",
    "TargetState",
    "bich_alice_basis3",
    "bich_basis_selector",
    "bich_bob_basis",
    "improved_alice_basis",
    "improved_bob_basis",
    "printed_improved_matrix3",
    "VARIANTS",
    "BranchRecord",
    "ProtocolReport",
    "generic_shares",
    "run_exact",
    "run_sampled",
    "split_phase",
    "SEMANTICS",
    "ErratumFinding",
    "RuleComparison",
    "best_pauli",
    "compare_rules",
    "detect_errata",
    "oracle_branches",
    "success_probability",
    "__version__",
]
