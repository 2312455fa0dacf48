"""Multipartite-entanglement invariants of even-n qubit pure states.

Average balanced-bipartition purity, the n-tangle, weight-k Pauli
correlation sums, the published C + K purity decompositions (with errata
detection and least-squares repair), and numerical search for maximally
multipartite entangled states.
"""
from .decomposition import (
    DecompositionModel,
    FitDiagnostics,
    KReport,
    SUPPORTED_N,
    VerificationSummary,
    conjecture_audit,
    evaluate,
    fit_coefficients,
    printed_model,
    verify_identity,
)
from .pauli import PauliString, WeightSums, expectation, f_invariant, n_tangle, weight_sums
from .purity import PurityReport, average_balanced_purity, reduced_purity, subset_purities
from .reports import psi_m8_audit
from .search import SearchConfig, SearchResult, gradient_check, minimize_average_purity
from .states import (
    QState,
    StateError,
    apply_local_unitaries,
    apply_single_qubit_unitary,
    conjugate,
    load_state,
    make_basis_state,
    make_ghz,
    make_psi_m8,
    make_w,
    permute_qubits,
    random_state,
    save_state,
)

__version__ = "0.1.0"
