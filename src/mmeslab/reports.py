"""mmeslab-report-v1 documents: structured results the CLI prints and tests parse.

Floats pass through ``json`` untouched, so they serialize with Python's
shortest round-trip repr (up to 17 significant digits).  The ``invariants``
purity block is read straight off the state's subset-purity table
(``purity_dict``); pi_ME elsewhere is the float of
``average_balanced_purity``.
"""
from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import combinations
from typing import Any, Sequence

import numpy as np

from .decomposition import (
    AuditRow,
    DecompositionModel,
    FitDiagnostics,
    KReport,
    SUPPORTED_N,
    VerificationSummary,
    evaluate,
    printed_model,
)
from .pauli import n_tangle, weight_sums
from .purity import average_balanced_purity, balanced_purities, subset_purities
from .search import SearchResult
from .states import QState, make_psi_m8, state_document

REPORT_FORMAT = "mmeslab-report-v1"
ERRATA_RESIDUAL_TOL = 1e-8


def report_document(
    command: Sequence[str],
    inputs: dict[str, Any],
    results: dict[str, Any],
    errata_flags: Sequence[str] = (),
) -> dict[str, Any]:
    return {
        "format": REPORT_FORMAT,
        "command": list(command),
        "inputs": inputs,
        "results": results,
        "errata_flags": list(errata_flags),
    }


def _coeff(value: Fraction | float) -> Any:
    if isinstance(value, Fraction):
        return {"rational": [value.numerator, value.denominator], "value": float(value)}
    return {"rational": None, "value": float(value)}


def model_dict(model: DecompositionModel) -> dict[str, Any]:
    return {
        "n": model.n,
        "constant": _coeff(model.constant),
        "weight_coeffs": [_coeff(c) for c in model.weight_coeffs],
        "tau_coeff": _coeff(model.tau_coeff),
        "tau_offset": _coeff(model.tau_offset),
        "provenance": model.provenance,
    }


def k_report_dict(report: KReport) -> dict[str, Any]:
    return {
        "label": report.label,
        "n": report.n,
        "weight_sums": list(report.m),
        "n_tangle": report.tau,
        "k_model": report.k_model,
        "pi_me_oracle": report.pi_me_oracle,
        "residual_oracle_minus_model": report.residual,
        "provenance": report.provenance,
    }


def purity_dict(table: np.ndarray) -> dict[str, Any]:
    """The balanced-bipartition block of a ``subset_purities`` table: every
    subset of n // 2 qubits in lexicographic order with its purity, and
    pi_ME as their mean."""
    values = balanced_purities(table)
    n = table.size.bit_length() - 1
    return {
        "n": n,
        "n_a": n // 2,
        "bipartition_count": len(values),
        "pi_me_mean": float(np.mean(values)),
        "pi_a_min": float(values.min()),
        "pi_a_max": float(values.max()),
        "bipartitions": [
            {"part_a": list(s), "purity": p}
            for s, p in zip(combinations(range(1, n + 1), n // 2), values.tolist())
        ],
    }


def verification_dict(summary: VerificationSummary) -> dict[str, Any]:
    return {
        "n": summary.n,
        "tol": summary.tol,
        "max_abs_residual": summary.max_abs_residual,
        "passed": summary.passed,
        "states": [k_report_dict(r) for r in summary.reports],
    }


def fit_dict(model: DecompositionModel, diag: FitDiagnostics) -> dict[str, Any]:
    return {"model": model_dict(model), **dataclasses.asdict(diag)}


def audit_dict(rows: Sequence[AuditRow]) -> dict[str, Any]:
    return {
        "rows": [
            {
                "n": row.n,
                "constant": _coeff(row.constant),
                "required_tau_at_k_zero": row.required_tau,
            }
            for row in rows
        ]
    }


def search_dict(result: SearchResult) -> dict[str, Any]:
    return {
        "n": result.config.n,
        "restarts": result.config.restarts,
        "best_pi_me": result.best_value,
        "best_n_tangle": n_tangle(result.best_state),
        "restart_values": list(result.restart_values),
        "restart_iterations": list(result.restart_iterations),
        "restart_stops": list(result.restart_stops),
        "restart_grad_norms": list(result.restart_grad_norms),
        "wall_time_seconds": result.wall_time,
        "best_state": state_document(result.best_state),
    }


def invariants_results(
    state: QState,
    max_weight: int,
    with_purity: bool = True,
) -> tuple[dict[str, Any], list[str]]:
    """The result block of an invariants report plus any errata flags."""
    results: dict[str, Any] = {"n": state.n}
    errata: list[str] = []
    sums = weight_sums(state, max_weight, strategy="enumeration")
    results["weight_sums"] = {
        "k_max": sums.k_max,
        "m": list(sums.m),
        "strategy": sums.strategy,
    }
    if state.n % 2 == 0:
        results["n_tangle"] = n_tangle(state)
    # balanced bipartitions need two qubits, as the tangle needs even n
    if with_purity and state.n >= 2:
        purities = subset_purities(state)
        results["purity"] = purity_dict(purities)
    if with_purity and state.n in SUPPORTED_N:
        report = evaluate(printed_model(state.n), state, label="input", purities=purities)
        results["printed_model"] = k_report_dict(report)
        if abs(report.residual) > ERRATA_RESIDUAL_TOL:
            errata.append(
                f"printed n={state.n} model residual {report.residual!r} exceeds "
                f"{ERRATA_RESIDUAL_TOL}; published coefficients disagree with the "
                "purity oracle"
            )
    return results, errata


# Claimed invariant values for the published 8-qubit state: every F-sum of
# weight 1..3 vanishes and so does the 8-tangle.
PSI_M8_CLAIMS = {"M_1": 0.0, "M_2": 0.0, "M_3": 0.0, "tau_8": 0.0}
# A claim holds when the observed value is within this of the claimed one.
PSI_M8_CLAIM_TOL = 1e-9


def psi_m8_audit() -> dict[str, Any]:
    """Invariants of the as-printed 8-qubit state vs its published claims.

    Whether each claim holds is reported as data; the printed display is
    suspected to contain typos, so disagreement is informative, not an
    error.
    """
    state = make_psi_m8()
    sums = weight_sums(state, 3, strategy="enumeration")
    tau = n_tangle(state)
    observed = {"M_1": sums.m[0], "M_2": sums.m[1], "M_3": sums.m[2], "tau_8": tau}
    comparison = {
        key: {
            "claimed": PSI_M8_CLAIMS[key],
            "observed": float(observed[key]),
            "holds": bool(abs(observed[key] - PSI_M8_CLAIMS[key]) <= PSI_M8_CLAIM_TOL),
        }
        for key in PSI_M8_CLAIMS
    }
    return {
        "raw_norm": state.meta["raw_norm"],
        "weight_sums": list(sums.m),
        "n_tangle": tau,
        "pi_me": average_balanced_purity(state),
        "claim_tol": PSI_M8_CLAIM_TOL,
        "claims": comparison,
        "all_claims_hold": all(c["holds"] for c in comparison.values()),
    }


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, allow_nan=False)
