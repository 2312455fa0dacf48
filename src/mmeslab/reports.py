"""mmeslab-report-v1 documents: structured results the CLI prints and tests parse.

Floats pass through ``json`` untouched, so they serialize with Python's
shortest round-trip repr (up to 17 significant digits).
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Sequence

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
from .purity import PurityReport, average_balanced_purity, purity_report, subset_purities
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


def purity_dict(report: PurityReport) -> dict[str, Any]:
    return {
        "n": report.n,
        "n_a": report.n_a,
        "bipartition_count": report.count,
        "pi_me_mean": report.mean,
        "pi_a_min": report.min,
        "pi_a_max": report.max,
        "bipartitions": [
            {"part_a": list(s), "purity": p}
            for s, p in zip(report.subsets, report.purities)
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
    return {
        "model": model_dict(model),
        "samples": diag.samples,
        "holdout_samples": diag.holdout_samples,
        "features": list(diag.features),
        "raw_coefficients": list(diag.raw_coefficients),
        "singular_values": list(diag.singular_values),
        "rank": diag.rank,
        "null_space_dim": diag.null_space_dim,
        "training_max_residual": diag.training_max_residual,
        "holdout_max_residual": diag.holdout_max_residual,
        "holdout_max_residual_snapped": diag.holdout_max_residual_snapped,
        "snapped": diag.snapped,
    }


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
        "objective": result.config.objective,
        "best_pi_me": result.best_value,
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
    with_tangle: bool = True,
    with_purity: bool = True,
) -> tuple[dict[str, Any], list[str]]:
    """The result block of an invariants report plus any errata flags."""
    results: dict[str, Any] = {"n": state.n}
    errata: list[str] = []
    sums = weight_sums(state, max_weight, strategy="enumeration")
    results["weight_sums"] = {
        "k_max": max_weight,
        "m": list(sums.m),
        "strategy": sums.strategy,
    }
    if with_tangle and state.n % 2 == 0:
        results["n_tangle"] = n_tangle(state)
    # balanced bipartitions need two qubits, as the tangle needs even n
    if with_purity and state.n >= 2:
        purities = subset_purities(state)
        results["purity"] = purity_dict(purity_report(purities))
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
    purity = average_balanced_purity(state)
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
        "pi_me": purity.mean,
        "claim_tol": PSI_M8_CLAIM_TOL,
        "claims": comparison,
        "all_claims_hold": all(c["holds"] for c in comparison.values()),
    }


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, allow_nan=False)
