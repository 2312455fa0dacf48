"""Tests of the benchmark itself: gates, computed counts, and refusal to run
outside a checkout.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (
    "pauli.strings_enumerated",
    "purity.reduced_purity_calls",
    "states.bytes_written",
    "states.bytes_read",
    "reports.report_bytes",
)


@pytest.fixture(scope="module")
def ml():
    return run.import_checkout(ROOT)


def make(ml, name, seed, tmp_path):
    if name == "cli-io-n12":
        return workloads.CliIoN12(ml, seed, workdir=str(tmp_path))
    return workloads.WORKLOADS[name](ml, seed)


def traced_counts(ml, workload, ops):
    modules = {name: getattr(ml, name) for name in ("decomposition", "reports", "purity", "search", "cli")}
    with spans.Tracer() as tracer:
        tracer.install(modules)
        durations, errors, _ = run.measure(workload, seconds=float("inf"), tracer=tracer, max_ops=ops)
    metrics, _ = tracer.summary(len(durations))
    return {name: metrics[name] for name in COUNTS}, errors


@pytest.mark.parametrize(
    "name, ops, expected",
    [
        ("identity-n12", 1, {"pauli.strings_enumerated": 239121, "purity.reduced_purity_calls": 924}),
        ("fit-n10", 1, {"pauli.strings_enumerated": 0, "purity.reduced_purity_calls": 100 * 637}),
        ("search-n6", 2, {"pauli.strings_enumerated": 0, "purity.reduced_purity_calls": 20}),
        ("cli-io-n12", 8, {"pauli.strings_enumerated": 36 + 594, "purity.reduced_purity_calls": 0}),
    ],
)
def test_computed_counts_repeat_exactly_for_a_fixed_seed(ml, tmp_path, name, ops, expected):
    first, errors = traced_counts(ml, make(ml, name, 5, tmp_path), ops)
    second, _ = traced_counts(ml, make(ml, name, 5, tmp_path), ops)
    assert errors == [None] * ops
    assert first == second
    for key, value in expected.items():
        assert first[key] == value


def test_perturbed_model_coefficient_fails_identity_ops(ml):
    printed = ml.decomposition.printed_model(12)
    perturbed = ml.decomposition.DecompositionModel(
        n=12,
        constant=printed.constant,
        # Weight 2, because M_2 is nonzero on every state the workload uses.
        weight_coeffs=(
            printed.weight_coeffs[0],
            printed.weight_coeffs[1] + Fraction(1, 7392),
            *printed.weight_coeffs[2:],
        ),
        tau_coeff=printed.tau_coeff,
        tau_offset=printed.tau_offset,
        provenance="perturbed",
    )
    workload = workloads.IdentityN12(ml, 5, model=perturbed)
    _, errors, _ = run.measure(workload, seconds=float("inf"), max_ops=2)
    assert len(errors) == 2 and all(error and "residual" in error for error in errors)


def test_tracer_restores_wrapped_functions(ml):
    before = ml.reports.dumps
    modules = {name: getattr(ml, name) for name in ("decomposition", "reports", "purity", "search", "cli")}
    with spans.Tracer() as tracer:
        tracer.install(modules)
        assert ml.reports.dumps is not before
    assert ml.reports.dumps is before


def test_refuses_to_run_without_the_checkout_source(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "fit-n10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/mmeslab" in done.stderr


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
