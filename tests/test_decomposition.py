from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab.decomposition import (
    ModelError,
    conjecture_audit,
    evaluate,
    exact_k,
    fit_coefficients,
    ghz_exact_weight_sums,
    known_errata,
    printed_model,
    product_exact_weight_sums,
    snap_rational,
    verify_identity,
)
from mmeslab.pauli import n_tangle, weight_sums
from mmeslab.states import make_basis_state, make_ghz, random_state


def test_printed_model_rationals():
    m2 = printed_model(2)
    assert (m2.constant, m2.tau_coeff, m2.tau_offset) == (
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
    )
    m4 = printed_model(4)
    assert m4.constant == Fraction(1, 3)
    assert m4.weight_coeffs == (Fraction(1, 6),)
    assert (m4.tau_coeff, m4.tau_offset) == (Fraction(1, 6), 0)
    m8 = printed_model(8)
    assert m8.constant == Fraction(6, 70)
    assert m8.weight_coeffs == (Fraction(11, 280), Fraction(1, 70), Fraction(1, 280))
    assert m8.tau_coeff == Fraction(1, 70)
    m10 = printed_model(10)
    assert m10.weight_coeffs == (
        Fraction(5, 252),
        Fraction(2, 252),
        Fraction(5, 2016),
        Fraction(2, 2016),
    )
    m12 = printed_model(12)
    assert m12.constant == Fraction(157, 7392)
    assert m12.weight_coeffs[-1] == Fraction(1, 14784)
    assert m12.tau_coeff == Fraction(1, 924)


def test_printed_model_unsupported():
    with pytest.raises(ModelError):
        printed_model(14)
    with pytest.raises(ModelError):
        printed_model(3)


@pytest.mark.parametrize(
    "n,label,expected_k",
    [
        (4, "product", Fraction(2, 3)),
        (4, "ghz", Fraction(1, 6)),
        (6, "product", Fraction(7, 8)),
        (6, "ghz", Fraction(3, 8)),
        (8, "product", Fraction(64, 70)),
        (8, "ghz", Fraction(29, 70)),
        (12, "ghz", Fraction(3539, 7392)),
        (12, "product", Fraction(7235, 7392)),
    ],
)
def test_evaluate_canonical(n, label, expected_k):
    state = make_ghz(n) if label == "ghz" else make_basis_state(n, 0)
    report = evaluate(printed_model(n), state, label)
    assert report.k_model == pytest.approx(float(expected_k), abs=1e-10)
    assert report.residual == pytest.approx(0.0, abs=1e-10)


def test_ghz10_errata_residual():
    report = evaluate(printed_model(10), make_ghz(10), "ghz")
    expected = float(Fraction(155, 336) - Fraction(570, 1008))
    assert report.residual == pytest.approx(expected, abs=1e-9)
    assert report.residual == pytest.approx(-0.1041666667, abs=1e-9)


def test_evaluate_enumeration_at_n12():
    # Pauli-side check of the weight-5 model, independent of the purity table
    state = random_state(12, 1212)
    enum = evaluate(printed_model(12), state, strategy="enumeration")
    assert abs(enum.residual) <= 1e-9
    table = evaluate(printed_model(12), state)
    assert enum.m == pytest.approx(table.m, abs=1e-8)


def test_verify_identity_pass_and_fail():
    assert verify_identity(4, samples=20, seed=1, tol=1e-9).passed
    assert verify_identity(2, samples=20, seed=2, tol=1e-10).passed
    summary = verify_identity(10, samples=5, seed=3, tol=1e-9, strategy="moebius")
    assert not summary.passed
    assert summary.max_abs_residual >= 0.05


def test_verify_identity_needs_samples():
    with pytest.raises(ModelError):
        verify_identity(4, samples=0, seed=0, tol=1e-9)


def test_fit_recovers_n4_model():
    model, diag = fit_coefficients(4, samples=40, seed=5)
    assert diag.holdout_max_residual <= 1e-9
    assert diag.rank == 3
    assert model.constant == Fraction(1, 3)
    assert model.provenance == "fitted"
    assert diag.snapped
    # fitted prediction agrees with the oracle on fresh states
    for seed in (101, 102):
        rep = evaluate(model, random_state(4, seed))
        assert rep.residual == pytest.approx(0.0, abs=1e-9)


def test_fit_rejects_underdetermined():
    with pytest.raises(ModelError):
        fit_coefficients(4, samples=5, seed=0)


def test_snap_rational():
    assert snap_rational(0.3333333333333333) == Fraction(1, 3)
    assert snap_rational(float(Fraction(155, 336))) == Fraction(155, 336)


def test_exact_weight_sum_helpers():
    assert product_exact_weight_sums(4, 4) == (4, 6, 4, 1)
    assert ghz_exact_weight_sums(10, 4) == (0, 45, 0, 210)
    with pytest.raises(ModelError):
        ghz_exact_weight_sums(4, 4)


def test_exact_k_matches_float_eval():
    model = printed_model(8)
    k = exact_k(model, ghz_exact_weight_sums(8, 3), Fraction(1))
    assert k == Fraction(29, 70)


def test_conjecture_audit_rows():
    rows = {row.n: row for row in conjecture_audit()}
    assert rows[4].required_tau == 0
    assert rows[10].required_tau == 1
    assert rows[10].floor == Fraction(13, 336)
    assert Fraction(1, 32) < rows[10].floor < Fraction(1, 16)
    assert rows[12].required_tau == 0
    assert rows[12].floor == Fraction(157, 7392)
    assert rows[2].required_tau == 1
    assert rows[6].required_tau == 1
    assert rows[8].required_tau == 0


def test_known_errata_flags():
    flags = known_errata()
    assert len(flags) == 2
    assert any("n=10" in f for f in flags)
    assert any("copy error" in f for f in flags)


@given(seed=st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_n4_feature_relation(seed):
    # M_2 = 2 + M_1 + 4 * tau_4 on every pure 4-qubit state
    state = random_state(4, seed)
    m = weight_sums(state, 2).m
    assert m[1] == pytest.approx(2 + m[0] + 4 * n_tangle(state), abs=1e-9)


@given(seed=st.integers(0, 2**32), n=st.sampled_from([2, 4, 6, 8]))
@settings(max_examples=10, deadline=None)
def test_k_nonnegative_for_verified_models(seed, n):
    report = evaluate(printed_model(n), random_state(n, seed))
    assert report.k_model >= -1e-9
