import re
from dataclasses import replace
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab import decomposition, reports, search
from mmeslab.decomposition import (
    ModelError,
    conjecture_audit,
    derived_model,
    evaluate,
    exact_k,
    fit_coefficients,
    known_errata,
    printed_model,
    snap_rational,
    verify_identity,
)
from mmeslab.pauli import n_tangle, weight_sums
from mmeslab.purity import subset_purities
from mmeslab.search import SearchConfig, SearchError, gradient_check
from mmeslab.states import StateError, make_basis_state, make_ghz, random_state



def ghz_means(n):
    """Exact mean purity per subset size 1..n/2: every proper marginal of GHZ is 1/2."""
    return (Fraction(1, 2),) * (n // 2)


def product_means(n):
    return (Fraction(1),) * (n // 2)


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


def test_size_weights_of_printed_models():
    # a correct table is pi_ME itself: the single weight lambda_{n/2} = 1
    for n in (2, 4, 6, 8, 12):
        assert printed_model(n).size_weights() == (0,) * (n // 2) + (1,)
    # the n=10 weight-4 erratum (2/2016 printed, 1/2016 correct) leaks into
    # every smaller size
    assert printed_model(10).size_weights() == (
        Fraction(5, 48),
        Fraction(-5, 6),
        Fraction(5, 2),
        Fraction(-10, 3),
        Fraction(5, 3),
        Fraction(1),
    )


@pytest.mark.parametrize("n", decomposition.SUPPORTED_N)
def test_size_weights_are_c_plus_k_on_states(n):
    # C + K = lambda_0 + sum_m lambda_m * mean_{|A|=m} P(A), the size-m means
    # read off the subset-purity table; n=10 is the one model with weight at
    # every size
    model = printed_model(n)
    const, *weights = (float(w) for w in model.size_weights())
    sizes = np.bitwise_count(np.arange(1 << n))
    for seed in (1, 2):
        state = random_state(n, 300 + 10 * n + seed)
        table = subset_purities(state)
        value = const + sum(
            weight * table[sizes == m].mean() for m, weight in enumerate(weights, start=1)
        )
        report = evaluate(model, state)
        assert value == pytest.approx(report.pi_me_oracle - report.residual, abs=1e-12)
        if n == 8:
            # independent Pauli-side value of C + K
            m = weight_sums(state, n // 2 - 1, "enumeration").m
            assert value == pytest.approx(model.predict(m, n_tangle(state)), abs=1e-12)


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
    model = printed_model(12)
    m = weight_sums(state, 5, "enumeration").m
    report = evaluate(model, state)
    assert abs(report.pi_me_oracle - model.predict(m, n_tangle(state))) <= 1e-9
    assert m == pytest.approx(report.m, abs=1e-8)


def test_evaluate_rejects_a_purity_table_of_another_size():
    # a 6-qubit table would otherwise be read as the 4-qubit state's
    table = subset_purities(random_state(6, 2))
    with pytest.raises(ModelError, match="purity table"):
        evaluate(printed_model(4), random_state(4, 1), purities=table)


def test_verify_identity_pass_and_fail():
    assert verify_identity(4, samples=20, seed=1, tol=1e-9).passed
    assert verify_identity(2, samples=20, seed=2, tol=1e-10).passed
    summary = verify_identity(10, samples=5, seed=3, tol=1e-9)
    assert not summary.passed
    assert summary.max_abs_residual >= 0.05


def test_verify_identity_needs_samples():
    with pytest.raises(ModelError):
        verify_identity(4, samples=0, seed=0, tol=1e-9)


@pytest.mark.parametrize("tol", [True, False, "1e-9", None, np.int64(1), 1j, -1e-9, inf, nan])
def test_verify_identity_refuses_a_tol_that_is_not_a_finite_number(tol):
    # as a tolerance of 1, True would pass the n = 10 erratum table (max
    # residual ~0.1)
    with pytest.raises(ModelError, match="tol must be"):
        verify_identity(10, 1, 0, tol)


@pytest.mark.parametrize("tol", [0, 1, 1e-9, np.float64(1e-9)])
def test_verify_identity_takes_int_and_float_tols(tol):
    assert verify_identity(4, 1, 0, tol).tol == tol


@pytest.mark.parametrize("samples", [True, 2.5, 3.0, np.float32(3.0), "3"])
def test_verify_identity_refuses_samples_that_are_not_ints(samples):
    with pytest.raises(ModelError, match="^samples .* is not an int"):
        verify_identity(4, samples, 0, 1e-9)


@pytest.mark.parametrize("samples", [True, 24.0, 24.5, np.float32(24.0), "24"])
def test_fit_refuses_samples_that_are_not_ints(samples, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a state was drawn before the arguments were checked")

    monkeypatch.setattr(decomposition, "random_state", no_draw)
    with pytest.raises(ModelError, match="^samples .* is not an int"):
        fit_coefficients(4, samples, 0)


def test_numpy_int_samples_are_kept_as_ints():
    summary = verify_identity(4, np.int64(2), 0, 1e-9)
    assert [r.label for r in summary.reports][-2:] == ["random[0]", "random[1]"]
    _, diag = fit_coefficients(4, np.int64(24), 0, holdout_samples=np.uint8(2))
    assert (diag.samples, diag.holdout_samples) == (24, 2)
    assert type(diag.samples) is int and type(diag.holdout_samples) is int


def test_no_numpy_int_reaches_a_report():
    n = np.int64(4)
    documents = [
        reports.model_dict(derived_model(n)),
        reports.fit_dict(*fit_coefficients(n, 24, 0))["model"],
        reports.verification_dict(verify_identity(n, 1, 0, 1e-9)),
        reports.invariants_results(make_ghz(4), np.int64(2), with_purity=False)[0],
    ]
    for doc in documents:
        text = reports.dumps(doc)
        assert '"n": 4,' in text and doc["n"] == 4 and type(doc["n"]) is int
    assert documents[-1]["weight_sums"]["k_max"] == 2


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


@pytest.mark.parametrize("holdout", [0, -3, 2.0, True])
def test_fit_rejects_holdout_samples_below_one(holdout, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a state was drawn before the arguments were checked")

    monkeypatch.setattr(decomposition, "random_state", no_draw)
    with pytest.raises(ModelError, match="holdout_samples"):
        fit_coefficients(4, 24, 0, holdout_samples=holdout)


def test_fit_refuses_n14_only_for_its_sample_count(monkeypatch):
    # no printed table exists at n = 14; the fit reads none, so the only
    # refusal left is the sample count, before any state is drawn
    def no_draw(*args):
        raise AssertionError("a state was drawn before the arguments were checked")

    monkeypatch.setattr(decomposition, "random_state", no_draw)
    with pytest.raises(ModelError, match=r"^samples 3 is not an int >= 36$"):
        fit_coefficients(14, samples=3, seed=0)


def test_fit_reads_no_printed_table(monkeypatch):
    expected = fit_coefficients(8, 24, 0)
    without_8 = {n: m for n, m in decomposition._PRINTED.items() if n != 8}
    monkeypatch.setattr(decomposition, "_PRINTED", without_8)
    monkeypatch.setattr(decomposition, "SUPPORTED_N", tuple(without_8))
    with pytest.raises(ModelError, match="n=8"):
        printed_model(8)
    assert fit_coefficients(8, 24, 0) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_equals_per_state_table_reference(seed, monkeypatch):
    # 40 + 13 states at n = 8: one full chunk of 32 and two partial ones
    batched = fit_coefficients(8, 40, seed, holdout_samples=13)
    monkeypatch.setattr(
        decomposition,
        "subset_purity_tables",
        lambda states: ((state, subset_purities(state)) for state in states),
    )
    assert fit_coefficients(8, 40, seed, holdout_samples=13) == batched


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_identity_equals_per_state_evaluate(seed):
    summary = verify_identity(8, 20, seed, 1e-9)
    labelled = decomposition.canonical_states(8)
    labelled += [(f"random[{i}]", random_state(8, seed, i + 1)) for i in range(20)]
    reference = []
    for label, state in labelled:
        table = subset_purities(state)
        reference.append(evaluate(printed_model(8), state, label, purities=table))
    assert summary.reports == tuple(reference)
    assert summary.max_abs_residual == max(abs(r.residual) for r in reference)
    assert summary.passed


def test_fit_and_verify_seed_range():
    # the held-out streams of the largest seed still form valid keys
    _, diag = fit_coefficients(4, samples=24, seed=2**64 - 1, holdout_samples=2)
    assert diag.holdout_max_residual <= 1e-9
    with pytest.raises(ModelError, match="seed -1 "):
        verify_identity(4, samples=1, seed=-1, tol=1e-9)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0])
@pytest.mark.parametrize(
    "call",
    [lambda seed: verify_identity(12, 1, seed, 1e-9), lambda seed: fit_coefficients(10, 60, seed)],
    ids=["verify_identity", "fit_coefficients"],
)
def test_fit_and_verify_check_the_seed_before_any_table(seed, call, monkeypatch):
    def no_tables(states):
        raise AssertionError("a subset-purity table was built before the seed was checked")

    monkeypatch.setattr(decomposition, "subset_purity_tables", no_tables)
    with pytest.raises(ModelError, match=f"^seed {seed!r} is not an int in \\[0, {2**64 - 1}\\]$"):
        call(seed)


def test_snap_rational():
    assert snap_rational(0.3333333333333333) == Fraction(1, 3)
    assert snap_rational(float(Fraction(155, 336))) == Fraction(155, 336)


def test_exact_k_matches_float_eval():
    model = printed_model(8)
    assert exact_k(model, ghz_means(8)) == Fraction(29, 70)
    assert exact_k(model, product_means(8)) == Fraction(64, 70)


def test_exact_k_rejects_bad_operands():
    with pytest.raises(ModelError, match="mean purities"):
        exact_k(printed_model(8), ghz_means(6))
    floats = replace(printed_model(4), tau_coeff=1 / 6)
    with pytest.raises(ModelError, match="rational"):
        exact_k(floats, ghz_means(4))


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_derived_model_is_pi_me(n):
    model = derived_model(n)
    assert model.size_weights() == (0,) * (n // 2) + (1,)
    assert model.provenance == "derived"
    assert all(isinstance(c, Fraction) for c in model.coefficients())


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_derived_model_reproduces_printed_tables(n):
    assert derived_model(n) == replace(printed_model(n), provenance="derived")


def test_derived_model_n10_differs_only_in_w4():
    derived, printed = derived_model(10), printed_model(10)
    assert derived.weight_coeffs[3] == Fraction(1, 2016)
    assert printed.weight_coeffs[3] == Fraction(1, 1008)
    fixed = replace(printed, weight_coeffs=derived.weight_coeffs, provenance="derived")
    assert derived == fixed
    assert exact_k(derived, ghz_means(10)) == Fraction(155, 336)
    assert exact_k(derived, product_means(10)) == Fraction(323, 336)


def test_derived_model_n14():
    model = derived_model(14)
    assert model.constant == Fraction(29, 2816)
    assert model.tau_coeff == Fraction(-1, 3432)
    assert model.tau_offset == -model.tau_coeff
    assert abs(evaluate(model, random_state(14, 1414)).residual) <= 1e-12


@pytest.mark.parametrize("n", [0, 3, -2])
def test_derived_model_rejects_odd_or_small_n(n):
    with pytest.raises(ModelError):
        derived_model(n)


def _model_of(n):
    return decomposition.DecompositionModel(n, 0, (0,), 0, 0, "fitted")


@pytest.mark.parametrize("make", [derived_model, printed_model, _model_of])
@pytest.mark.parametrize("n", [4.0, np.float64(4), "4", True])
def test_models_refuse_an_n_that_is_not_an_int(make, n):
    make(4)  # an equal int already cached must not answer for the float
    with pytest.raises(ModelError, match=re.escape(repr(n))):
        make(n)


@pytest.mark.parametrize("make", [derived_model, printed_model, _model_of])
def test_models_take_a_numpy_int_n(make):
    assert make(np.int64(4)) == make(4)
    assert make(np.int64(4)).size_weights() == make(4).size_weights()


def test_derived_model_keeps_one_model_per_n():
    assert derived_model(4) is derived_model(np.int64(4)) is derived_model(np.uint8(4))


def _fitted_n(n, monkeypatch):
    model, _ = fit_coefficients(n, 4 * (int(n) // 2 + 2), seed=0, holdout_samples=1)
    return model.n


def _gradient_check_n(n, monkeypatch):
    seen = []

    def spy(n, seed):
        seen.append(n)
        return random_state(n, seed)

    monkeypatch.setattr(search, "random_state", spy)
    gradient_check(n, seed=0)
    return seen[0]


def _tangle_n(n, monkeypatch):
    state = make_ghz(n)
    assert n_tangle(state) == pytest.approx(1.0, abs=1e-12)
    return state.n


# Every entry point defined for even n only, its error class, and the n it
# keeps; each checks n through states.check_even.
EVEN_N_ENTRY_POINTS = {
    "DecompositionModel": (ModelError, lambda n, _: _model_of(n).n),
    "printed_model": (ModelError, lambda n, _: printed_model(n).n),
    "derived_model": (ModelError, lambda n, _: derived_model(n).n),
    "fit_coefficients": (ModelError, _fitted_n),
    "SearchConfig": (SearchError, lambda n, _: SearchConfig(n).n),
    "gradient_check": (SearchError, _gradient_check_n),
    "n_tangle": (StateError, _tangle_n),
}


@pytest.mark.parametrize("entry", EVEN_N_ENTRY_POINTS)
def test_every_even_n_entry_point_refuses_an_odd_n_and_keeps_an_int(monkeypatch, entry):
    error, checked_n = EVEN_N_ENTRY_POINTS[entry]
    for odd in (3, np.int64(5)):
        with pytest.raises(error, match=rf"^n {int(odd)} is not even$"):
            checked_n(odd, monkeypatch)
    n = checked_n(np.uint8(4), monkeypatch)
    assert type(n) is int and n == 4


def test_conjecture_audit_rows():
    rows = {row.n: row for row in conjecture_audit()}
    assert rows[4].required_tau == 0
    assert rows[10].required_tau == 1
    assert rows[10].constant == Fraction(13, 336)
    assert Fraction(1, 32) < rows[10].constant < Fraction(1, 16)
    assert rows[12].required_tau == 0
    assert rows[12].constant == Fraction(157, 7392)
    assert rows[2].required_tau == 1
    assert rows[6].required_tau == 1
    assert rows[8].required_tau == 0


def test_known_errata_flags():
    flags = known_errata()
    assert len(flags) == 2
    assert any("n=10" in f for f in flags)
    assert any("copy error" in f for f in flags)


def test_known_errata_names_the_n10_weight4_coefficient():
    (n10,) = [f for f in known_errata() if f.startswith("n=10")]
    assert "weight-4" in n10 and "1/1008" in n10 and "1/2016" in n10


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
