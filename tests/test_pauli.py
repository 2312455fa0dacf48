import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab.pauli import (
    PauliError,
    PauliString,
    _f_invariant_batched,
    expectation,
    f_invariant,
    n_tangle,
    weight_sums,
)
from mmeslab.states import (
    apply_local_unitaries,
    make_basis_state,
    make_ghz,
    make_w,
    permute_qubits,
    random_state,
)


def test_pauli_string_validation():
    PauliString(4, {1: "x", 3: "z"})
    with pytest.raises(PauliError):
        PauliString(4, {5: "x"})
    with pytest.raises(PauliError):
        PauliString(4, {1: "q"})


def test_expectation_z_on_basis():
    assert expectation(make_basis_state(1, 0), PauliString(1, {1: "z"})) == 1.0
    assert expectation(make_basis_state(1, 1), PauliString(1, {1: "z"})) == -1.0


def test_expectation_ghz4_zz():
    assert expectation(make_ghz(4), PauliString(4, {1: "z", 2: "z"})) == pytest.approx(
        1.0, abs=1e-12
    )


def test_expectation_w4_xx():
    w4 = make_w(4)
    for pair in [(1, 2), (2, 4), (3, 4)]:
        val = expectation(w4, PauliString(4, {pair[0]: "x", pair[1]: "x"}))
        assert val == pytest.approx(0.5, abs=1e-12)


def test_expectation_mismatched_n():
    with pytest.raises(PauliError):
        expectation(make_ghz(2), PauliString(3, {1: "x"}))


def test_expectation_against_dense_matrices():
    # independent oracle: build the dense operator by Kronecker products
    mats = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    rng = np.random.default_rng(3)
    state = random_state(3, 9)
    for _ in range(20):
        letters = {
            int(pos): rng.choice(["x", "y", "z"])
            for pos in rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False)
        }
        op = np.eye(1)
        for pos in range(1, 4):
            op = np.kron(op, mats[letters[pos]] if pos in letters else np.eye(2))
        dense = np.real(state.amplitudes.conj() @ op @ state.amplitudes)
        fast = expectation(state, PauliString(3, letters))
        assert fast == pytest.approx(float(dense), abs=1e-12)


def test_f_invariant_examples():
    assert f_invariant(make_basis_state(4, 0), {1}) == pytest.approx(1.0, abs=1e-12)
    assert f_invariant(make_ghz(6), {1, 2}) == pytest.approx(1.0, abs=1e-12)
    assert f_invariant(make_w(4), {1}) == pytest.approx(0.25, abs=1e-12)
    assert f_invariant(make_ghz(8), {1, 2, 3}) == pytest.approx(0.0, abs=1e-12)


def test_f_invariant_rejects_bad_subset():
    with pytest.raises(PauliError):
        f_invariant(make_ghz(4), set())
    with pytest.raises(PauliError):
        f_invariant(make_ghz(4), {0})


def test_f_invariant_batched_matches_naive():
    state = random_state(6, 21)
    for subset in [(1,), (4,), (2, 5), (1, 3, 6), (2, 3, 4, 5)]:
        naive = f_invariant(state, subset)
        fast = _f_invariant_batched(state, subset)
        assert fast == pytest.approx(naive, abs=1e-10)


def test_weight_sums_product():
    m = weight_sums(make_basis_state(4, 0), 4).m
    assert m == pytest.approx([4, 6, 4, 1], abs=1e-12)


def test_weight_sums_ghz4():
    m = weight_sums(make_ghz(4), 4).m
    assert m == pytest.approx([0, 6, 0, 9], abs=1e-12)


def test_weight_sums_ghz10_partial():
    m = weight_sums(make_ghz(10), 4).m
    assert m == pytest.approx([0, 45, 0, 210], abs=1e-9)


def test_weight_sums_k_range():
    with pytest.raises(PauliError):
        weight_sums(make_ghz(4), 0)
    with pytest.raises(PauliError):
        weight_sums(make_ghz(4), 5)
    with pytest.raises(PauliError):
        weight_sums(make_ghz(4), 2, strategy="magic")


@given(seed=st.integers(0, 2**32), n=st.sampled_from([2, 4, 6]))
@settings(max_examples=15, deadline=None)
def test_global_normalization_identity(seed, n):
    state = random_state(n, seed)
    total = sum(weight_sums(state, n).m)
    assert total == pytest.approx(2**n - 1, abs=1e-9)


@given(seed=st.integers(0, 2**32), n=st.sampled_from([4, 6, 8]))
@settings(max_examples=10, deadline=None)
def test_strategy_agreement(seed, n):
    state = random_state(n, seed)
    k_max = min(4, n)
    enum = weight_sums(state, k_max, "enumeration").m
    moeb = weight_sums(state, k_max, "moebius").m
    assert enum == pytest.approx(moeb, abs=1e-8)


def test_n_tangle_examples():
    assert n_tangle(make_ghz(2)) == pytest.approx(1.0, abs=1e-12)
    assert n_tangle(make_basis_state(4, 0)) == pytest.approx(0.0, abs=1e-12)
    assert n_tangle(make_ghz(6)) == pytest.approx(1.0, abs=1e-12)
    assert n_tangle(make_w(4)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_spin_flip_identity(n):
    # tau_n = 2^-n * sum_k (-1)^k M_k with M_0 = 1 (shadow enumerator): ties
    # the n-tangle kernel to the purity-table weight sums
    for state in (
        make_basis_state(n, 0),
        make_ghz(n),
        make_w(n),
        random_state(n, 500 + n),
    ):
        m = (1.0, *weight_sums(state, n, "moebius").m)
        shadow = sum((-1) ** k * mk for k, mk in enumerate(m)) / 2**n
        assert n_tangle(state) == pytest.approx(shadow, abs=1e-10)


def test_n_tangle_rejects_odd_n():
    with pytest.raises(Exception):
        n_tangle(make_ghz(3))


@given(seed=st.integers(0, 2**32), n=st.sampled_from([2, 4, 6]))
@settings(max_examples=15, deadline=None)
def test_ranges(seed, n):
    state = random_state(n, seed)
    assert 0.0 <= n_tangle(state) <= 1.0 + 1e-12
    for q in range(1, n + 1):
        assert -1e-12 <= f_invariant(state, {q}) <= 1.0 + 1e-12


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        state = random_state(n, 31 + n)
        rotated = apply_local_unitaries(state, [_haar_unitary(rng) for _ in range(n)])
        assert weight_sums(rotated, n).m == pytest.approx(
            weight_sums(state, n).m, abs=1e-9
        )
        assert n_tangle(rotated) == pytest.approx(n_tangle(state), abs=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    for n in (4, 6):
        state = random_state(n, 57 + n)
        perm = list(rng.permutation(n) + 1)
        shuffled = permute_qubits(state, perm)
        assert weight_sums(shuffled, n).m == pytest.approx(
            weight_sums(state, n).m, abs=1e-12
        )
        assert n_tangle(shuffled) == pytest.approx(n_tangle(state), abs=1e-12)
