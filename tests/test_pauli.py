from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab import pauli
from mmeslab.pauli import (
    PauliError,
    PauliString,
    expectation,
    f_invariant,
    moebius_weight_sums,
    n_tangle,
    size_to_weight,
    weight_sums,
)
from mmeslab.purity import reduced_purity, subset_purities
from mmeslab.states import (
    StateError,
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


@pytest.mark.parametrize("pos", [1.5, 2.0, True])
def test_qubit_positions_must_be_ints(pos):
    # a float position raised a bare TypeError from a shift or a transpose,
    # and True passed as qubit 1
    ghz = make_ghz(4)
    with pytest.raises(PauliError, match="^position "):
        PauliString(4, {pos: "x"})
    with pytest.raises(PauliError, match="^position "):
        f_invariant(ghz, [pos])
    with pytest.raises(StateError, match="^position "):
        reduced_purity(ghz, [pos])
    with pytest.raises(StateError, match="^position "):
        permute_qubits(make_ghz(2), (pos, 1))


@pytest.mark.parametrize("n", [2.0, True])
def test_pauli_string_n_must_be_an_int(n):
    with pytest.raises(PauliError, match="^n "):
        PauliString(n, {1: "x"})


def test_pauli_string_keeps_numpy_ints_as_ints():
    p = PauliString(np.int64(2), {np.uint8(1): "x"})
    assert type(p.n) is int and [type(pos) for pos in p.letters] == [int]
    assert p.masks() == (2, 0, 0)


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


def _reference_states(n):
    return (make_basis_state(n, 0), make_ghz(n), make_w(n), random_state(n, 21))


@lru_cache(maxsize=None)
def _f_invariant_sums(n):
    """Per reference state, M_1..M_n summed from ``f_invariant`` string by string."""
    return tuple(
        tuple(
            sum(f_invariant(state, subset) for subset in combinations(range(1, n + 1), k))
            for k in range(1, n + 1)
        )
        for state in _reference_states(n)
    )


@pytest.mark.parametrize(
    "one_flip_blocks", [False, True], ids=["default-blocks", "one-flip-blocks"]
)
@pytest.mark.parametrize(
    "n, k_max", [(n, k) for n in (4, 5, 6) for k in range(1, n + 1)]
)
def test_enumeration_matches_f_invariant_reference(monkeypatch, n, k_max, one_flip_blocks):
    # the one-transform kernel against the per-string reference, weight by
    # weight; at n = 5 the hi and lo halves of the index differ in size.
    # Default blocks hold a whole flip group at these n; blocks of one flip
    # mask split every group into one transform per flip mask.
    if one_flip_blocks:
        monkeypatch.setattr(pauli, "_BLOCK_AMPS", 1)
    for state, reference in zip(_reference_states(n), _f_invariant_sums(n)):
        m = weight_sums(state, k_max, "enumeration").m
        assert m == pytest.approx(reference[:k_max], abs=1e-10)


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_groups_form_every_reachable_string_once(n):
    for k_max in range(1, n + 1):
        formed = set()
        grouped = []
        for group in pauli._flip_groups(n, k_max):
            grouped += group.flips.tolist()
            rows, cols = group.rows.tolist(), group.cols.tolist()
            for f, i, j in zip(
                group.flips.tolist(), group.hi_part.tolist(), group.lo_part.tolist()
            ):
                pairs = {(f, (r << n // 2) | c) for r in rows[i] for c in cols[j]}
                assert len(pairs) == len(rows[i]) * len(cols[j]) and not pairs & formed
                formed |= pairs
        reachable = {
            (f, z)
            for f in range(1 << n)
            for z in range(1 << n)
            if (f | z).bit_count() <= k_max
        }
        assert reachable <= formed
        # every flip mask of popcount <= k_max sits in exactly one group
        flips = [f for f in range(1 << n) if f.bit_count() <= k_max]
        assert sorted(grouped) == flips


def test_flip_groups_do_not_depend_on_the_block_size(monkeypatch):
    # at n = 12, k = 4 (the CLI default weight) the lightest group keeps
    # 57 x 57 of the 64 x 64 phase masks; groups are cached on (n, k_max) alone
    groups = pauli._flip_groups(12, 4)
    state = random_state(12, 1204)
    default = weight_sums(state, 4).m
    monkeypatch.setattr(pauli, "_BLOCK_AMPS", 1)
    assert pauli._flip_groups(12, 4) is groups
    assert weight_sums(state, 4).m == pytest.approx(default, abs=1e-12)


def test_flip_groups_at_n12_form_1756_strings_for_weight_2():
    groups = pauli._flip_groups(12, 2)
    formed = sum(g.rows.shape[1] * g.cols.shape[1] * g.flips.size for g in groups)
    assert formed == 1756


def test_enumeration_matches_moebius_at_n13():
    # odd n beyond the reference: halves of 7 and 6 bits
    state = random_state(13, 1313)
    moebius = weight_sums(state, 3, "moebius").m
    for k_max in (1, 2, 3):
        assert weight_sums(state, k_max, "enumeration").m == pytest.approx(
            moebius[:k_max], abs=1e-9
        )


def test_hermitian_residue_guard(monkeypatch):
    monkeypatch.setattr(pauli, "IMAG_TOL", -1.0)
    with pytest.raises(PauliError, match="non-Hermitian"):
        weight_sums(random_state(13, 3), 1, "enumeration")
    with pytest.raises(PauliError, match="non-Hermitian"):
        expectation(random_state(4, 3), PauliString(4, {1: "x", 2: "y"}))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
def test_size_to_weight_inverts_the_size_sums_of_the_weight_sums(n):
    # 2^m * S_m = sum_{k<=m} C(n-k, m-k) * M_k, exactly
    t = size_to_weight(n)
    assert t.dtype == np.int64 and not t.flags.writeable
    forward = [
        [Fraction(comb(n - k, m - k), 2**m) if k <= m else 0 for k in range(n + 1)]
        for m in range(n + 1)
    ]
    product = [
        [sum(int(t[k, m]) * forward[m][j] for m in range(n + 1)) for j in range(n + 1)]
        for k in range(n + 1)
    ]
    assert product == [[int(k == j) for j in range(n + 1)] for k in range(n + 1)]


@pytest.mark.parametrize("size", [48, 3, 1])
def test_moebius_weight_sums_rejects_a_table_not_of_2_to_the_n(size):
    with pytest.raises(PauliError, match="2\\^n entries"):
        moebius_weight_sums(np.ones(size), 1)


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


@pytest.mark.parametrize("k_max", [True, False, 2.5, 2.0, np.float64(2.0), "2", None])
def test_k_max_must_be_an_int(k_max):
    # True once passed 1 <= k_max <= n and returned one M_k; a float raised
    # a bare TypeError from range or a slice
    state = make_ghz(4)
    for strategy in ("enumeration", "moebius"):
        with pytest.raises(PauliError, match="^k_max .* is not an int"):
            weight_sums(state, k_max, strategy)
    with pytest.raises(PauliError, match="^k_max .* is not an int"):
        moebius_weight_sums(subset_purities(state), k_max)


@pytest.mark.parametrize("k_max", [2, np.int64(2), np.uint8(2)])
def test_k_max_accepts_numpy_ints(k_max):
    state = random_state(4, 3)
    want = weight_sums(state, 2).m
    assert weight_sums(state, k_max).m == want
    assert weight_sums(state, k_max, "moebius").m == pytest.approx(want, abs=1e-12)
    assert moebius_weight_sums(subset_purities(state), k_max) == weight_sums(state, 2, "moebius").m


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


@pytest.mark.parametrize(
    "n, strategy",
    [pytest.param(n, "moebius", id=str(n)) for n in (2, 4, 6, 8, 10, 12)]
    + [pytest.param(n, "enumeration", id=f"{n}-enumeration") for n in (2, 4, 6, 8, 10)],
)
def test_spin_flip_identity(n, strategy):
    # tau_n = 2^-n * sum_k (-1)^k M_k with M_0 = 1 (shadow enumerator): ties
    # the n-tangle kernel to the weight sums of either strategy
    for state in (
        make_basis_state(n, 0),
        make_ghz(n),
        make_w(n),
        random_state(n, 500 + n),
    ):
        m = (1.0, *weight_sums(state, n, strategy).m)
        shadow = sum((-1) ** k * mk for k, mk in enumerate(m)) / 2**n
        assert n_tangle(state) == pytest.approx(shadow, abs=1e-10)


def test_enumeration_all_weights_n10():
    state = random_state(10, 610)
    enum = weight_sums(state, 10, "enumeration").m
    assert sum(enum) == pytest.approx(2**10 - 1, abs=1e-8)
    assert enum == pytest.approx(weight_sums(state, 10, "moebius").m, abs=1e-8)


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
