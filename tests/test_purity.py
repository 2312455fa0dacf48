from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab.purity import average_balanced_purity, reduced_purity, subset_purities
from mmeslab.states import (
    StateError,
    make_basis_state,
    make_ghz,
    make_w,
    random_state,
)


def test_product_marginal_pure():
    assert reduced_purity(make_basis_state(2, 0), [1]) == pytest.approx(1.0, abs=1e-12)


def test_bell_marginal_maximally_mixed():
    assert reduced_purity(make_ghz(2), [1]) == pytest.approx(0.5, abs=1e-12)


def test_ghz6_half_marginal():
    assert reduced_purity(make_ghz(6), [1, 2, 3]) == pytest.approx(0.5, abs=1e-12)


def test_reduced_purity_against_dense_rho():
    # independent oracle: form rho_A explicitly and square it
    state = random_state(5, 13)
    psi = state.amplitudes.reshape((2,) * 5)
    for part in [(1,), (2, 4), (1, 3, 5), (2, 3, 4, 5)]:
        axes = [p - 1 for p in part]
        rest = [q for q in range(5) if q not in axes]
        mat = psi.transpose(axes + rest).reshape(2 ** len(axes), -1)
        rho = mat @ mat.conj().T
        dense = float(np.real(np.trace(rho @ rho)))
        assert reduced_purity(state, part) == pytest.approx(dense, abs=1e-12)


def test_rejects_empty_and_full_subsets():
    s = make_ghz(3)
    with pytest.raises(StateError):
        reduced_purity(s, [])
    with pytest.raises(StateError):
        reduced_purity(s, [1, 2, 3])
    with pytest.raises(StateError):
        reduced_purity(s, [0])


@given(seed=st.integers(0, 2**32), n=st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=15, deadline=None)
def test_complement_duality_and_bounds(seed, n):
    state = random_state(n, seed)
    for size in range(1, n):
        for part in combinations(range(1, n + 1), size):
            comp = tuple(q for q in range(1, n + 1) if q not in part)
            pa = reduced_purity(state, part)
            assert pa == pytest.approx(reduced_purity(state, comp), abs=1e-10)
            assert 2.0 ** -min(size, n - size) - 1e-12 <= pa <= 1.0 + 1e-12


def test_average_balanced_purity_ghz():
    for n in (2, 4, 6, 8, 10, 12):
        report = average_balanced_purity(make_ghz(n))
        assert report.mean == pytest.approx(0.5, abs=1e-10)
        assert report.count == comb(n, n // 2)


def test_average_balanced_purity_product_and_w():
    assert average_balanced_purity(make_basis_state(6, 0)).mean == pytest.approx(
        1.0, abs=1e-12
    )
    report = average_balanced_purity(make_w(4))
    assert report.mean == pytest.approx(0.5, abs=1e-12)
    assert report.min == pytest.approx(0.5, abs=1e-12)
    assert report.max == pytest.approx(0.5, abs=1e-12)


def test_report_lists_subsets_lexicographically():
    report = average_balanced_purity(random_state(4, 3))
    assert report.subsets == tuple(combinations(range(1, 5), 2))
    assert report.mean == pytest.approx(np.mean(report.purities), abs=1e-15)


def test_odd_n_accepted_by_oracle():
    report = average_balanced_purity(make_ghz(5))
    assert report.n_a == 2
    assert report.count == comb(5, 2)


def _positions(n, mask):
    # bit n - k of a table mask stands for qubit k
    return [k for k in range(1, n + 1) if mask >> (n - k) & 1]


@pytest.mark.parametrize("n", range(2, 11))
def test_subset_purities_match_reduced_purity(n):
    for state in (random_state(n, 400 + n), make_w(n)):
        table = subset_purities(state)
        assert table.shape == (1 << n,)
        assert table[0] == table[-1] == 1.0
        for mask in range(1, (1 << n) - 1):
            expected = reduced_purity(state, _positions(n, mask))
            assert table[mask] == pytest.approx(expected, abs=1e-12)


def test_subset_purities_sample_at_n12():
    state = random_state(12, 412)
    table = subset_purities(state)
    rng = np.random.default_rng(412)
    for mask in rng.integers(1, (1 << 12) - 1, size=300):
        expected = reduced_purity(state, _positions(12, int(mask)))
        assert table[mask] == pytest.approx(expected, abs=1e-12)
