import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab import purity
from mmeslab.purity import (
    average_balanced_purity,
    balanced_purities,
    reduced_purity,
    subset_purities,
    subset_purity_tables,
)
from mmeslab.reports import purity_dict
from mmeslab.states import (
    QState,
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
    for n in range(2, 13):
        state = make_ghz(n)
        block = purity_dict(subset_purities(state))
        assert block["pi_me_mean"] == pytest.approx(0.5, abs=1e-10)
        assert block["bipartition_count"] == comb(n, n // 2)
        assert len(block["bipartitions"]) == comb(n, n // 2)
        assert average_balanced_purity(state) == block["pi_me_mean"]


def test_average_balanced_purity_product_and_w():
    product = average_balanced_purity(make_basis_state(6, 0))
    assert type(product) is float
    assert product == pytest.approx(1.0, abs=1e-12)
    block = purity_dict(subset_purities(make_w(4)))
    assert block["pi_me_mean"] == pytest.approx(0.5, abs=1e-12)
    assert block["pi_a_min"] == pytest.approx(0.5, abs=1e-12)
    assert block["pi_a_max"] == pytest.approx(0.5, abs=1e-12)


def test_report_lists_subsets_lexicographically():
    block = purity_dict(subset_purities(random_state(4, 3)))
    listed = block["bipartitions"]
    assert [b["part_a"] for b in listed] == [list(s) for s in combinations(range(1, 5), 2)]
    purities = [b["purity"] for b in listed]
    assert block["pi_me_mean"] == pytest.approx(np.mean(purities), abs=1e-15)
    assert block["pi_a_min"] == min(purities) and block["pi_a_max"] == max(purities)


@pytest.mark.parametrize("size", [48, 12])
def test_balanced_purities_rejects_a_table_not_of_2_to_the_n(size):
    with pytest.raises(StateError):
        balanced_purities(np.ones(size))


def test_odd_n_accepted_by_oracle():
    block = purity_dict(subset_purities(make_ghz(5)))
    assert block["n"] == 5
    assert block["n_a"] == 2
    assert block["bipartition_count"] == comb(5, 2)


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


@pytest.mark.parametrize("n", range(1, 13))
def test_cut_offsets_give_reshaped_matrices(n):
    # the plan's cuts: ceil(n/2) qubits that contain qubit 1, at odd and even n
    amps = random_state(n, 60 + n).amplitudes
    size = (n + 1) // 2
    cuts = [a for a in combinations(range(n), size) if a[0] == 0]
    plan = purity._plan(n)
    assert plan.rows.shape == (len(cuts), 1 << size)
    assert plan.cols.shape == (len(cuts), 1 << (n - size))
    for axes, row, col in zip(cuts, plan.rows, plan.cols):
        rest = [q for q in range(n) if q not in axes]
        mat = amps.reshape((2,) * n).transpose(list(axes) + rest).reshape(1 << size, -1)
        np.testing.assert_array_equal(amps[row[:, None] | col[None, :]], mat)


def test_cut_offsets_are_small_at_n12():
    # per-cut offsets, not a 462 x 2^12 index table (7.57 MB as int32)
    plan = purity._plan(12)
    assert plan.rows.shape == plan.cols.shape == (462, 64)
    assert plan.rows.nbytes + plan.cols.nbytes <= 1 << 20


def _owned(n):
    # (mask, owning cut) of each smaller marginal, by the run rule: a cut whose
    # run is 1..j owns cut & ~bits(D) for each nonempty D within 1..j, except
    # the empty set left by D = the whole cut 1..h
    plan = purity._plan(n)
    h = (n + 1) // 2
    for start, stop, run in plan.runs:
        for size in range(1, run + 1):
            for traced in combinations(range(run), size):
                if size == h:
                    continue
                bits = sum(1 << (n - 1 - p) for p in traced)
                for c in range(start, stop):
                    yield int(plan.rows[c, -1]) & ~bits, c


@pytest.mark.parametrize("n", range(1, 15))
def test_plan_partitions_the_subsets(n):
    # {0, full}, the cuts, the owned marginals and the complements, each once
    plan = purity._plan(n)
    owned = [mask for mask, _ in _owned(n)]
    ends = [0] if n == 1 else [0, (1 << n) - 1]  # at n = 1 the cut {1} is the full set
    parts = [ends, plan.rows[:, -1], owned, plan.complements]
    masks = np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
    assert masks.size == 1 << n
    np.testing.assert_array_equal(np.bincount(masks, minlength=1 << n), 1)


@pytest.mark.parametrize("n", range(1, 15))
def test_plan_owner_is_the_first_cut_that_contains_it(n):
    plan = purity._plan(n)
    cut_masks = plan.rows[:, -1]
    # the runs tile the cuts in order, each cut holding qubits 1..j but not j + 1
    assert [start for start, _, _ in plan.runs] == [0, *[stop for _, stop, _ in plan.runs[:-1]]]
    assert plan.runs[-1][1] == len(cut_masks)
    for start, stop, run in plan.runs:
        lead = ((1 << run) - 1) << (n - run)
        assert np.all(cut_masks[start:stop] & lead == lead)
        assert run == n or not np.any(cut_masks[start:stop] >> (n - 1 - run) & 1)
    owned = np.array(list(_owned(n)), dtype=np.int64).reshape(-1, 2)
    first = np.argmax(owned[:, :1] & ~cut_masks == 0, axis=1)
    np.testing.assert_array_equal(first, owned[:, 1])


@pytest.mark.parametrize("n", range(1, 13))
def test_plan_one_block_index_exists_exactly_when_cuts_fit_one_block(n):
    # one state gathers every cut through the index of _one_block(n) exactly
    # when its cuts fit one block (n <= 7 by default); at n <= 8 that index
    # stacks the per-cut indices, and its inverse round-trips
    plan = purity._plan(n)
    cuts = len(plan.rows)
    blocks = list(purity._cut_indices(np.zeros(1 << n), plan, 0, cuts))
    if cuts << n <= purity._BLOCK_AMPS:
        assert len(blocks) == 1 and np.shares_memory(blocks[0], purity._one_block(n)[0])
    else:
        assert len(blocks) > 1
    if n > 8:
        return
    index, inverse = purity._one_block(n)
    np.testing.assert_array_equal(
        index, [row[:, None] | col[None, :] for row, col in zip(plan.rows, plan.cols)]
    )
    stack = np.arange(cuts)[:, None] * (1 << n) + index.reshape(cuts, -1)
    back = stack.ravel().take(inverse)
    np.testing.assert_array_equal(back, np.arange(cuts)[:, None] * (1 << n) + np.arange(1 << n))


def test_plan_does_not_depend_on_the_block_size(monkeypatch):
    # the plan holds n's cuts and nothing sized by the block; the one-block
    # index is cached apart, per n, and built whenever a block first needs it
    state = random_state(8, 8)
    purity._plan(8)  # built at the default block size, where n = 8 takes no one-block index
    table = subset_purities(state)
    value, grad = purity._mean_purity_and_grad(state.amplitudes)
    monkeypatch.setattr(purity, "_BLOCK_AMPS", 1 << 14)  # all 35 n = 8 cuts fit one block
    np.testing.assert_array_equal(subset_purities(state), table)
    big_value, big_grad = purity._mean_purity_and_grad(state.amplitudes)
    assert big_value == pytest.approx(value, abs=1e-15)
    np.testing.assert_allclose(big_grad, grad, rtol=0, atol=1e-15)
    assert purity._Plan._fields == ("rows", "cols", "runs", "complements", "balanced")


@pytest.mark.parametrize("n", [13, 14])
def test_plan_builds_beyond_n12(n):
    plan = purity._plan(n)
    h = (n + 1) // 2
    assert plan.rows.shape == (comb(n - 1, h - 1), 1 << h)
    assert plan.cols.shape == (comb(n - 1, h - 1), 1 << (n - h))
    # h runs, j = h down to 1, of the cuts that hold 1..j, not j + 1 and
    # h - j of the n - j - 1 later qubits
    runs = [(stop - start, run) for start, stop, run in plan.runs]
    assert runs == [(comb(n - 1 - j, h - j), j) for j in range(h, 0, -1)]
    owned = sum(cuts * ((1 << run) - 1) for cuts, run in runs) - 1
    assert owned == sum(comb(n, size) for size in range(1, h))
    assert 2 + len(plan.rows) + owned + len(plan.complements) == 1 << n
    assert plan.balanced.size == comb(n, n // 2)


def _haar_states(n, count, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return [QState(n, row) for row in amps]


@pytest.mark.parametrize("n", range(1, 13))
def test_subset_purity_tables_equal_per_state_tables(n):
    chunk = max(1, 2 * purity._BLOCK_AMPS >> n)  # states per kernel pass
    states = _haar_states(n, 3 * chunk + 2, 900 + n)
    expected = [subset_purities(state) for state in states]
    for count in sorted({1, max(1, chunk - 1), chunk + 1, 3 * chunk + 2}):
        pairs = list(subset_purity_tables(states[:count]))
        assert len(pairs) == count
        for (state, table), original, want in zip(pairs, states, expected):
            assert state is original
            np.testing.assert_array_equal(table, want)


def test_subset_purity_tables_empty_and_lazy():
    assert list(subset_purity_tables([])) == []
    assert list(subset_purity_tables(iter(()))) == []
    drawn = []

    def states():
        for i in range(20):
            drawn.append(i)
            yield random_state(10, 950, i)

    tables = subset_purity_tables(states())
    next(tables)
    assert len(drawn) == 8  # one chunk of n = 10 states


@pytest.mark.parametrize("chunked", [False, True])
def test_subset_purity_tables_reject_mixed_qubit_counts(chunked):
    count = 2 * purity._BLOCK_AMPS >> 4 if chunked else 1  # a whole n = 4 chunk
    first = [random_state(4, 960, i) for i in range(count)]
    with pytest.raises(StateError, match="n=4 and n=5"):
        list(subset_purity_tables([*first, random_state(5, 961)]))


@pytest.mark.parametrize("n", range(4, 13))
def test_tables_do_not_depend_on_the_tree_batch_size(n, monkeypatch):
    # _BLOCK_AMPS sets the Gram blocks, the chunks and the cuts per trace
    # tree, up to 4 * _BLOCK_AMPS Gram entries: one state's trees take 1, 3
    # and 12 cuts below (4 by default at n = 12), and the last value reads
    # the 3 states as one chunk, whose trees take 4 cuts
    states = _haar_states(n, 3, 990 + n)
    want = [subset_purities(state) for state in states]
    for (_, table), expected in zip(subset_purity_tables(states), want, strict=True):
        np.testing.assert_array_equal(table, expected)  # one chunk below n = 12
    h = (n + 1) // 2
    for block_amps in (1 << (2 * h - 2), 3 << (2 * h - 2), 3 << (2 * h)):
        monkeypatch.setattr(purity, "_BLOCK_AMPS", block_amps)
        for state, table in zip(states, want):
            np.testing.assert_array_equal(subset_purities(state), table)
        for (_, table), expected in zip(subset_purity_tables(states), want, strict=True):
            np.testing.assert_array_equal(table, expected)


def test_subset_purity_tables_memory_is_bounded_by_a_chunk():
    # 64 n = 10 states take 1 MB.  Read lazily in chunks of 8, the pass
    # peaked at 1.32 MB traced (numpy 2.4.6, 64-bit Linux); drawing all 64
    # states first peaked at 2.24 MB.
    def states():
        for i in range(64):
            yield random_state(10, 980, i)

    next(subset_purity_tables(states()))  # plans and offsets are cached
    tracemalloc.start()
    try:
        for _ in subset_purity_tables(states()):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75e6
