from collections import deque
from dataclasses import fields

import numpy as np
import pytest

from mmeslab.pauli import n_tangle
from mmeslab import purity
from mmeslab import search
from mmeslab.purity import (
    _mean_purity_and_grad,
    average_balanced_purity,
    subset_purities,
    subset_purity_tables,
)
from mmeslab.search import (
    _MEMORY,
    _RESTART_STREAM,
    GRAD_TOL,
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    SearchConfig,
    SearchError,
    _Pairs,
    _run_restarts,
    gradient_check,
    minimize_average_purity,
)
from mmeslab.states import make_ghz, random_state


def test_config_validation():
    assert [f.name for f in fields(SearchConfig)] == ["n", "restarts", "max_iters", "seed"]
    with pytest.raises(SearchError):
        SearchConfig(n=3)
    with pytest.raises(SearchError):
        SearchConfig(n=14)
    with pytest.raises(SearchError):
        SearchConfig(n=4, restarts=0)
    for seed in (-1, 2**64, True, 1.5):
        with pytest.raises(SearchError, match="seed"):
            SearchConfig(n=4, seed=seed)
    # a float cap is never reached and a bool restart count is not a count
    for field, value in [
        ("n", 6.0),
        ("n", True),
        ("restarts", True),
        ("restarts", 1.5),
        ("max_iters", 3.5),
    ]:
        with pytest.raises(SearchError, match=f"^{field} .* is not an int"):
            SearchConfig(**{"n": 6, field: value})


def test_config_keeps_numpy_ints_as_ints():
    max_iters = SearchConfig(n=6, max_iters=np.int64(3)).max_iters
    assert type(max_iters) is int and max_iters == 3
    config = SearchConfig(n=np.int64(6), restarts=np.uint8(2), seed=np.uint64(3))
    assert config == SearchConfig(n=6, restarts=2, seed=3)
    assert all(type(v) is int for v in (config.n, config.restarts, config.max_iters, config.seed))


def test_objective_matches_oracle_on_unit_states():
    # n = 10 and 12 run the kernel over several blocks of cuts
    for n, seed in [(2, 1), (4, 2), (6, 3), (8, 4), (10, 5), (12, 6)]:
        state = random_state(n, seed)
        value, _ = _mean_purity_and_grad(state.amplitudes)
        assert value == pytest.approx(average_balanced_purity(state), abs=1e-12)


@pytest.mark.parametrize(
    "n, rows, one_block",
    [(2, 5, True), (4, 3, True), (6, 6, True), (6, 16, False), (8, 2, False)],
)
def test_objective_rows_match_single_vectors(n, rows, one_block):
    # a stack of 16 at n = 6 and every stack at n = 8 splits the cuts into
    # several blocks, which sum in another order than one vector's single block
    amps = np.stack([random_state(n, 90 + i).amplitudes for i in range(rows)])
    values, grads = _mean_purity_and_grad(amps)
    assert values.shape == (rows,) and grads.shape == amps.shape
    for row, value, grad in zip(amps, values, grads):
        want_value, want_grad = _mean_purity_and_grad(row)
        if one_block:
            assert value == want_value
            np.testing.assert_array_equal(grad, want_grad)
        else:
            assert value == pytest.approx(want_value, rel=1e-14)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_gradient_directional_derivative(n):
    # gradient_check covers n <= 6, where every cut fits in one block
    amps = random_state(n, 20 + n).amplitudes.copy()
    direction = random_state(n, 40 + n).amplitudes
    _, grad = _mean_purity_and_grad(amps)
    h = 1e-5
    f_plus, _ = _mean_purity_and_grad(amps + h * direction)
    f_minus, _ = _mean_purity_and_grad(amps - h * direction)
    analytic = np.real(np.vdot(grad, direction))
    assert (f_plus - f_minus) / (2 * h) == pytest.approx(analytic, abs=1e-8)


@pytest.mark.parametrize("n", [8, 10])
def test_block_boundaries_do_not_matter(n, monkeypatch):
    state = random_state(n, 700 + n)
    states = [random_state(n, 710 + n, i) for i in range(5)]

    def run():
        amps = state.amplitudes
        batch = [table for _, table in subset_purity_tables(states)]
        return subset_purities(state), batch, _mean_purity_and_grad(amps)

    table, batch, (value, grad) = run()
    monkeypatch.setattr(purity, "_BLOCK_AMPS", 1 << n)  # one cut per block
    one_per_block, split_batch, (split_value, split_grad) = run()  # and chunks of 2 states
    np.testing.assert_array_equal(one_per_block, table)
    for got, want in zip(split_batch, batch, strict=True):
        np.testing.assert_array_equal(got, want)
    assert split_value == pytest.approx(value, abs=1e-13)
    np.testing.assert_allclose(split_grad, grad, rtol=0, atol=1e-13)


def _takes_one_block_index(n, rows):
    """Whether ``rows`` stacked n-qubit vectors gather every cut through the
    index of ``purity._one_block(n)``, the path of the objective's inverse
    gather."""
    plan = purity._plan(n)
    blocks = list(purity._cut_indices(np.zeros((rows, 1 << n)), plan, 0, len(plan.rows)))
    return len(blocks) == 1 and np.shares_memory(blocks[0], purity._one_block(n)[0])


@pytest.mark.parametrize("block_amps", [None, 1 << 10])
def test_one_block_rows_is_the_widest_one_block_stack(block_amps, monkeypatch):
    if block_amps is not None:
        monkeypatch.setattr(purity, "_BLOCK_AMPS", block_amps)
    widths = {n: purity._one_block_rows(n) for n in range(2, 13, 2)}
    if block_amps is None:
        assert widths == {2: 1024, 4: 85, 6: 6, 8: 1, 10: 1, 12: 1}
    for n in (2, 4, 6):
        assert _takes_one_block_index(n, widths[n])
        assert not _takes_one_block_index(n, widths[n] + 1)
    for n in (8, 10, 12):
        assert widths[n] == 1
        assert not _takes_one_block_index(n, 1)


def test_one_block_gather_does_not_depend_on_the_first_block_size(monkeypatch):
    # plans first built under a smaller block still take the one-block
    # gather once the default block is back, and it agrees with the scatter
    purity._plan.cache_clear()
    purity._one_block.cache_clear()
    amps = {n: random_state(n, 30 + n).amplitudes for n in (4, 6)}
    with monkeypatch.context() as patch:
        patch.setattr(purity, "_BLOCK_AMPS", 1 << 4)  # one cut per block
        scattered = {n: _mean_purity_and_grad(amps[n]) for n in (4, 6)}
    for n in (4, 6):
        assert _takes_one_block_index(n, purity._one_block_rows(n))
        value, grad = _mean_purity_and_grad(amps[n])
        assert value == pytest.approx(scattered[n][0], abs=1e-15)
        np.testing.assert_allclose(grad, scattered[n][1], rtol=0, atol=1e-15)


def test_restart_groups_follow_the_block_size_of_purity(monkeypatch):
    # search reads the width from purity, so patching purity's block size
    # regroups the restarts
    monkeypatch.setattr(purity, "_BLOCK_AMPS", 1 << 10)  # n = 4: 21 rows per block
    widths = []
    run = search._run_restarts
    monkeypatch.setattr(
        search, "_run_restarts", lambda starts, cap: widths.append(len(starts)) or run(starts, cap)
    )
    minimize_average_purity(SearchConfig(n=4, restarts=25, max_iters=2, seed=0))
    assert widths == [21, 4]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_gradient_check(n):
    assert gradient_check(n, seed=7) <= 1e-6


def test_gradient_check_rejects_large_n():
    with pytest.raises(SearchError):
        gradient_check(8, seed=0)


def test_search_n2_reaches_bell_floor():
    result = minimize_average_purity(SearchConfig(n=2, restarts=4, seed=0))
    assert result.best_value == pytest.approx(0.5, abs=1e-6)
    assert n_tangle(result.best_state) == pytest.approx(1.0, abs=1e-4)


def test_search_result_contract():
    cfg = SearchConfig(n=4, restarts=3, max_iters=300, seed=2)
    result = minimize_average_purity(cfg)
    assert result.best_value == pytest.approx(min(result.restart_values), abs=1e-9)
    assert result.best_value >= 2.0 ** -(cfg.n // 2) - 1e-9
    assert abs(np.sum(np.abs(result.best_state.amplitudes) ** 2) - 1) <= 1e-10
    assert len(result.restart_iterations) == cfg.restarts
    assert len(result.restart_stops) == len(result.restart_grad_norms) == cfg.restarts


def test_restart_stop_reasons():
    cfg = SearchConfig(n=6, restarts=32, max_iters=3000, seed=0)
    result = minimize_average_purity(cfg)
    assert set(result.restart_stops) == {STOP_CONVERGED}
    assert max(result.restart_grad_norms) <= GRAD_TOL
    capped = minimize_average_purity(SearchConfig(n=6, restarts=3, max_iters=1, seed=0))
    assert capped.restart_stops == (STOP_ITERATION_CAP,) * 3
    assert capped.restart_iterations == (1, 1, 1)
    assert min(capped.restart_grad_norms) > GRAD_TOL


def test_search_deterministic():
    cfg = SearchConfig(n=4, restarts=3, max_iters=200, seed=11)
    a = minimize_average_purity(cfg)
    b = minimize_average_purity(cfg)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


def test_monotone_within_restart():
    # the accepted objective sequence never increases: rerun one restart and
    # track values through the public API by shrinking max_iters
    values = []
    for iters in (1, 5, 20, 100):
        cfg = SearchConfig(n=4, restarts=1, max_iters=iters, seed=8)
        values.append(minimize_average_purity(cfg).best_value)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "config, iterations, best, last_stop",
    [
        (dict(n=2, restarts=4, seed=5), (6, 4, 6, 5), 0.5000000000000001, STOP_CONVERGED),
        (
            dict(n=4, restarts=8, max_iters=300, seed=5),
            (25, 27, 26, 25, 26, 27, 27, 32),
            0.3333333333333335,
            STOP_CONVERGED,
        ),
        (
            dict(n=6, restarts=4, max_iters=50, seed=5),
            (24, 26, 28, 24),
            0.12500000000000006,
            STOP_CONVERGED,
        ),
        (
            dict(n=6, restarts=16, seed=0),
            (22, 25, 25, 25, 25, 24, 24, 25, 25, 25, 26, 28, 25, 24, 24, 26),
            0.125,
            STOP_CONVERGED,
        ),
        (
            dict(n=8, restarts=4, max_iters=300, seed=5),
            (184, 139, 135, 300),
            0.0857142857142858,
            STOP_ITERATION_CAP,
        ),
    ],
    ids=["n2", "n4", "n6-cap50", "n6-16", "n8-cap300"],
)
def test_pinned_trajectories(config, iterations, best, last_stop):
    result = minimize_average_purity(SearchConfig(**config))
    assert result.restart_iterations == iterations
    assert result.restart_stops == (STOP_CONVERGED,) * (len(iterations) - 1) + (last_stop,)
    assert result.best_value == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize(
    "n, counts, alone",
    [
        # n = 6 groups 6 restarts: 16 restarts run as groups of 6, 6 and 4
        (6, (1, 6, 16), range(16)),
        # n = 4 groups 85: 90 restarts run as groups of 85 and 5
        (4, (1, 85, 90), (0, 1, 42, 84, 85, 89)),
    ],
    ids=["n6", "n4"],
)
def test_restart_groups_do_not_change_restarts(n, counts, alone):
    parts = ("restart_values", "restart_iterations", "restart_stops", "restart_grad_norms")
    runs = {k: minimize_average_purity(SearchConfig(n=n, restarts=k, seed=0)) for k in counts}
    most = runs[counts[-1]]
    for k in counts[:-1]:
        for part in parts:
            assert getattr(most, part)[:k] == getattr(runs[k], part)
    # and a restart of the last run, run alone, ends bit for bit the same
    wants = list(zip(*(getattr(most, part) for part in parts)))
    for r in alone:
        start = random_state(n, 0, _RESTART_STREAM + r).amplitudes
        ((_, *got),) = _run_restarts(start[None], 2000)
        assert tuple(got) == wants[r]


def _serial_two_loop(g, pairs):
    """The two-loop of one restart with its own deque of (s, y, rho) pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


@pytest.mark.parametrize("width", [1, 5, 85])
def test_stacked_memory_matches_serial_two_loop(width):
    # rows refuse some pairs (s.y < 0), clear their memory and leave the stack
    # at different steps; each row must see exactly its own newest pairs, in
    # at most _MEMORY slots
    rng = np.random.default_rng(3)
    dim = 12
    memory = _Pairs(width)
    serial = {row: deque(maxlen=_MEMORY) for row in range(width)}
    live = list(range(width))
    for step in range(30):
        s = rng.standard_normal((len(live), dim))
        y = s * rng.uniform(0.5, 2.0, (len(live), 1)) + 0.3 * rng.standard_normal(s.shape)
        y[rng.random(len(live)) < 0.25] *= -1
        memory.push(s, y)
        assert len(memory.slots) <= _MEMORY
        for j, row in enumerate(live):
            sy = float(s[j] @ y[j])
            if sy > np.finfo(np.float64).eps * float(np.linalg.norm(s[j]) * np.linalg.norm(y[j])):
                serial[row].append((s[j], y[j], 1.0 / sy))
        if step % 6 == 4:
            cleared = [j for j in range(len(live)) if rng.random() < 0.4]
            memory.clear(cleared)
            assert len(memory.slots) <= _MEMORY
            for j in cleared:
                serial[live[j]].clear()
        if step in (12, 20) and len(live) > 1:
            keep = [j for j in range(len(live)) if j != step % len(live)]
            memory.keep(keep)
            assert len(memory.slots) <= _MEMORY
            live = [live[j] for j in keep]
        g = rng.standard_normal((len(live), dim))
        got = -memory.direction(g)
        for j, row in enumerate(live):
            want = _serial_two_loop(g[j], serial[row])
            # (rho s).q in place of rho (s.q): the same terms, rounded in another order
            np.testing.assert_allclose(got[j], want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert len(live) == max(1, width - 2)
