import numpy as np
import pytest

from mmeslab.decomposition import evaluate, printed_model
from mmeslab.pauli import n_tangle, weight_sums
from mmeslab import purity
from mmeslab.purity import average_balanced_purity, subset_purities, subset_purity_tables
from mmeslab.search import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    SearchConfig,
    SearchError,
    _make_model_objective,
    _mean_purity_and_grad,
    gradient_check,
    minimize_average_purity,
    objective_value,
)
from mmeslab.states import make_ghz, random_state


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(n=3)
    with pytest.raises(SearchError):
        SearchConfig(n=14)
    with pytest.raises(SearchError):
        SearchConfig(n=4, restarts=0)
    with pytest.raises(SearchError):
        SearchConfig(n=4, grad_tol=0.0)
    with pytest.raises(SearchError):
        SearchConfig(n=4, objective="annealing")
    for seed in (-1, 2**64, True, 1.5):
        with pytest.raises(SearchError, match="seed"):
            SearchConfig(n=4, seed=seed)


def test_objective_matches_oracle_on_unit_states():
    # n = 10 and 12 run the kernel over several blocks of cuts
    for n, seed in [(2, 1), (4, 2), (6, 3), (8, 4), (10, 5), (12, 6)]:
        state = random_state(n, seed)
        assert objective_value(state.amplitudes, n) == pytest.approx(
            average_balanced_purity(state).mean, abs=1e-12
        )


@pytest.mark.parametrize("n", [8, 10, 12])
def test_gradient_directional_derivative(n):
    # gradient_check covers n <= 6, where every cut fits in one block
    amps = random_state(n, 20 + n).amplitudes.copy()
    direction = random_state(n, 40 + n).amplitudes
    _, grad = _mean_purity_and_grad(amps, n // 2)
    h = 1e-5
    f_plus, _ = _mean_purity_and_grad(amps + h * direction, n // 2, with_grad=False)
    f_minus, _ = _mean_purity_and_grad(amps - h * direction, n // 2, with_grad=False)
    analytic = np.real(np.vdot(grad, direction))
    assert (f_plus - f_minus) / (2 * h) == pytest.approx(analytic, abs=1e-8)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_model_objective_is_c_plus_k_on_unit_states(n):
    model = printed_model(n)
    objective = _make_model_objective(model)
    for seed in (1, 2):
        state = random_state(n, 300 + 10 * n + seed)
        value, _ = objective(state.amplitudes, with_grad=False)
        report = evaluate(model, state)
        assert value == pytest.approx(report.pi_me_oracle - report.residual, abs=1e-12)
        if n == 8:
            # independent Pauli-side value of C + K
            m = weight_sums(state, n // 2 - 1, "enumeration").m
            assert value == pytest.approx(model.predict(m, n_tangle(state)), abs=1e-12)


def test_model_gradient_directional_derivative_n10():
    # n=10 is the one printed model with weight at every size
    objective = _make_model_objective(printed_model(10))
    amps = random_state(10, 1010).amplitudes.copy()
    direction = random_state(10, 1011).amplitudes.copy()
    direction -= np.real(np.vdot(amps, direction)) * amps  # tangent at amps
    _, grad = objective(amps)
    h = 1e-5
    f_plus, _ = objective(amps + h * direction, with_grad=False)
    f_minus, _ = objective(amps - h * direction, with_grad=False)
    analytic = np.real(np.vdot(grad, direction))
    assert (f_plus - f_minus) / (2 * h) == pytest.approx(analytic, abs=1e-8)


@pytest.mark.parametrize("n", [8, 10])
def test_block_boundaries_do_not_matter(n, monkeypatch):
    state = random_state(n, 700 + n)
    model = _make_model_objective(printed_model(n))

    states = [random_state(n, 710 + n, i) for i in range(5)]

    def run():
        amps = state.amplitudes
        batch = [table for _, table in subset_purity_tables(states)]
        return subset_purities(state), batch, _mean_purity_and_grad(amps, n // 2), model(amps)

    table, batch, *kernels = run()
    monkeypatch.setattr(purity, "_BLOCK_AMPS", 1 << n)  # one cut per block
    one_per_block, split_batch, *split = run()  # and chunks of 2 states
    np.testing.assert_array_equal(one_per_block, table)
    for got, want in zip(split_batch, batch, strict=True):
        np.testing.assert_array_equal(got, want)
    for (value, grad), (split_value, split_grad) in zip(kernels, split):
        assert split_value == pytest.approx(value, abs=1e-13)
        np.testing.assert_allclose(split_grad, grad, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [4, 6])
def test_model_search_matches_oracle_search(n):
    # the printed n=4 and n=6 models are exactly pi_ME, so the descents agree
    runs = [
        minimize_average_purity(
            SearchConfig(n=n, restarts=4, max_iters=300, seed=5, objective=objective)
        )
        for objective in ("oracle", "model")
    ]
    assert runs[0].restart_values == runs[1].restart_values
    assert runs[0].restart_iterations == runs[1].restart_iterations


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
    assert max(result.restart_grad_norms) <= cfg.grad_tol
    capped = minimize_average_purity(SearchConfig(n=6, restarts=3, max_iters=1, seed=0))
    assert capped.restart_stops == (STOP_ITERATION_CAP,) * 3
    assert capped.restart_iterations == (1, 1, 1)
    assert min(capped.restart_grad_norms) > capped.config.grad_tol


def test_search_deterministic():
    cfg = SearchConfig(n=4, restarts=3, max_iters=200, seed=11)
    a = minimize_average_purity(cfg)
    b = minimize_average_purity(cfg)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


def test_model_objective_rescored_with_oracle():
    result = minimize_average_purity(
        SearchConfig(n=4, restarts=2, max_iters=500, seed=4, objective="model")
    )
    assert result.best_value == pytest.approx(
        average_balanced_purity(result.best_state).mean, abs=1e-12
    )
    assert result.best_value <= 0.34


def test_monotone_within_restart():
    # the accepted objective sequence never increases: rerun one restart and
    # track values through the public API by shrinking max_iters
    values = []
    for iters in (1, 5, 20, 100):
        cfg = SearchConfig(n=4, restarts=1, max_iters=iters, seed=8)
        values.append(minimize_average_purity(cfg).best_value)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
