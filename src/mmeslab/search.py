"""Numerical minimization of the balanced-bipartition average purity.

Projected gradient descent on the unit sphere of the 2^(n+1) real amplitude
parameters.  The objective is quartic in the amplitudes; per bipartition
with reshaped amplitude matrix M the derivative with respect to conj(M) is
2 * M M^H M, so the Euclidean gradient over the (re, im) parameter pairs is
4 * M M^H M scattered back into flat index order.  The sphere constraint is
handled by tangent-space projection plus renormalization, with Armijo
backtracking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .pauli import PauliString, _I_POWERS, _indices, _signs
from .purity import average_balanced_purity
from .states import QState, _normalized, random_state


class SearchError(ValueError):
    """Invalid search configuration."""


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 16
    max_iters: int = 2000
    grad_tol: float = 1e-9
    step_init: float = 0.5
    step_shrink: float = 0.5
    step_grow: float = 1.5
    armijo_c: float = 1e-4
    max_backtracks: int = 40
    seed: int = 0
    objective: str = "oracle"  # "oracle" | "model"

    def __post_init__(self):
        if self.n % 2 or self.n < 2:
            raise SearchError(f"search needs even n >= 2, got {self.n}")
        if self.n > 12:
            raise SearchError(f"search capped at n = 12, got {self.n}")
        if self.restarts < 1 or self.max_iters < 1:
            raise SearchError("restarts and max_iters must be >= 1")
        if min(self.grad_tol, self.step_init, self.step_shrink) <= 0:
            raise SearchError("tolerances and step controls must be positive")
        if self.objective not in ("oracle", "model"):
            raise SearchError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best_state: QState
    best_value: float  # oracle pi_ME of the best state
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    wall_time: float


def _bipartition_axes(n: int) -> list[tuple[list[int], np.ndarray]]:
    """Per balanced cut containing qubit 1: (transpose permutation, inverse).

    The complementary cut is left out: ||M M^H||_F = ||M^H M||_F for any
    matrix, so both sides of a cut give the same objective and gradient,
    normalized vector or not.
    """
    out = []
    for others in combinations(range(1, n), n // 2 - 1):
        axes = [0, *others]
        rest = [q for q in range(n) if q not in axes]
        perm = axes + rest
        out.append((perm, np.argsort(perm)))
    return out


def _oracle_objective_and_grad(
    amps: np.ndarray, n: int, parts, with_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean Gram-norm purity over balanced bipartitions, for the raw
    (unnormalized) vector, plus its Euclidean real-parameter gradient in
    complex form (real part = d/d re, imag part = d/d im)."""
    half = 1 << (n // 2)
    value = 0.0
    grad = np.zeros_like(amps) if with_grad else None
    ten = amps.reshape((2,) * n)
    for perm, inv in parts:
        mat = ten.transpose(perm).reshape(half, half)
        gram = mat @ mat.conj().T
        value += float(np.sum(np.abs(gram) ** 2))
        if with_grad:
            gmat = 4.0 * (gram @ mat)
            grad += gmat.reshape((2,) * n).transpose(inv).reshape(amps.size)
    count = len(parts)
    if with_grad:
        grad /= count
    return value / count, grad


def objective_value(amps: np.ndarray, n: int) -> float:
    """Raw oracle objective on an arbitrary (not necessarily unit) vector."""
    value, _ = _oracle_objective_and_grad(
        np.asarray(amps, dtype=np.complex128), n, _bipartition_axes(n), with_grad=False
    )
    return value


def _model_string_masks(n: int, k_max: int) -> list[tuple[int, int, int]]:
    masks = []
    for k in range(1, k_max + 1):
        for positions in combinations(range(1, n + 1), k):
            for letters in product("xyz", repeat=k):
                masks.append(PauliString(n, dict(zip(positions, letters))).masks())
    return masks


def _make_model_objective(n: int, model) -> Callable:
    """C + K as a descent objective.  Far slower per iteration than the
    oracle at large n (it walks every Pauli string up to weight n/2 - 1);
    exposed because the model value is the quantity the identities bound."""
    masks = _model_string_masks(n, n // 2 - 1)
    idx = _indices(n)
    comp = idx ^ np.uint32((1 << n) - 1)
    tau_phases = _I_POWERS[n % 4] * _signs(idx, (1 << n) - 1)
    weight_coeff = []
    for flip, phase, ny in masks:
        k = bin(flip | phase).count("1")  # weight of the string
        weight_coeff.append(float(model.weight_coeffs[k - 1]))
    c_tau = float(model.tau_coeff)
    const = float(model.constant) + float(model.tau_offset)

    def objective(amps: np.ndarray, _n: int, _parts, with_grad: bool = True):
        value = const
        grad = np.zeros_like(amps) if with_grad else None
        conj_a = np.conj(amps)
        for (flip, phase, ny), coeff in zip(masks, weight_coeff):
            gathered = amps[idx ^ np.uint32(flip)]
            col = _I_POWERS[ny % 4] * _signs(idx ^ np.uint32(flip), phase) * gathered
            exp = float(np.real(np.dot(conj_a, col)))
            value += coeff * exp * exp
            if with_grad:
                grad += coeff * (4.0 * exp) * col
        v = np.dot(tau_phases, conj_a * conj_a[comp])
        value += c_tau * float(abs(v) ** 2)
        if with_grad:
            grad += c_tau * 2.0 * (2.0 * np.conj(v) * tau_phases * conj_a[comp])
        return value, grad

    return objective


def gradient_check(n: int, seed: int, step: float = 1e-5) -> float:
    """Max deviation between the analytic oracle gradient and central finite
    differences over all 2^(n+1) real parameters at a Haar-random point."""
    if n % 2 or n < 2 or n > 6:
        raise SearchError(f"gradient_check supports even n in [2, 6], got {n}")
    parts = _bipartition_axes(n)
    amps = random_state(n, seed).amplitudes.copy()
    _, grad = _oracle_objective_and_grad(amps, n, parts)
    analytic = np.concatenate([grad.real, grad.imag])
    dim = amps.size
    worst = 0.0
    for j in range(2 * dim):
        delta = np.zeros(dim, dtype=np.complex128)
        if j < dim:
            delta[j] = step
        else:
            delta[j - dim] = 1j * step
        f_plus, _ = _oracle_objective_and_grad(amps + delta, n, parts, with_grad=False)
        f_minus, _ = _oracle_objective_and_grad(amps - delta, n, parts, with_grad=False)
        worst = max(worst, abs((f_plus - f_minus) / (2 * step) - analytic[j]))
    return worst


def _run_restart(
    n: int, seed: int, cfg: SearchConfig, parts, objective: Callable
) -> tuple[np.ndarray, float, int]:
    x = random_state(n, seed).amplitudes.copy()
    f, g = objective(x, n, parts)
    eta = cfg.step_init
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        # tangent projection on the real sphere ||x|| = 1
        radial = float(np.real(np.vdot(x, g)))
        gt = g - radial * x
        gt_sq = float(np.real(np.vdot(gt, gt)))
        if gt_sq <= cfg.grad_tol**2:
            break
        accepted = False
        for _ in range(cfg.max_backtracks):
            cand = x - eta * gt
            cand /= np.linalg.norm(cand)
            f_cand, _ = objective(cand, n, parts, with_grad=False)
            if f_cand <= f - cfg.armijo_c * eta * gt_sq:
                x, f = cand, f_cand
                _, g = objective(x, n, parts)
                eta = min(eta * cfg.step_grow, 10.0)
                accepted = True
                break
            eta *= cfg.step_shrink
        if not accepted:
            break  # line search exhausted; this restart is done
    return x, f, iters


def minimize_average_purity(config: SearchConfig) -> SearchResult:
    """Multi-restart projected gradient descent; deterministic for a fixed
    config.  The returned best value is always the oracle pi_ME of the best
    state, regardless of the objective used during descent."""
    n = config.n
    parts = _bipartition_axes(n)
    if config.objective == "model":
        from .decomposition import printed_model

        objective = _make_model_objective(n, printed_model(n))
    else:
        objective = _oracle_objective_and_grad
    t0 = time.perf_counter()
    values, iterations = [], []
    best_x, best_f = None, np.inf
    for r in range(config.restarts):
        restart_seed = config.seed * 0x9E3779B97F4A7C15 + 0xC0FFEE + r
        x, f, iters = _run_restart(n, restart_seed, config, parts, objective)
        values.append(f)
        iterations.append(iters)
        if f < best_f:
            best_x, best_f = x, f
    best_state = _normalized(n, best_x)
    best_value = average_balanced_purity(best_state).mean
    floor = 2.0 ** -(n // 2)
    if best_value < floor - 1e-9:
        raise SearchError(f"best value {best_value!r} below hard floor {floor}")
    return SearchResult(
        config=config,
        best_state=best_state,
        best_value=best_value,
        restart_values=tuple(values),
        restart_iterations=tuple(iterations),
        wall_time=time.perf_counter() - t0,
    )
