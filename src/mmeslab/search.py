"""Numerical minimization of the balanced-bipartition average purity.

Every descent runs on pi_ME itself: the mean Gram-norm purity over the
balanced cuts.  Only the cuts that contain qubit 1 are taken, since
||M M^H||_F = ||M^H M||_F for any matrix.  The objective is quartic in the
amplitudes: per cut with reshaped amplitude matrix M the derivative with
respect to conj(M) is 2 M M^H M, so the Euclidean gradient over the
(re, im) parameter pairs is 4 M M^H M scattered back into flat index order.
Its cut matrices and Gram matrices come from ``purity._gram_blocks``, as for
the subset-purity table, and the gradient is scattered back through the same
flat indices.

Each restart runs a two-loop L-BFGS (Nocedal & Wright, Numerical
Optimization, Alg. 7.4) on the real view of z with the scale-invariant
F(z) = f(z/|z|), so there is no sphere constraint and no step-size setting.
Steps come from a backtracking sufficient-decrease search that starts at
t = 1.  A restart stops when the tangent gradient at z/|z| is within
``GRAD_TOL`` ("converged"), at ``max_iters`` steps ("iteration cap"), or
when no trial step decreases F ("line search exhausted").
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .purity import _gram_blocks, average_balanced_purity
from .states import QState, StateError, _normalized, check_seed, random_state

_MEMORY = 8  # L-BFGS correction pairs kept
_DECREASE_C = 1e-4  # sufficient-decrease constant of the line search
_MAX_BACKTRACKS = 40  # halvings of t before the line search gives up
# Slack in the decrease test, in units of |F|: a restart already at its
# minimum otherwise rejects every step over roundoff of a few ulp.
_ROUNDOFF = 8 * np.finfo(np.float64).eps

# A stream per restart, derived from the config seed (see ``random_state``).
_RESTART_STREAM = 0xC0FFEE

STOP_CONVERGED = "converged"
STOP_ITERATION_CAP = "iteration cap"
STOP_LINE_SEARCH = "line search exhausted"

# Tangent-gradient norm at which a restart stops as converged.
GRAD_TOL = 1e-9

# Central-difference step of ``gradient_check``.
GRADIENT_CHECK_STEP = 1e-5


class SearchError(ValueError):
    """Invalid search configuration."""


@dataclass(frozen=True)
class SearchConfig:
    """One search: n, restarts and max_iters are plain Python ints (a bool or
    numpy integer is refused)."""

    n: int
    restarts: int = 16
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "restarts", "max_iters"):
            value = getattr(self, name)
            if type(value) is not int:
                raise SearchError(f"{name} must be an int, got {value!r}")
        if self.n % 2 or self.n < 2:
            raise SearchError(f"search needs even n >= 2, got {self.n}")
        if self.n > 12:
            raise SearchError(f"search capped at n = 12, got {self.n}")
        if self.restarts < 1 or self.max_iters < 1:
            raise SearchError("restarts and max_iters must be >= 1")
        try:
            check_seed(self.seed)
        except StateError as exc:
            raise SearchError(str(exc)) from None


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best_state: QState
    best_value: float  # oracle pi_ME of the best state
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    restart_stops: tuple[str, ...]  # one of the STOP_* reasons per restart
    restart_grad_norms: tuple[float, ...]  # final tangent-gradient norm
    wall_time: float


def _mean_purity_and_grad(
    amps: np.ndarray, with_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean Gram-norm purity over the balanced cuts, for the raw
    (unnormalized) vector of even n, plus its Euclidean real-parameter
    gradient in complex form (real part = d/d re, imag part = d/d im)."""
    count = 0
    value = 0.0
    grad = np.zeros_like(amps) if with_grad else None
    for idx, mats, grams in _gram_blocks(amps):
        count += len(idx)
        value += float(np.vdot(grams, grams).real)
        if with_grad:
            idx = idx.reshape(len(idx), -1)
            scattered = np.empty(idx.shape, dtype=amps.dtype)
            np.put_along_axis(scattered, idx, (grams @ mats).reshape(idx.shape), axis=1)
            grad += scattered.sum(axis=0)
    if with_grad:
        grad *= 4.0 / count
    return value / count, grad


def gradient_check(n: int, seed: int) -> float:
    """Max deviation between the analytic gradient and central finite
    differences, at step ``GRADIENT_CHECK_STEP``, over all 2^(n+1) real
    parameters at a Haar-random point."""
    if n % 2 or n < 2 or n > 6:
        raise SearchError(f"gradient_check supports even n in [2, 6], got {n}")
    amps = random_state(n, seed).amplitudes.copy()
    _, grad = _mean_purity_and_grad(amps)
    analytic = grad.view(np.float64)  # (re, im) pairs
    worst = 0.0
    for j in range(analytic.size):
        delta = np.zeros(analytic.size)
        delta[j] = GRADIENT_CHECK_STEP
        delta = delta.view(np.complex128)
        f_plus, _ = _mean_purity_and_grad(amps + delta, with_grad=False)
        f_minus, _ = _mean_purity_and_grad(amps - delta, with_grad=False)
        worst = max(worst, abs((f_plus - f_minus) / (2 * GRADIENT_CHECK_STEP) - analytic[j]))
    return worst


def _scale_free(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """F(x) = f(x/|x|) over the real parameters x for the objective f of
    ``_mean_purity_and_grad``, its gradient, and the norm of f's tangent
    gradient at the unit vector u = x/|x|.

    dF/dx = (I - u u^T) grad f(u) / |x|, which is orthogonal to x.
    """
    r = float(np.linalg.norm(x))
    u = x / r
    f, g = _mean_purity_and_grad(u.view(np.complex128))
    g = g.view(np.float64)
    g = g - float(np.dot(u, g)) * u
    g_norm = float(np.linalg.norm(g))
    return f, g / r, g_norm


def _two_loop(g: np.ndarray, pairs: deque) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian estimate H of the stored (s, y)
    pairs, with the initial scaling s.y / y.y of the newest pair."""
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


def _run_restart(x: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float, int, str, float]:
    """L-BFGS from the unit vector x (complex amplitudes).  Returns the
    final unit vector, its objective value, the steps taken, the stop
    reason and the final tangent-gradient norm."""
    x = x.view(np.float64).copy()
    f, g, g_norm = _scale_free(x)
    pairs: deque = deque(maxlen=_MEMORY)
    iters = 0
    while True:
        if g_norm <= GRAD_TOL:
            stop = STOP_CONVERGED
            break
        if iters == cfg.max_iters:
            stop = STOP_ITERATION_CAP
            break
        d = -_two_loop(g, pairs)
        slope = float(np.dot(g, d))
        if not slope < 0:  # not a descent direction: restart the memory
            pairs.clear()
            d = -g
            slope = -float(np.dot(g, g))
        bound = f + _ROUNDOFF * abs(f)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, g_new, g_norm_new = _scale_free(x_new)
            if f_new <= bound + _DECREASE_C * t * slope:
                break
            t *= 0.5
        else:
            stop = STOP_LINE_SEARCH
            break
        s, y = x_new - x, g_new - g
        sy = float(np.dot(s, y))
        if sy > np.finfo(np.float64).eps * float(np.linalg.norm(s) * np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        x, f, g, g_norm = x_new, f_new, g_new, g_norm_new
        iters += 1
    x /= np.linalg.norm(x)
    return x.view(np.complex128), f, iters, stop, g_norm


def minimize_average_purity(config: SearchConfig) -> SearchResult:
    """Multi-restart L-BFGS; deterministic for a fixed config.  The returned
    best value is the best state's pi_ME, re-scored by
    ``average_balanced_purity`` off its subset-purity table."""
    n = config.n
    t0 = time.perf_counter()
    values, iterations, stops, grad_norms = [], [], [], []
    best_x, best_f = None, np.inf
    for r in range(config.restarts):
        start = random_state(n, config.seed, _RESTART_STREAM + r).amplitudes
        x, f, iters, stop, g_norm = _run_restart(start, config)
        values.append(f)
        iterations.append(iters)
        stops.append(stop)
        grad_norms.append(g_norm)
        if f < best_f:
            best_x, best_f = x, f
    best_state = _normalized(n, best_x)
    best_value = average_balanced_purity(best_state)
    floor = 2.0 ** -(n // 2)
    if best_value < floor - 1e-9:
        raise SearchError(f"best value {best_value!r} below hard floor {floor}")
    return SearchResult(
        config=config,
        best_state=best_state,
        best_value=best_value,
        restart_values=tuple(values),
        restart_iterations=tuple(iterations),
        restart_stops=tuple(stops),
        restart_grad_norms=tuple(grad_norms),
        wall_time=time.perf_counter() - t0,
    )
