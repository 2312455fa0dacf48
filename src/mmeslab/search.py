"""Numerical minimization of the balanced-bipartition average purity.

Every descent runs on pi_ME itself, through ``purity._mean_purity_and_grad``,
which owns the cuts and the gradient maths.  Each restart runs a two-loop
L-BFGS (Nocedal & Wright, Numerical Optimization, Alg. 7.4) on the real view
of z with the scale-invariant F(z) = f(z/|z|), so there is no sphere
constraint and no step-size setting.  Steps come from a backtracking
sufficient-decrease search that starts at t = 1.  A restart stops when the
tangent gradient at z/|z| is within ``GRAD_TOL`` ("converged"), at
``max_iters`` steps ("iteration cap"), or when no trial step decreases F
("line search exhausted").

Restarts run in groups of ``purity._one_block_rows(n)`` consecutive
restarts.  A group descends as one (R, 2^(n+1)) real array, so every numpy
call serves all its restarts; a backtracking trial is written straight into
the step of the rows still searching.  Each row keeps its own correction
pairs, step length and stop, and leaves the stack with its record (unit
vector, value, steps, stop, gradient norm) when it stops, so a restart ends
bit for bit as it would alone.  The pairs are stored newest first, at most
``_MEMORY`` slots for the whole stack: slot j holds each row's j-th newest
pair, or zeros where the row has none, so the two-loop walks at most
``_MEMORY`` slots.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .purity import _mean_purity_and_grad, _one_block_rows, average_balanced_purity
from .states import QState, _normalized, check_even, check_int, check_seed, random_state

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
    """One search: even n in [2, 12] (``check_even``), restarts and max_iters
    >= 1 and a seed in [0, 2**64), each a Python or numpy int (a bool or float
    is refused) stored as a Python int.  It reads no printed table."""

    n: int
    restarts: int = 16
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_even(self.n, "n", 2, 12, SearchError))
        for name in ("restarts", "max_iters"):
            value = check_int(getattr(self, name), name, 1, None, SearchError)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", check_seed(self.seed, SearchError))


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


def gradient_check(n: int, seed: int) -> float:
    """Max deviation between the analytic gradient and central finite
    differences, at step ``GRADIENT_CHECK_STEP``, over all 2^(n+1) real
    parameters at a Haar-random point.  The 2^(n+1) perturbed points of each
    sign form one stack, so the check is two stacked objective calls."""
    n = check_even(n, "n", 2, 6, SearchError)
    seed = check_seed(seed, SearchError)
    amps = random_state(n, seed).amplitudes
    _, grad = _mean_purity_and_grad(amps)
    delta = (GRADIENT_CHECK_STEP * np.eye(2 << n)).view(np.complex128)
    f_plus, _ = _mean_purity_and_grad(amps + delta)
    f_minus, _ = _mean_purity_and_grad(amps - delta)
    numeric = (f_plus - f_minus) / (2 * GRADIENT_CHECK_STEP)
    return float(np.abs(numeric - grad.view(np.float64)).max())


def _scale_free(x: np.ndarray) -> tuple[list[float], np.ndarray, list[float]]:
    """F(x) = f(x/|x|) for each row x of real parameters, for the objective f
    of ``_mean_purity_and_grad``, its gradient, and the norm of f's tangent
    gradient at the unit vector u = x/|x|; values and norms as lists.

    dF/dx = (I - u u^T) grad f(u) / |x|, which is orthogonal to x.
    """
    r = np.sqrt(np.vecdot(x, x, keepdims=True))
    u = x / r
    f, g = _mean_purity_and_grad(u.view(np.complex128))
    g = g.view(np.float64)
    g = g - np.vecdot(u, g, keepdims=True) * u
    return f.tolist(), g / r, [math.sqrt(v) for v in np.vecdot(g, g).tolist()]


class _Pairs:
    """The L-BFGS memory of a stack of restarts: at most ``_MEMORY`` slots
    (s, y, rho s, rho y), rho = 1 / s.y, newest first.  Row i of slot j is
    row i's j-th newest pair; where a row has no such pair, its rho s and
    rho y are 0 and the two-loop passes over it unchanged.
    """

    def __init__(self, rows: int):
        self.slots: list[tuple[np.ndarray, ...]] = []
        # rho y.y of each row's newest pair, the two-loop's initial scaling
        self.scale = np.ones((rows, 1))

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g, row by row, for the inverse-Hessian estimate H of each row's
        pairs: the two-loop recursion (Nocedal & Wright, Alg. 7.4) on -g."""
        q = -g
        alphas = []
        for _, y, rho_s, _ in self.slots:
            alpha = np.vecdot(rho_s, q, keepdims=True)
            q -= alpha * y
            alphas.append(alpha)
        q /= self.scale
        for (s, _, _, rho_y), alpha in zip(reversed(self.slots), reversed(alphas)):
            q += (alpha - np.vecdot(rho_y, q, keepdims=True)) * s
        return q

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store each row's step s and gradient change y if s.y is positive
        beyond roundoff; a row at ``_MEMORY`` pairs drops its oldest."""
        sy, ss, yy = np.vecdot(s, y).tolist(), np.vecdot(s, s).tolist(), np.vecdot(y, y).tolist()
        eps = np.finfo(np.float64).eps
        rho = [
            1.0 / v if v > eps * (math.sqrt(a) * math.sqrt(b)) else 0.0
            for v, a, b in zip(sy, ss, yy)
        ]
        if not any(rho):
            return
        for i, r in enumerate(rho):
            if r:
                self.scale[i, 0] = r * yy[i]
        column = np.array(rho)[:, None]
        new = (s, y, column * s, column * y)  # rho s = rho y = 0 where refused
        if all(rho):
            self.slots = [new, *self.slots][:_MEMORY]
        else:  # a refusing row keeps its slots where they are
            mask = column != 0.0
            self.slots = [
                tuple(np.where(mask, a, b) for a, b in zip(newer, older))
                for newer, older in zip([new, *self.slots][:_MEMORY], [*self.slots, new])
            ]

    def clear(self, rows: list[int]) -> None:
        """Empty the memory of the given rows."""
        for _, _, rho_s, rho_y in self.slots:
            rho_s[rows] = rho_y[rows] = 0.0
        self.scale[rows] = 1.0

    def keep(self, rows: list[int]) -> None:
        """Keep only the given rows of the stack, in that order."""
        self.slots = [tuple(part[rows] for part in slot) for slot in self.slots]
        self.scale = self.scale[rows]


def _run_restarts(starts: np.ndarray, max_iters: int) -> list[tuple]:
    """L-BFGS from each row of ``starts`` (unit vectors of complex
    amplitudes), all rows descending as one stack.  Each row has its own
    memory, step length and stop, and leaves the stack when it stops.
    Returns, per row, the final unit vector, its objective value, the steps
    taken, the stop reason and the final tangent-gradient norm."""
    x = starts.view(np.float64).copy()
    f, g, g_norm = _scale_free(x)
    live = list(range(len(x)))  # the row of ``starts`` of each stack row
    pairs = _Pairs(len(x))
    results: list = [None] * len(x)
    iters = 0

    def retire(stops, *parts):
        """Record the rows that stop and return ``parts`` without them."""
        for i, stop in enumerate(stops):
            if stop is not None:
                u = x[i] / np.linalg.norm(x[i])
                results[live[i]] = (u.view(np.complex128), f[i], iters, stop, g_norm[i])
        keep = [i for i, stop in enumerate(stops) if stop is None]
        pairs.keep(keep)
        return [p[keep] if isinstance(p, np.ndarray) else [p[i] for i in keep] for p in parts]

    while live:
        capped = STOP_ITERATION_CAP if iters == max_iters else None
        stops = [STOP_CONVERGED if gn <= GRAD_TOL else capped for gn in g_norm]
        if any(stops):
            x, g, f, g_norm, live = retire(stops, x, g, f, g_norm, live)
            if not live:
                break
        d = pairs.direction(g)
        slope = np.vecdot(g, d).tolist()
        fresh = [i for i, v in enumerate(slope) if not v < 0]
        if fresh:  # not a descent direction: restart the memory
            pairs.clear(fresh)
            d[fresh] = -g[fresh]
            for i, v in zip(fresh, np.vecdot(g[fresh], g[fresh]).tolist()):
                slope[i] = -v
        bound = [v + _ROUNDOFF * abs(v) for v in f]
        # backtracking from t = 1; every row still searching has the same t
        t = 1.0
        x_new = x + d
        f_new, g_new, g_norm_new = _scale_free(x_new)
        pending = [
            i for i, v in enumerate(f_new) if not v <= bound[i] + _DECREASE_C * t * slope[i]
        ]
        for _ in range(_MAX_BACKTRACKS - 1):
            if not pending:
                break
            t *= 0.5
            # a rejected trial is overwritten by the next or retired with its row
            x_new[pending] = x[pending] + t * d[pending]
            f_t, g_new[pending], g_norm_t = _scale_free(x_new[pending])
            for i, v, gn in zip(pending, f_t, g_norm_t):
                f_new[i], g_norm_new[i] = v, gn
            pending = [i for i in pending if not f_new[i] <= bound[i] + _DECREASE_C * t * slope[i]]
        if pending:  # no trial step decreases F
            exhausted = set(pending)
            stops = [STOP_LINE_SEARCH if i in exhausted else None for i in range(len(live))]
            x, g, x_new, g_new, f_new, g_norm_new, live = retire(
                stops, x, g, x_new, g_new, f_new, g_norm_new, live
            )
            if not live:
                break
        pairs.push(x_new - x, g_new - g)
        x, f, g, g_norm = x_new, f_new, g_new, g_norm_new
        iters += 1
    return results


def minimize_average_purity(config: SearchConfig) -> SearchResult:
    """Multi-restart L-BFGS; deterministic for a fixed config.  The restarts
    run in groups of consecutive restarts, as many as gather their cut
    matrices in one kernel block (``purity._one_block_rows``).  The returned best value is the best
    state's pi_ME, re-scored by ``average_balanced_purity`` off its
    subset-purity table."""
    n = config.n
    t0 = time.perf_counter()
    group = _one_block_rows(n)
    runs = []
    for first in range(0, config.restarts, group):
        starts = np.stack([
            random_state(n, config.seed, _RESTART_STREAM + r).amplitudes
            for r in range(first, min(first + group, config.restarts))
        ])
        runs += _run_restarts(starts, config.max_iters)
    xs, values, iterations, stops, grad_norms = zip(*runs)
    best_state = _normalized(n, xs[values.index(min(values))])  # the first best restart
    best_value = average_balanced_purity(best_state)
    floor = 2.0 ** -(n // 2)
    if best_value < floor - 1e-9:
        raise SearchError(f"best value {best_value!r} below hard floor {floor}")
    return SearchResult(
        config=config,
        best_state=best_state,
        best_value=best_value,
        restart_values=values,
        restart_iterations=iterations,
        restart_stops=stops,
        restart_grad_norms=grad_norms,
        wall_time=time.perf_counter() - t0,
    )
