"""Reduced-state purities, the subset-purity table and the balanced average.

This is the ground-truth side of every identity check in the package: it
reshapes the amplitude vector and works with Gram matrices, never touching
the Pauli kernel.  ``subset_purities`` computes the purity of every subset
in one pass; pi_ME and every weight sum M_k are linear in that table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .states import QState, StateError

PURITY_TOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def reduced_purity(state: QState, part_a: Iterable[int]) -> float:
    """Tr[rho_A^2] for the marginal on the qubit positions in part_a.

    Reshapes the amplitudes into a 2^|A| x 2^(n-|A|) matrix and takes the
    squared Frobenius norm of the Gram matrix built on the smaller side
    (identical spectra, half the work of forming rho_A at |A| > n/2).
    """
    positions = sorted(set(part_a))
    n = state.n
    if not positions or len(positions) == n:
        raise StateError(f"part_a must be a proper nonempty subset of 1..{n}")
    if positions[0] < 1 or positions[-1] > n:
        raise StateError(f"positions {positions} out of range for n={n}")
    axes = [p - 1 for p in positions]
    rest = [q for q in range(n) if q not in axes]
    a = len(axes)
    mat = (
        state.amplitudes.reshape((2,) * n)
        .transpose(axes + rest)
        .reshape(1 << a, 1 << (n - a))
    )
    if a <= n - a:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    purity = float(np.sum(np.abs(gram) ** 2))
    if purity > 1.0 + PURITY_TOL or purity < -PURITY_TOL:
        raise StateError(f"purity {purity!r} outside [0, 1] beyond tolerance")
    return min(max(purity, 0.0), 1.0)


def _mask(n: int, axes: Iterable[int]) -> int:
    # axis q holds qubit q + 1, which is bit n - 1 - q of a mask
    return sum(1 << (n - 1 - q) for q in axes)


def _trace_subscripts(h: int, keep: tuple[int, ...]) -> str:
    """einsum subscripts that trace every axis of an h-axis rho outside keep."""
    rows = _LETTERS[:h]
    cols = [_LETTERS[h + j] if j in keep else rows[j] for j in range(h)]
    out = "".join(rows[j] for j in keep) + "".join(cols[j] for j in keep)
    return f"{rows}{''.join(cols)}->{out}"


class _Plan(NamedTuple):
    """How ``subset_purities`` covers all 2^n subsets at one n."""

    cuts: tuple[tuple[int, ...], ...]  # per cut: transpose order, its axes first
    cut_masks: tuple[int, ...]
    # per cut: (partial-trace subscripts, mask) of each smaller marginal it owns
    owned: tuple[tuple[tuple[str, int], ...], ...]
    complements: np.ndarray  # masks filled from P(A) = P(A^c)
    balanced: np.ndarray  # masks of the size-floor(n/2) subsets, lexicographic


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    # Every subset of size < h lies in some size-h cut that contains qubit 1,
    # and every larger subset is the complement of one already covered.
    h = (n + 1) // 2
    subscripts = {}
    seen = {0, (1 << n) - 1}
    cuts, cut_masks, owned = [], [], []
    for rest in combinations(range(1, n), h - 1):
        axes = (0, *rest)
        cuts.append(axes + tuple(q for q in range(n) if q not in axes))
        cut_masks.append(_mask(n, axes))
        seen.add(cut_masks[-1])
        mine = []
        for size in range(1, h):
            for keep in combinations(range(h), size):
                mask = _mask(n, (axes[j] for j in keep))
                if mask not in seen:
                    seen.add(mask)
                    if keep not in subscripts:
                        subscripts[keep] = _trace_subscripts(h, keep)
                    mine.append((subscripts[keep], mask))
        owned.append(tuple(mine))
    complements = np.array(
        [m for m in range(1 << n) if m not in seen], dtype=np.int64
    )
    balanced = np.array(
        [_mask(n, axes) for axes in combinations(range(n), n // 2)], dtype=np.int64
    )
    return _Plan(tuple(cuts), tuple(cut_masks), tuple(owned), complements, balanced)


def subset_purities(state: QState) -> np.ndarray:
    """Tr[rho_A^2] for all 2^n subsets A, indexed by mask, in one pass.

    Bit n - k of a mask stands for qubit k (qubit 1 is the most significant
    bit, as in basis indices); ``P[0] = P[2^n - 1] = 1``.  One Gram matrix
    rho_A is formed per cut A of size ceil(n/2) that contains qubit 1.  Each
    smaller marginal is a partial trace of one cut that contains it, and
    every other subset takes its complement's value, P(A) = P(A^c).
    """
    n = state.n
    plan = _plan(n)
    h = (n + 1) // 2
    full = (1 << n) - 1
    ten = state.amplitudes.reshape((2,) * n)
    table = np.empty(1 << n)
    for perm, cut_mask, owned in zip(plan.cuts, plan.cut_masks, plan.owned):
        mat = ten.transpose(perm).reshape(1 << h, 1 << (n - h))
        rho = mat @ mat.conj().T
        table[cut_mask] = np.vdot(rho, rho).real
        rho = rho.reshape((2,) * (2 * h))
        for subscripts, mask in owned:
            marginal = np.einsum(subscripts, rho)
            table[mask] = np.vdot(marginal, marginal).real
    table[0] = table[full] = 1.0
    table[plan.complements] = table[full ^ plan.complements]
    bad = np.flatnonzero((table > 1.0 + PURITY_TOL) | (table < -PURITY_TOL))
    if bad.size:
        raise StateError(
            f"purity {table[bad[0]]!r} of subset mask {bad[0]} outside [0, 1] "
            "beyond tolerance"
        )
    return np.clip(table, 0.0, 1.0, out=table)


@dataclass(frozen=True)
class PurityReport:
    """All balanced-bipartition purities of one state, plus summary stats."""

    n: int
    n_a: int
    subsets: tuple[tuple[int, ...], ...]
    purities: tuple[float, ...]
    mean: float
    min: float
    max: float

    @property
    def count(self) -> int:
        return len(self.subsets)


def purity_report(purities: np.ndarray) -> PurityReport:
    """The balanced-bipartition report read off a ``subset_purities`` table.

    pi_ME is the mean purity over all C(n, floor(n/2)) balanced marginals.
    For even n every unordered bipartition appears twice (once per side);
    purities coincide for pure states so the mean is unaffected.  The
    report lists every subset in lexicographic order.
    """
    n = purities.size.bit_length() - 1
    if n < 2:
        raise StateError(f"balanced bipartitions need n >= 2, got {n}")
    values = purities[_plan(n).balanced]
    return PurityReport(
        n=n,
        n_a=n // 2,
        subsets=tuple(combinations(range(1, n + 1), n // 2)),
        purities=tuple(values.tolist()),
        mean=float(np.mean(values)),
        min=float(values.min()),
        max=float(values.max()),
    )


def average_balanced_purity(state: QState) -> PurityReport:
    """pi_ME of one state: ``purity_report`` of its subset-purity table."""
    return purity_report(subset_purities(state))
