"""Reduced-state purities, the subset-purity table and the balanced average.

This is the ground-truth side of every identity check in the package: it
reshapes the amplitude vector and works with Gram matrices, never touching
the Pauli kernel.  ``subset_purities`` computes the purity of every subset
in one pass; pi_ME and every weight sum M_k are linear in that table.
Every cut purity, here and in the search objective, comes from one kernel,
``_gram_blocks``, which gathers cut matrices through per-cut offsets from
amplitudes with any leading axes.  ``subset_purity_tables`` runs it over a
stack of states at once, so the fit and the verifier share each call's
fixed cost among a chunk of states; ``subset_purities`` is that generator
on one state.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple

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
    ten = state.amplitudes.reshape((2,) * n)
    mat = ten.transpose(axes + rest).reshape(1 << len(axes), -1)
    if 2 * len(axes) > n:
        mat = mat.T
    gram = mat @ mat.conj().T
    purity = float(np.sum(np.abs(gram) ** 2))
    if purity > 1.0 + PURITY_TOL or purity < -PURITY_TOL:
        raise StateError(f"purity {purity!r} outside [0, 1] beyond tolerance")
    return min(max(purity, 0.0), 1.0)


def _mask(n: int, axes: Iterable[int]) -> int:
    # axis q holds qubit q + 1, which is bit n - 1 - q of a mask
    return sum(1 << (n - 1 - q) for q in axes)


# Gathered amplitudes per block of cuts (and of flip masks in ``pauli``);
# larger blocks made the n = 12 table slower and raised its peak RSS.
_BLOCK_AMPS = 1 << 12


@lru_cache(maxsize=None)
def _offsets(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets of the Gram kernel's cuts at one size: every
    subset of ``size`` qubits, lexicographic, but at 2 * size >= n only those
    that contain qubit 1, since P(A) = P(A^c).  Cut c's 2^size x 2^(n - size)
    matrix has the flat amplitude indices ``rows[c][:, None] | cols[c]``."""
    base = np.arange(1 << n).reshape((2,) * n)
    cuts = [a for a in combinations(range(n), size) if 2 * size < n or a[0] == 0]
    rows = np.empty((len(cuts), 1 << size), dtype=np.intp)
    cols = np.empty((len(cuts), 1 << (n - size)), dtype=np.intp)
    for axes, row, col in zip(cuts, rows, cols):
        rest = tuple(q for q in range(n) if q not in axes)
        mat = base.transpose(axes + rest).reshape(row.size, col.size)
        row[:], col[:] = mat[:, 0], mat[0]
    for part in (rows, cols):
        part.setflags(write=False)
    return rows, cols


def _gram_blocks(amps: np.ndarray, size: int):
    """Per block of the cuts of ``_offsets``: their flat indices ``idx``, the
    matrices ``mats`` gathered from amplitudes of shape (..., 2^n) and the
    Gram matrices ``mats @ mats^H``.  Blocks hold about ``_BLOCK_AMPS``
    gathered amplitudes over all leading axes together."""
    n = amps.shape[-1].bit_length() - 1
    rows, cols = _offsets(n, size)
    step = max(1, _BLOCK_AMPS // amps.size)
    for start in range(0, len(rows), step):
        idx = rows[start : start + step, :, None] | cols[start : start + step, None, :]
        mats = amps.take(idx, axis=-1)
        yield idx, mats, mats @ mats.conj().swapaxes(-1, -2)


def _trace_subscripts(h: int, keep: tuple[int, ...]) -> str:
    """einsum subscripts that trace every axis of a stack of h-axis rho
    outside keep; the last letter labels the stack axis."""
    rows = _LETTERS[:h]
    cols = [_LETTERS[h + j] if j in keep else rows[j] for j in range(h)]
    out = "".join(rows[j] for j in keep) + "".join(cols[j] for j in keep)
    return f"{_LETTERS[-1]}{rows}{''.join(cols)}->{_LETTERS[-1]}{out}"


class _Plan(NamedTuple):
    """How ``subset_purities`` covers all 2^n subsets at one n."""

    cut_masks: np.ndarray  # per cut of ``_offsets(n, ceil(n/2))``
    # per cut: (partial-trace subscripts, size) of each smaller marginal it owns
    owned: tuple[tuple[tuple[str, int], ...], ...]
    owned_masks: dict[int, np.ndarray]  # per size: masks of those marginals, in order
    complements: np.ndarray  # masks filled from P(A) = P(A^c)
    balanced: np.ndarray  # masks of the size-floor(n/2) subsets, lexicographic


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    # Every subset of size < h lies in some size-h cut that contains qubit 1,
    # and every larger subset is the complement of one already covered.
    h = (n + 1) // 2
    rows = _offsets(n, h)[0]
    # row offset r of a cut is the mask of the cut qubits that r's bits pick
    cut_masks = rows[:, -1]
    subscripts = {}
    seen = {0, (1 << n) - 1, *cut_masks.tolist()}
    owned = []
    owned_masks = {size: [] for size in range(1, h)}
    for row in rows:
        mine = []
        for size in range(1, h):
            for keep in combinations(range(h), size):
                mask = int(row[_mask(h, keep)])
                if mask not in seen:
                    seen.add(mask)
                    if keep not in subscripts:
                        subscripts[keep] = _trace_subscripts(h, keep)
                    mine.append((subscripts[keep], size))
                    owned_masks[size].append(mask)
        owned.append(tuple(mine))
    complements = np.array(
        [m for m in range(1 << n) if m not in seen], dtype=np.int64
    )
    balanced = np.array(
        [_mask(n, axes) for axes in combinations(range(n), n // 2)], dtype=np.int64
    )
    owned_masks = {size: np.array(masks, dtype=np.intp) for size, masks in owned_masks.items()}
    return _Plan(cut_masks, tuple(owned), owned_masks, complements, balanced)


class _SquaredNorms:
    """Squared norms of ``total`` marginals of one size, several at a time.

    ``slot()`` hands out the next slot of a buffer (at most ``_BLOCK_AMPS``
    amplitudes, at least one slot) for a marginal to be written in place; a
    full buffer is squared by one ``np.vecdot``, slot by slot, as
    ``np.vdot`` squares one marginal.  One ``np.vecdot`` call per marginal
    made a single n = 12 table about 9 % slower.
    """

    def __init__(self, count: int, size: int, total: int):
        slots = min(total, max(1, _BLOCK_AMPS // (count << 2 * size)))
        self.buffer = np.empty((count, slots, 1 << 2 * size), dtype=np.complex128)
        shape = (count,) + (2,) * (2 * size)
        self.slots = [self.buffer[:, j].reshape(shape) for j in range(slots)]
        self.values: list[np.ndarray] = []
        self.filled = 0

    def slot(self) -> np.ndarray:
        if self.filled == len(self.slots):
            self._square()
        self.filled += 1
        return self.slots[self.filled - 1]

    def _square(self) -> None:
        used = self.buffer[:, : self.filled]
        self.values.append(np.vecdot(used, used).real)
        self.filled = 0

    def result(self) -> np.ndarray:
        """Each state's purities of the marginals, in the order written."""
        self._square()
        return np.concatenate(self.values, axis=1)


def _tables(amps: np.ndarray) -> np.ndarray:
    """The subset-purity tables of a stack of states, amplitudes (S, 2^n)."""
    count, dim = amps.shape
    n = dim.bit_length() - 1
    plan = _plan(n)
    h = (n + 1) // 2
    shape = (count,) + (2,) * (2 * h)
    cut_values = np.empty((count, len(plan.cut_masks)), dtype=np.complex128)
    marginals = {
        size: _SquaredNorms(count, size, len(masks))
        for size, masks in plan.owned_masks.items()
    }
    start = 0
    for _, _, grams in _gram_blocks(amps, h):
        stop = start + grams.shape[1]
        flat = grams.reshape(count, stop - start, -1)
        np.vecdot(flat, flat, out=cut_values[:, start:stop])
        for rho, owned in zip(grams.swapaxes(0, 1), plan.owned[start:stop]):
            rho = rho.reshape(shape)
            for subscripts, size in owned:
                np.einsum(subscripts, rho, out=marginals[size].slot())
        start = stop
    tables = np.empty((count, dim))
    tables[:, plan.cut_masks] = cut_values.real
    for size, squares in marginals.items():
        tables[:, plan.owned_masks[size]] = squares.result()
    tables[:, 0] = tables[:, -1] = 1.0
    tables[:, plan.complements] = tables[:, (dim - 1) ^ plan.complements]
    bad = np.argwhere((tables > 1.0 + PURITY_TOL) | (tables < -PURITY_TOL))
    if bad.size:
        row, mask = bad[0]
        raise StateError(
            f"purity {tables[row, mask]!r} of subset mask {mask} outside [0, 1] "
            "beyond tolerance"
        )
    return np.clip(tables, 0.0, 1.0, out=tables)


def subset_purity_tables(
    states: Iterable[QState],
) -> Iterator[tuple[QState, np.ndarray]]:
    """(state, ``subset_purities(state)``) for each state, in order.

    The states are read lazily, in chunks of at most ``2 * _BLOCK_AMPS``
    amplitudes (8 states at n = 10, 2 at n = 12, 1 above), and each chunk's
    tables come from one pass of the cut-Gram kernel over the stacked
    amplitudes, so every per-call cost is shared by the chunk.  All states
    must have the same n.
    """
    states = iter(states)
    n = None
    for first in states:
        n = first.n if n is None else n
        chunk = [first, *islice(states, max(1, 2 * _BLOCK_AMPS >> n) - 1)]
        odd = next((state.n for state in chunk if state.n != n), None)
        if odd is not None:
            raise StateError(f"subset-purity tables need one n; got n={n} and n={odd}")
        yield from zip(chunk, _tables(np.stack([state.amplitudes for state in chunk])))


def subset_purities(state: QState) -> np.ndarray:
    """Tr[rho_A^2] for all 2^n subsets A, indexed by mask, in one pass.

    Bit n - k of a mask stands for qubit k (qubit 1 is the most significant
    bit, as in basis indices); ``P[0] = P[2^n - 1] = 1``.  One Gram matrix
    rho_A is formed per cut A of size ceil(n/2) that contains qubit 1.  Each
    smaller marginal is a partial trace of one cut that contains it, and
    every other subset takes its complement's value, P(A) = P(A^c).
    """
    return next(subset_purity_tables([state]))[1]


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


def balanced_purities(purities: np.ndarray) -> np.ndarray:
    """The purities of the C(n, floor(n/2)) balanced subsets, read off a
    ``subset_purities`` table in lexicographic order; pi_ME is their mean.

    For even n every unordered bipartition appears twice (once per side);
    purities coincide for pure states so the mean is unaffected.
    """
    n = purities.size.bit_length() - 1
    if n < 2:
        raise StateError(f"balanced bipartitions need n >= 2, got {n}")
    return purities[_plan(n).balanced]


def purity_report(purities: np.ndarray) -> PurityReport:
    """The balanced-bipartition report read off a ``subset_purities`` table,
    every subset listed in lexicographic order (``balanced_purities``)."""
    values = balanced_purities(purities)
    n = purities.size.bit_length() - 1
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
