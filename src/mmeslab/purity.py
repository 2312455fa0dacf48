"""Reduced-state purities, the subset-purity table and the balanced average.

This is the ground-truth side of every identity check in the package: it
reshapes the amplitude vector and works with Gram matrices, never touching
the Pauli kernel.  ``subset_purities`` computes the purity of every subset
in one pass; pi_ME and every weight sum M_k are linear in that table.
``balanced_purities`` reads the balanced subsets off it, and
``average_balanced_purity`` returns their mean, pi_ME, as a float.
Every cut purity, here and in the search objective, comes from one kernel,
``_gram_blocks``, which gathers the matrices of the cuts of ceil(n/2) qubits
that contain qubit 1, from amplitudes with any leading axes, through the
per-cut offsets of ``_plan(n)``, the one cached cut structure per n.
``subset_purity_tables`` runs it over a stack of states at once, so the fit
and the verifier share each call's fixed cost among a chunk of states;
``subset_purities`` is that generator on one state.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, islice
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


# Gathered amplitudes per block of cuts (and of flip masks in ``pauli``);
# larger blocks made the n = 12 table slower and raised its peak RSS.
_BLOCK_AMPS = 1 << 12


def _trace_subscripts(h: int, keep: tuple[int, ...]) -> str:
    """einsum subscripts that trace every axis of a stack of h-axis rho
    outside keep; the last letter labels the stack axis."""
    rows = _LETTERS[:h]
    cols = [_LETTERS[h + j] if j in keep else rows[j] for j in range(h)]
    out = "".join(rows[j] for j in keep) + "".join(cols[j] for j in keep)
    return f"{_LETTERS[-1]}{rows}{''.join(cols)}->{_LETTERS[-1]}{out}"


def _bits(k: int) -> np.ndarray:
    """The (2^k, k) bit matrix of 0..2^k - 1, most significant bit first."""
    return np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1


class _Plan(NamedTuple):
    """The cuts of one n and how ``subset_purities`` covers all 2^n subsets
    with them.  The cuts are the subsets of h = ceil(n/2) qubits that contain
    qubit 1, lexicographic.  Every smaller subset lies inside one of them,
    every other subset has its complement inside one, and P(A) = P(A^c)."""

    # Cut c's 2^h x 2^(n - h) matrix has the flat amplitude indices
    # ``rows[c][:, None] | cols[c]``; its mask is ``rows[c, -1]``.
    rows: np.ndarray
    cols: np.ndarray
    # Only when every cut fits one block of ``_gram_blocks`` (cuts * 2^n <=
    # ``_BLOCK_AMPS``, n <= 7), else None: every cut's flat indices at once,
    # and their inverse.  With the cut stack flattened,
    # ``stack.take(inverse, axis=-1)[..., c, :]`` puts cut c's entries back
    # in amplitude order.
    index: np.ndarray | None
    inverse: np.ndarray | None
    # per cut: (partial-trace subscripts, size) of each smaller marginal it owns
    owned: tuple[tuple[tuple[str, int], ...], ...]
    owned_masks: dict[int, np.ndarray]  # per size: masks of those marginals, in order
    complements: np.ndarray  # masks filled from P(A) = P(A^c)
    balanced: np.ndarray  # masks of the size-floor(n/2) subsets, lexicographic


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    h = (n + 1) // 2
    # Complements reverse the lexicographic order of subsets, so the other
    # qubits of the cuts, in cut order, are the (n - h)-subsets of 2..n reversed.
    cut_axes = np.array([(0, *rest) for rest in combinations(range(1, n), h - 1)])
    rest_axes = np.array(list(combinations(range(1, n), n - h)), dtype=np.intp)[::-1]
    # axis q holds qubit q + 1, bit n - 1 - q of a mask; a row offset sets
    # the cut qubits that its bits pick, the first cut qubit on its top bit
    weights = 1 << (n - 1 - np.arange(n))
    rows = weights[cut_axes] @ _bits(h).T
    cols = weights[rest_axes] @ _bits(n - h).T
    # Each smaller subset is owned by the first cut that contains it, and
    # comes from the row offset that picks its qubits of that cut.
    cuts = np.arange(len(rows))[:, None]
    owner = np.full(1 << n, len(rows))
    np.minimum.at(owner, rows, cuts)
    keeps = [keep for size in range(1, h) for keep in combinations(range(h), size)]
    picks = rows[:, [sum(1 << (h - 1 - j) for j in keep) for keep in keeps]]
    mine = owner[picks] == cuts
    entries = [(_trace_subscripts(h, keep), len(keep)) for keep in keeps]
    owned = tuple(tuple(compress(entries, row)) for row in mine.tolist())
    sizes = np.array([len(keep) for keep in keeps])
    owned_masks = {
        size: picks[:, sizes == size][mine[:, sizes == size]] for size in range(1, h)
    }
    # no cut holds the complements, nor the full set (the last mask)
    complements = np.flatnonzero(owner[:-1] == len(rows))
    top = np.arange((1 << n) - 1, -1, -1)  # masks of one size descend lexicographically
    balanced = top[np.bitwise_count(top) == n // 2]
    index = inverse = None
    if len(rows) << n <= _BLOCK_AMPS:
        index = rows[:, :, None] | cols[:, None, :]
        flat = index.reshape(len(rows), -1)
        # an assignment, not an argsort: the first sort in a process costs ~1 MB
        inverse = np.empty_like(flat)
        inverse[cuts, flat] = cuts * flat.shape[1] + np.arange(flat.shape[1])
    for part in (rows, cols, index, inverse, complements, balanced, *owned_masks.values()):
        if part is not None:
            part.setflags(write=False)
    return _Plan(rows, cols, index, inverse, owned, owned_masks, complements, balanced)


def _gram_blocks(amps: np.ndarray):
    """Per block of the cuts of ``_plan``: their flat indices ``idx``, the
    matrices ``mats`` gathered from amplitudes of shape (..., 2^n) and the
    Gram matrices ``mats @ mats^H``.  Blocks hold about ``_BLOCK_AMPS``
    gathered amplitudes over all leading axes together; a cut set that fits
    one block takes the plan's one-block index."""
    plan = _plan(amps.shape[-1].bit_length() - 1)
    rows, cols = plan.rows, plan.cols
    step = max(1, _BLOCK_AMPS // amps.size)
    if step >= len(rows):  # cuts * 2^n <= _BLOCK_AMPS, or one cut: the plan has the index
        blocks = [plan.index]
    else:
        blocks = (
            rows[start : start + step, :, None] | cols[start : start + step, None, :]
            for start in range(0, len(rows), step)
        )
    for idx in blocks:
        mats = amps.take(idx, axis=-1)
        yield idx, mats, mats @ mats.conj().swapaxes(-1, -2)


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
    cut_values = np.empty((count, len(plan.rows)), dtype=np.complex128)
    marginals = {
        size: _SquaredNorms(count, size, len(masks))
        for size, masks in plan.owned_masks.items()
    }
    start = 0
    for _, _, grams in _gram_blocks(amps):
        stop = start + grams.shape[1]
        flat = grams.reshape(count, stop - start, -1)
        np.vecdot(flat, flat, out=cut_values[:, start:stop])
        for rho, owned in zip(grams.swapaxes(0, 1), plan.owned[start:stop]):
            rho = rho.reshape(shape)
            for subscripts, size in owned:
                np.einsum(subscripts, rho, out=marginals[size].slot())
        start = stop
    tables = np.empty((count, dim))
    tables[:, plan.rows[:, -1]] = cut_values.real
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


def balanced_purities(purities: np.ndarray) -> np.ndarray:
    """The purities of the C(n, floor(n/2)) balanced subsets, read off a
    ``subset_purities`` table in lexicographic order; pi_ME is their mean.

    For even n every unordered bipartition appears twice (once per side);
    purities coincide for pure states so the mean is unaffected.
    """
    n = purities.size.bit_length() - 1
    if purities.size != 1 << n:
        raise StateError(f"a subset-purity table has 2^n entries; got {purities.size}")
    if n < 2:
        raise StateError(f"balanced bipartitions need n >= 2, got {n}")
    return purities[_plan(n).balanced]


def average_balanced_purity(state: QState) -> float:
    """pi_ME of one state: the mean of ``balanced_purities`` of its
    subset-purity table."""
    return float(np.mean(balanced_purities(subset_purities(state))))
