"""Reduced-state purities, the subset-purity table, the balanced average
and the search objective.

This is the ground-truth side of every identity check in the package: it
reshapes the amplitude vector and works with Gram matrices, never touching
the Pauli kernel.  ``subset_purities`` computes the purity of every subset
in one pass; pi_ME and every weight sum M_k are linear in that table.
``balanced_purities`` reads the balanced subsets off it, and
``average_balanced_purity`` returns their mean, pi_ME, as a float.
Every cut purity comes from the matrices of the cuts of h = ceil(n/2)
qubits that contain qubit 1, gathered from amplitudes with any leading axes
in the blocks of ``_cut_indices``, through the per-cut offsets of
``_plan(n)``, the one cached cut structure per n, or through the index of
``_one_block(n)`` when all cuts fit one block.  This module is the only one
that reads that layout.

The smaller marginals follow the run rule.  A cut whose leading run is
1..j (it holds qubits 1..j, not j + 1) owns A - D for each nonempty D within
1..j, and lexicographic order lists the cuts in groups of one j.  The table
stacks a few same-j cut Grams (over all states) and traces them as one tree:
node D is node "D minus its last qubit" with one more axis traced, and one
``np.vecdot`` squares each node.  ``subset_purity_tables`` runs this over a
stack of states at once, so the fit and the verifier share each call's
fixed cost among a chunk of states; ``subset_purities`` is that generator on
one state.

The search descends on ``_mean_purity_and_grad``, pi_ME and its gradient
read off the same cut blocks, in restart groups of ``_one_block_rows(n)``.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .states import QState, StateError, check_int

PURITY_TOL = 1e-10


def reduced_purity(state: QState, part_a: Iterable[int]) -> float:
    """Tr[rho_A^2] for the marginal on the qubit positions in part_a.

    Reshapes the amplitudes into a 2^|A| x 2^(n-|A|) matrix and takes the
    squared Frobenius norm of the Gram matrix built on the smaller side
    (identical spectra, half the work of forming rho_A at |A| > n/2).
    """
    n = state.n
    positions = sorted({check_int(p, "position", 1, n) for p in part_a})
    if not positions or len(positions) == n:
        raise StateError(f"part_a must be a proper nonempty subset of 1..{n}")
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


# Gathered amplitudes per block of cuts: 64 KB of complex128.  One 256 KB
# gather per tree batch (4 cuts of one n = 12 state) took ~610 minor page
# faults per op in a closed loop of n = 12 `evaluate` calls, against ~130
# at 64 KB, with no gain in op time (2 shared cores, numpy 2.4.6).
_BLOCK_AMPS = 1 << 12


def _bits(k: int) -> np.ndarray:
    """The (2^k, k) bit matrix of 0..2^k - 1, most significant bit first."""
    return np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1


class _Plan(NamedTuple):
    """The cuts of one n and how ``subset_purities`` covers all 2^n subsets
    with them.  The cuts are the subsets of h = ceil(n/2) qubits that contain
    qubit 1, lexicographic.  The run rule: a cut A whose leading run is 1..j
    (it holds qubits 1..j, not j + 1) owns the smaller subsets A - D for
    each nonempty D within 1..j, leaving out the empty A - A of the cut
    1..h.  Those are exactly the subsets whose first cut containing them is
    A, so the cuts and what they own cover each subset that lies in a cut
    once; every other subset takes its complement's value, P(A) = P(A^c).
    Nothing in it depends on the block size."""

    # Cut c's 2^h x 2^(n - h) matrix has the flat amplitude indices
    # ``rows[c][:, None] | cols[c]``; its mask is ``rows[c, -1]``.
    rows: np.ndarray
    cols: np.ndarray
    # (start, stop, j) of each group of consecutive cuts whose run is 1..j;
    # lexicographic order lists them by descending j, from j = h
    runs: tuple[tuple[int, int, int], ...]
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
    run = np.cumprod(cut_axes == np.arange(h), axis=1).sum(axis=1)
    edges = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(run)]
    runs = tuple((a, b, int(run[a])) for a, b in zip(edges, edges[1:]))
    # no cut holds the complements, nor the full set (the last mask)
    held = np.zeros(1 << n, dtype=bool)
    held[rows] = True
    complements = np.flatnonzero(~held[:-1])
    top = np.arange((1 << n) - 1, -1, -1)  # masks of one size descend lexicographically
    balanced = top[np.bitwise_count(top) == n // 2]
    for part in (rows, cols, complements, balanced):
        part.setflags(write=False)
    return _Plan(rows, cols, runs, complements, balanced)


@lru_cache(maxsize=None)
def _one_block(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cut's flat indices at once, of shape (cuts, 2^h, 2^(n - h)),
    and their inverse: with the cut stack flattened,
    ``stack.take(inverse, axis=-1)[..., c, :]`` puts cut c's entries back in
    amplitude order.  Built on first use, which is when every cut fits one
    block of ``_cut_indices``."""
    plan = _plan(n)
    index = plan.rows[:, :, None] | plan.cols[:, None, :]
    flat = index.reshape(len(plan.rows), -1)
    cuts = np.arange(len(plan.rows))[:, None]
    # an assignment, not an argsort: the first sort in a process costs ~1 MB
    inverse = np.empty_like(flat)
    inverse[cuts, flat] = cuts * flat.shape[1] + np.arange(flat.shape[1])
    for part in (index, inverse):
        part.setflags(write=False)
    return index, inverse


def _cut_indices(amps: np.ndarray, plan: _Plan, lo: int, hi: int):
    """The flat amplitude indices of the cuts lo..hi - 1 of ``plan``, in
    blocks that gather about ``_BLOCK_AMPS`` amplitudes from ``amps``, of
    shape (..., 2^n), over all its leading axes together; when every cut
    fits one block (cuts * amps.size <= ``_BLOCK_AMPS``) it is the
    one-block index of ``_one_block(n)``."""
    rows, cols = plan.rows, plan.cols
    if len(rows) * amps.size <= _BLOCK_AMPS:
        return [_one_block(amps.shape[-1].bit_length() - 1)[0][lo:hi]]
    step = max(1, _BLOCK_AMPS // amps.size)
    starts = range(lo, hi, step)
    return (rows[a:b, :, None] | cols[a:b, None, :] for a, b in zip(starts, [*starts[1:], hi]))


def _one_block_rows(n: int) -> int:
    """The most rows of n-qubit amplitudes, stacked, whose cuts all fit one
    block of ``_cut_indices`` (rows * cuts * 2^n <= ``_BLOCK_AMPS``), and at
    least 1: 1024 at n = 2, 85 at n = 4, 6 at n = 6 and 1 from n = 8 up."""
    return max(1, _BLOCK_AMPS // (len(_plan(n).rows) << n))


def _mean_purity_and_grad(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean Gram-norm purity over the balanced cuts (pi_ME at unit norm) of
    raw vectors of even n with any leading axes, and its Euclidean
    real-parameter gradient in complex form (real part = d/d re, imag part =
    d/d im); one value and one gradient per vector.

    The cuts holding qubit 1 suffice, since ||M M^H||_F = ||M^H M||_F.  Per
    cut matrix M, the derivative of ||M M^H||_F^2 with respect to conj(M) is
    2 G M for G = M M^H, so the gradient is 4 G M averaged over the cuts and
    put back in flat index order: by a gather through ``_one_block(n)``'s
    inverse when every cut fits one block (n <= 6), else by a scatter.  The
    value is read off the sum, since <M, G M> = tr(G M M^H) = ||G||_F^2.
    """
    lead = amps.shape[:-1]
    n = amps.shape[-1].bit_length() - 1
    plan = _plan(n)
    count = len(plan.rows)
    grad = np.zeros_like(amps)
    for idx in _cut_indices(amps, plan, 0, count):
        mats = amps.take(idx, axis=-1)
        prod = (mats @ mats.conj().swapaxes(-1, -2) @ mats).reshape(*lead, -1)  # G M per cut
        if len(idx) == count:  # one block: a gather through the cached inverse
            grad += prod.take(_one_block(n)[1], axis=-1).sum(axis=-2)
        else:  # cut c scattered into row c of its own 2^n amplitudes
            scattered = np.empty_like(prod)
            scattered[..., (idx + (np.arange(len(idx)) << n)[:, None, None]).ravel()] = prod
            grad += scattered.reshape(*lead, len(idx), -1).sum(axis=-2)
    value = np.vecdot(amps, grad).real / count
    grad *= 4.0 / count
    return value, grad


def _trace_tree(
    rho: np.ndarray, masks: np.ndarray, first: int, run: int, n: int, tables: np.ndarray
) -> None:
    """Write the purities of the marginals ``rho`` of shape (S, cuts, 2^k,
    2^k) to ``tables[:, masks]``, then recurse into each marginal that traces
    out one more cut position p, for ``first`` <= p < ``run``.  Every traced
    position lies below p, so p is kept axis p - (h - k).  A trace that would
    leave no axis (D = the whole cut 1..h) is skipped."""
    count, cuts, dim, _ = rho.shape
    flat = rho.reshape(count, cuts, dim * dim)
    tables[:, masks] = np.vecdot(flat, flat).real
    k = dim.bit_length() - 1
    if k == 1:
        return
    half = dim // 2
    for p in range(first, run):
        ahead = 1 << (p - (n + 1) // 2 + k)  # 2^(kept axes ahead of p's)
        axes = rho.reshape(count, cuts, ahead, 2, half // ahead, ahead, 2, -1)
        traced = axes[:, :, :, 0, :, :, 0] + axes[:, :, :, 1, :, :, 1]
        child = traced.reshape(count, cuts, half, half)
        _trace_tree(child, masks & ~(1 << (n - 1 - p)), p + 1, run, n, tables)


def _tables(amps: np.ndarray) -> np.ndarray:
    """The subset-purity tables of a stack of states, amplitudes (S, 2^n).

    The cuts go in batches of consecutive cuts with one run 1..j, of at
    most ``4 * _BLOCK_AMPS`` Gram entries over all S states (4 cuts of one
    n = 12 state, 2 of an n = 10 chunk).  A batch's matrices are gathered in
    the blocks of ``_cut_indices`` and their Grams written into one buffer,
    the root of one trace tree: the node for D, a nonempty subset of the
    run, is node "D minus its last qubit" with that qubit's axis traced, and
    one ``np.vecdot`` squares the marginal A - D of every cut A at once.
    """
    count, dim = amps.shape
    n = dim.bit_length() - 1
    plan = _plan(n)
    h = (n + 1) // 2
    step = max(1, 4 * _BLOCK_AMPS // (count << 2 * h))
    buffer = np.empty((count, min(step, len(plan.rows)), 1 << h, 1 << h), dtype=np.complex128)
    tables = np.empty((count, dim))
    for start, stop, run in plan.runs:
        for lo in range(start, stop, step):
            at = 0
            for idx in _cut_indices(amps, plan, lo, min(lo + step, stop)):
                mats = amps.take(idx, axis=-1)
                np.matmul(mats, mats.conj().swapaxes(-1, -2), out=buffer[:, at : at + len(idx)])
                at += len(idx)
            _trace_tree(buffer[:, :at], plan.rows[lo : lo + at, -1], 0, run, n, tables)
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
