"""Pauli-string expectations, correlation invariants F_S, weight sums, n-tangle.

The kernel never builds dense 2^n x 2^n operators.  A Pauli string acts on a
basis index through two n-bit masks: a flip mask (positions carrying x or y)
and a phase mask (positions carrying y or z), plus an overall power of i
equal to the number of y letters:

    sigma_p |i> = i^{n_y} * (-1)^{popcount(i & phase_mask)} |i ^ flip_mask>

so an expectation value is a single gather + signed dot product, O(2^n).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .purity import subset_purities
from .states import QState, StateError

IMAG_TOL = 1e-10

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


class PauliError(ValueError):
    """Malformed Pauli string or incompatible operands."""


def _bit(n: int, position: int) -> int:
    # qubit 1 is the most significant bit of the basis index
    return 1 << (n - position)


@dataclass(frozen=True)
class PauliString:
    """Pauli letters on a subset of qubit positions; identity elsewhere."""

    n: int
    letters: Mapping[int, str]

    def __post_init__(self):
        letters = dict(self.letters)
        for pos, letter in letters.items():
            if not 1 <= pos <= self.n:
                raise PauliError(f"position {pos} out of range for n={self.n}")
            if letter not in ("x", "y", "z"):
                raise PauliError(f"bad Pauli letter {letter!r} at position {pos}")
        object.__setattr__(self, "letters", letters)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.letters)

    @property
    def weight(self) -> int:
        return len(self.letters)

    def masks(self) -> tuple[int, int, int]:
        """(flip_mask, phase_mask, number of y letters)."""
        flip = phase = ny = 0
        for pos, letter in self.letters.items():
            b = _bit(self.n, pos)
            if letter in ("x", "y"):
                flip |= b
            if letter in ("y", "z"):
                phase |= b
            if letter == "y":
                ny += 1
        return flip, phase, ny


def _indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint32)


def _signs(idx: np.ndarray, mask: int) -> np.ndarray:
    par = np.bitwise_count(idx & np.uint32(mask)).astype(np.int8) & 1
    return 1.0 - 2.0 * par


def expectation(state: QState, p: PauliString) -> float:
    """<psi| sigma_p |psi>, returned as a real number.

    Pauli strings are Hermitian; an imaginary residue above 1e-10 signals an
    encoding or numerical bug and raises.
    """
    if p.n != state.n:
        raise PauliError(f"Pauli string on {p.n} qubits vs state on {state.n}")
    a = state.amplitudes
    flip, phase, ny = p.masks()
    idx = _indices(state.n)
    val = _I_POWERS[ny % 4] * np.dot(
        _signs(idx, phase), np.conj(a[idx ^ np.uint32(flip)]) * a
    )
    if abs(val.imag) > IMAG_TOL:
        raise PauliError(f"non-Hermitian residue {val.imag!r} for {p.letters}")
    return float(val.real)


def f_invariant(state: QState, subset: Iterable[int]) -> float:
    """F_S: sum of squared expectations over all 3^|S| letter assignments.

    Reference implementation (per-string loop in lexicographic letter
    order); ``weight_sums`` uses a batched kernel cross-checked against
    this one.
    """
    positions = sorted(set(subset))
    if not positions:
        raise PauliError("F_S needs a nonempty subset")
    total = 0.0
    for letters in product("xyz", repeat=len(positions)):
        total += expectation(
            state, PauliString(state.n, dict(zip(positions, letters)))
        ) ** 2
    return total


def _f_invariant_batched(state: QState, positions: Sequence[int]) -> float:
    """F_S via one gather per flip set and a Walsh-Hadamard pass.

    For a fixed set T of flipping positions (x or y; z on S\\T) the products
    conj(a[i^f])*a[i] are shared by all 2^|T| placements of y, whose phase
    masks differ only inside S; grouping indices by their S-bits reduces all
    those expectations to one length-2^|S| Hadamard transform.
    """
    n, k = state.n, len(positions)
    a = state.amplitudes
    axes = [p - 1 for p in positions]
    rest = [q for q in range(n) if q not in axes]
    idx = _indices(n)
    full = (1 << k) - 1
    total = 0.0
    worst_imag = 0.0
    for t_pat in range(1 << k):
        flip = 0
        for j in range(k):
            if (t_pat >> (k - 1 - j)) & 1:
                flip |= _bit(n, positions[j])
        b = np.conj(a[idx ^ np.uint32(flip)]) * a
        t = (
            b.reshape((2,) * n)
            .transpose(axes + rest)
            .reshape(1 << k, 1 << (n - k))
            .sum(axis=1)
        )
        h = _fwht(t)
        z_pat = full & ~t_pat
        # iterate the y placements inside the flip set in increasing order
        y_pat = 0
        while True:
            val = _I_POWERS[int(y_pat).bit_count() % 4] * h[y_pat | z_pat]
            worst_imag = max(worst_imag, abs(val.imag))
            total += val.real * val.real
            if y_pat == t_pat:
                break
            y_pat = (y_pat - t_pat) & t_pat  # next subset of t_pat
    if worst_imag > IMAG_TOL:
        raise PauliError(f"non-Hermitian residue {worst_imag!r} in F_S kernel")
    return total


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-place-free Walsh-Hadamard transform: out[q] = sum_j (-1)^{|j&q|} v[j]."""
    out = v.copy()
    h = 1
    while h < out.size:
        out = out.reshape(-1, 2, h)
        top, bot = out[:, 0, :].copy(), out[:, 1, :].copy()
        out[:, 0, :] = top + bot
        out[:, 1, :] = top - bot
        out = out.reshape(-1)
        h *= 2
    return out


@dataclass(frozen=True)
class WeightSums:
    """M_k = sum of F_S over all size-k subsets, for k = 1..k_max."""

    n: int
    m: tuple[float, ...]
    strategy: str

    @property
    def k_max(self) -> int:
        return len(self.m)


def weight_sums(state: QState, k_max: int, strategy: str = "enumeration") -> WeightSums:
    """M_k for k = 1..k_max, by direct enumeration or Moebius inversion.

    ``enumeration`` sums F_S over all C(n, k) subsets in lexicographic
    order.  ``moebius`` derives the same sums from the subset-purity table
    (see ``moebius_weight_sums``).
    """
    if not 1 <= k_max <= state.n:
        raise PauliError(f"k_max must be in [1, {state.n}], got {k_max}")
    if strategy == "enumeration":
        m = tuple(
            float(
                sum(
                    _f_invariant_batched(state, positions)
                    for positions in combinations(range(1, state.n + 1), k)
                )
            )
            for k in range(1, k_max + 1)
        )
    elif strategy == "moebius":
        m = moebius_weight_sums(subset_purities(state), k_max)
    else:
        raise PauliError(f"unknown strategy {strategy!r}")
    return WeightSums(state.n, m, strategy)


def moebius_weight_sums(purities: np.ndarray, k_max: int) -> tuple[float, ...]:
    """M_1..M_k_max from a ``subset_purities`` table by binomial Moebius inversion.

    With G_m = sum over |A|=m of 2^m * purity(A) and M_0 = 1,

        G_m = sum_{k<=m} C(n-k, m-k) * M_k.
    """
    n = purities.size.bit_length() - 1
    if not 1 <= k_max <= n:
        raise PauliError(f"k_max must be in [1, {n}], got {k_max}")
    sizes = np.bitwise_count(np.arange(purities.size, dtype=np.uint32))
    per_size = np.bincount(sizes, weights=purities, minlength=n + 1)
    m = [1.0]  # M_0 = F_empty = 1
    for size in range(1, k_max + 1):
        g = (1 << size) * float(per_size[size])
        m.append(g - sum(comb(n - k, size - k) * m[k] for k in range(size)))
    return tuple(m[1:])


def n_tangle(state: QState) -> float:
    """|<psi| sigma_y^(x n) |psi*>|^2, defined for even n only.

    sigma_y^(x n) sends basis index i to its bitwise complement with phase
    i^n * (-1)^popcount(i), so the overlap is a single O(2^n) sum.
    """
    state.require_even()
    n = state.n
    a = state.amplitudes
    idx = _indices(n)
    comp = idx ^ np.uint32((1 << n) - 1)
    val = _I_POWERS[n % 4] * np.dot(_signs(idx, (1 << n) - 1), np.conj(a) * np.conj(a[comp]))
    tau = float(abs(val) ** 2)
    if tau > 1.0 + 1e-12:
        raise PauliError(f"n-tangle {tau!r} exceeds 1 beyond tolerance")
    return min(tau, 1.0)
