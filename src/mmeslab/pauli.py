"""Pauli-string expectations, correlation invariants F_S, weight sums, n-tangle.

The kernel never builds dense 2^n x 2^n operators.  A Pauli string acts on a
basis index through two n-bit masks: a flip mask (positions carrying x or y)
and a phase mask (positions carrying y or z), plus an overall power of i
equal to the number of y letters:

    sigma_p |i> = i^{n_y} * (-1)^{popcount(i & phase_mask)} |i ^ flip_mask>

so an expectation value is a single gather + signed dot product, O(2^n).

The weight sums M_k are the coefficients of the quantum weight enumerator.
For a flip mask f, the products b_f[i] = conj(a[i ^ f]) * a[i] are shared by
all 2^n phase masks z, so one Walsh-Hadamard transform of b_f gives every
<P_{f,z}>; binning <P>^2 by the weight popcount(f | z) gives the M_k.
``f_invariant`` is the per-string reference path for that transform.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Mapping

import numpy as np

from .purity import _BLOCK_AMPS, subset_purities
from .states import QState

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

    Reference path: one ``expectation`` per string, in lexicographic letter
    order.  ``weight_sums(..., "enumeration")`` gets the same squares from
    one Walsh-Hadamard transform per flip mask and is tested against this.
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


@lru_cache(maxsize=None)
def _hadamard(bits: int) -> np.ndarray:
    """Read-only Sylvester matrix H[x, y] = (-1)^popcount(x & y), 2^bits square."""
    idx = _indices(bits)
    h = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)
    h.flags.writeable = False
    return h


def _weight_enumerator(state: QState, k_max: int) -> np.ndarray:
    """M_w = sum of <P>^2 over the Pauli strings P of weight w, for w = 1..k_max.

    A string with flip mask f and phase mask z has weight popcount(f | z) and
    <P_{f,z}> = i^popcount(f & z) * (H b_f)[z], where b_f[i] =
    conj(a[i ^ f]) * a[i] and H is the Walsh-Hadamard transform over i, done
    as two small real matmuls.  Only flip masks with popcount(f) <= k_max can
    reach weight k_max, and they are transformed in blocks of at most
    ``_BLOCK_AMPS`` amplitudes.
    """
    n = state.n
    a = state.amplitudes
    idx = _indices(n)
    flips = idx[np.bitwise_count(idx) <= k_max]
    h_hi, h_lo = _hadamard((n + 1) // 2), _hadamard(n // 2)
    per_block = max(1, _BLOCK_AMPS >> n)
    sums = np.zeros(n + 1)
    worst_imag = 0.0
    for start in range(0, flips.size, per_block):
        f = flips[start : start + per_block, None]
        b = np.conj(a[idx ^ f]) * a
        parts = np.stack((b.real, b.imag)).reshape(2, f.size, h_hi.shape[0], -1)
        h_re, h_im = (h_hi @ parts @ h_lo).reshape(2, f.size, -1)
        # i^{n_y} with n_y odd swaps the real and imaginary parts (up to sign)
        odd = (np.bitwise_count(f & idx) & 1).astype(bool)
        real = np.where(odd, h_im, h_re)
        worst_imag = max(worst_imag, float(np.abs(np.where(odd, h_re, h_im)).max()))
        sums += np.bincount(
            np.bitwise_count(f | idx).ravel(), weights=(real * real).ravel(), minlength=n + 1
        )
    if worst_imag > IMAG_TOL:
        raise PauliError(f"non-Hermitian residue {worst_imag!r} in the weight enumerator")
    return sums[1 : k_max + 1]


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
    """M_k for k = 1..k_max, from the Pauli side or by Moebius inversion.

    ``enumeration`` squares every Pauli expectation of weight <= k_max: one
    Walsh-Hadamard transform per flip mask f with popcount(f) <= k_max, binned
    by popcount(f | z) (see ``_weight_enumerator``).  ``moebius`` derives the
    same sums from the subset-purity table (see ``moebius_weight_sums``).  The
    two share no code and cross-check each other.
    """
    if not 1 <= k_max <= state.n:
        raise PauliError(f"k_max must be in [1, {state.n}], got {k_max}")
    if strategy == "enumeration":
        m = tuple(_weight_enumerator(state, k_max).tolist())
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
