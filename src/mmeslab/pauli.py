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
<P_{f,z}>; binning <P>^2 by the weight popcount(f | z) gives the M_k.  Up
to weight k_max, f needs only the z with popcount(z & ~f) <= k_max -
popcount(f), so every transform, at every n and k_max, is restricted to
those rows and columns of its two Hadamard factors (``_flip_groups``).
``f_invariant`` is the per-string reference path for that transform.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Mapping

import numpy as np

from .purity import subset_purities
from .states import QState, check_int

IMAG_TOL = 1e-10

# Amplitudes per block of flip masks; larger blocks raised the n = 12,
# k <= 2 peak RSS (by 2.0 MB at 2^14, 6.7 MB at 2^16).
_BLOCK_AMPS = 1 << 12

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
        n = check_int(self.n, "n", 1, None, PauliError)
        letters = {}
        for pos, letter in self.letters.items():
            pos = check_int(pos, "position", 1, n, PauliError)
            if letter not in ("x", "y", "z"):
                raise PauliError(f"bad Pauli letter {letter!r} at position {pos}")
            letters[pos] = letter
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

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
    positions = sorted({check_int(p, "position", 1, state.n, PauliError) for p in subset})
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


@dataclass(frozen=True)
class _FlipGroup:
    """Flip masks transformed alike by ``_weight_enumerator``.

    Flip mask ``flips[j]`` is transformed onto the phase masks whose hi part
    is in ``rows[hi_part[j]]`` and whose lo part is in ``cols[lo_part[j]]``.
    """

    flips: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    hi_part: np.ndarray
    lo_part: np.ndarray


def _kept(parts: np.ndarray, bits: int, spare: int) -> np.ndarray:
    """Per flip-mask part f, the phase-mask parts z in [0, 2^bits) with
    popcount(z & ~f) <= spare, one row each (rows have equal lengths when
    the parts share a popcount)."""
    keep = np.bitwise_count(_indices(bits) & ~parts[:, None]) <= spare
    return np.nonzero(keep)[1].reshape(parts.size, -1)


@lru_cache(maxsize=None)
def _flip_groups(n: int, k_max: int) -> tuple[_FlipGroup, ...]:
    """The flip masks with popcount <= k_max, grouped for ``_weight_enumerator``.

    A string with flip mask f = (f_hi, f_lo) and phase mask z = (z_hi, z_lo)
    has weight popcount(f) + popcount(z_hi & ~f_hi) + popcount(z_lo & ~f_lo),
    so f can reach weight <= k_max only on the rows z_hi and the columns z_lo
    that have popcount(z & ~f) <= k_max - popcount(f) on their side.  Flip
    masks whose hi and lo parts have the same popcounts keep equally many
    rows and columns, and form one group, which lists the selection of each
    distinct part once.  Built without sort-based numpy calls: the first one
    in a process costs ~1 MB of RSS.
    """
    hi, lo = (n + 1) // 2, n // 2
    parts_hi, parts_lo = _indices(hi), _indices(lo)
    groups = []
    for w_hi in range(min(hi, k_max) + 1):
        f_hi = parts_hi[np.bitwise_count(parts_hi) == w_hi]
        for w_lo in range(min(lo, k_max - w_hi) + 1):
            f_lo = parts_lo[np.bitwise_count(parts_lo) == w_lo]
            flips = ((f_hi[:, None] << lo) | f_lo).ravel()
            spare = k_max - w_hi - w_lo
            rows, cols = _kept(f_hi, hi, spare), _kept(f_lo, lo, spare)
            hi_part, lo_part = np.divmod(np.arange(flips.size), f_lo.size)
            groups.append(_FlipGroup(flips, rows, cols, hi_part, lo_part))
    return tuple(groups)


def _weight_enumerator(state: QState, k_max: int) -> np.ndarray:
    """M_w = sum of <P>^2 over the Pauli strings P of weight w, for w = 1..k_max.

    A string with flip mask f and phase mask z has weight popcount(f | z) and
    <P_{f,z}> = i^popcount(f & z) * (H b_f)[z], where b_f[i] =
    conj(a[i ^ f]) * a[i] and H is the Walsh-Hadamard transform over i.  It
    is done as two small real matmuls on b_f as a 2^hi x 2^lo matrix (hi =
    ceil(n/2) leading bits of i): ``_hadamard(hi)`` on the left and
    ``_hadamard(lo)`` on the right.  Only flip masks with popcount(f) <=
    k_max can reach weight k_max, and at every n and k_max only the Hadamard
    rows and columns that ``_flip_groups`` keeps for f are multiplied.  Flip
    masks are transformed in blocks of at most ``_BLOCK_AMPS`` amplitudes,
    and strings formed beyond weight k_max are dropped when binning.
    """
    n = state.n
    a = state.amplitudes
    conj_a = np.conj(a)
    idx = _indices(n)
    hi, lo = (n + 1) // 2, n // 2
    h_hi, h_lo = _hadamard(hi), _hadamard(lo)
    per_block = max(1, _BLOCK_AMPS >> n)
    sums = np.zeros(n + 1)
    worst_imag = 0.0
    for group in _flip_groups(n, k_max):
        for start in range(0, group.flips.size, per_block):
            block = slice(start, start + per_block)
            f = group.flips[block, None]
            b = conj_a.take(idx ^ f) * a
            parts = np.array((b.real, b.imag)).reshape(2, f.size, 1 << hi, 1 << lo)
            rows, cols = group.rows[group.hi_part[block]], group.cols[group.lo_part[block]]
            z = ((rows << lo)[:, :, None] | cols[:, None, :]).reshape(f.size, -1)
            h = h_hi[rows] @ parts @ h_lo[cols].swapaxes(1, 2)
            h_re, h_im = h.reshape(2, f.size, -1)
            # i^{n_y} with n_y odd swaps the real and imaginary parts (up to sign)
            odd = (np.bitwise_count(f & z) & 1).astype(bool)
            real = np.where(odd, h_im, h_re)
            worst_imag = max(worst_imag, float(np.abs(np.where(odd, h_re, h_im)).max()))
            sums += np.bincount(
                np.bitwise_count(f | z).ravel(), weights=(real * real).ravel(), minlength=n + 1
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
    Walsh-Hadamard transform per flip mask f with popcount(f) <= k_max, onto
    the phase masks z that can still reach weight k_max, binned by
    popcount(f | z) (see ``_weight_enumerator``).  ``moebius`` derives the
    same sums from the subset-purity table (see ``moebius_weight_sums``).  The
    two share no code and cross-check each other.
    """
    k_max = check_int(k_max, "k_max", 1, state.n, PauliError)
    if strategy == "enumeration":
        m = tuple(_weight_enumerator(state, k_max).tolist())
    elif strategy == "moebius":
        m = moebius_weight_sums(subset_purities(state), k_max)
    else:
        raise PauliError(f"unknown strategy {strategy!r}")
    return WeightSums(state.n, m, strategy)


@lru_cache(maxsize=None)
def size_to_weight(n: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) integer matrix T with M_k = sum_m T[k, m] * S_m.

    S_m is the sum of the purities of the size-m subsets (S_0 = 1) and M_k
    the weight-k sum (M_0 = 1).  T[k, m] = (-1)^(k-m) * C(n-m, k-m) * 2^m for
    m <= k and 0 above the diagonal: the binomial inverse of

        2^m * S_m = sum_{k<=m} C(n-k, m-k) * M_k.

    Exact integers, cached per n: each row of |T| sums to 2^n.
    """
    rows = [
        [(-1) ** (k - m) * comb(n - m, k - m) * 2**m if m <= k else 0 for m in range(n + 1)]
        for k in range(n + 1)
    ]
    t = np.array(rows, dtype=np.int64)
    t.flags.writeable = False
    return t


def moebius_weight_sums(purities: np.ndarray, k_max: int) -> tuple[float, ...]:
    """M_1..M_k_max from a ``subset_purities`` table: ``size_to_weight`` applied
    to the table's per-size sums."""
    n = purities.size.bit_length() - 1
    if n < 1 or purities.size != 1 << n:
        raise PauliError(f"a subset-purity table has 2^n entries, n >= 1; got {purities.size}")
    k_max = check_int(k_max, "k_max", 1, n, PauliError)
    sizes = np.bitwise_count(np.arange(purities.size, dtype=np.uint32))
    per_size = np.bincount(sizes, weights=purities, minlength=n + 1)
    return tuple((size_to_weight(n)[1 : k_max + 1] @ per_size).tolist())


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
