"""n-qubit pure states: construction, transformation, and file round-trip.

Convention used everywhere in this package: qubit 1 is the most significant
bit of the basis index, so for ``make_basis_state(n, i)`` qubit k carries the
bit ``(i >> (n - k)) & 1``.  Amplitude arrays are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-12
LOAD_NORM_TOL = 1e-6
MAX_QUBITS = 16

STATE_FORMAT = "mmeslab-state-v1"


class StateError(ValueError):
    """Invalid state construction or malformed state file."""


@dataclass(frozen=True)
class QState:
    """Normalized pure state of ``n`` qubits as 2**n complex amplitudes."""

    n: int
    amplitudes: np.ndarray
    meta: Mapping[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (1 <= self.n <= MAX_QUBITS):
            raise StateError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise StateError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got {amps.shape}"
            )
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
            raise StateError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def require_even(self) -> None:
        if self.n % 2:
            raise StateError(f"operation requires an even qubit count, got n={self.n}")


def _normalized(n: int, amps: np.ndarray, meta: Mapping | None = None) -> QState:
    amps = np.asarray(amps, dtype=np.complex128)
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if norm == 0.0:
        raise StateError("cannot normalize the zero vector")
    return QState(n, amps / norm, dict(meta or {}))


def make_basis_state(n: int, index: int) -> QState:
    """Computational basis state |index> on n qubits."""
    if not 0 <= index < (1 << n):
        raise StateError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return QState(n, amps)


def make_ghz(n: int) -> QState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise StateError(f"GHZ state needs n >= 2, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return QState(n, amps)


def make_w(n: int) -> QState:
    """Equal superposition of all single-excitation basis states."""
    if n < 2:
        raise StateError(f"W state needs n >= 2, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    for k in range(n):
        amps[1 << k] = 1.0 / math.sqrt(n)
    return QState(n, amps)


# The published 8-qubit candidate MMES, transcribed term by term from the
# printed display: four additive lines, each the product of a bracket on
# qubits 1-4 and a bracket on qubits 5-8, overall factor 1/8.  Each token is
# a signed 4-bit basis string.  Two factors in the display are suspect
# (likely typos); they are encoded exactly as printed and surfaced through
# the raw-norm metadata and the invariant audit, never silently corrected.
_PSI_M8_LINES = [
    ("+0000 +1110 +0101 +1011", "+0000 -1110 +0001 -1111"),
    ("+0010 +1100 +0001 -1111", "+0000 +1110 +1001 +0111"),
    ("+0100 +1010 +1001 +0111", "+0000 +1110 -0101 -1011"),
    ("+0000 -1110 +0101 -1011", "+0000 -1110 +1001 -1011"),
]


def _bracket(tokens: str) -> np.ndarray:
    v = np.zeros(16, dtype=np.complex128)
    for tok in tokens.split():
        sign = 1.0 if tok[0] == "+" else -1.0
        v[int(tok[1:], 2)] += sign
    return v


def make_psi_m8() -> QState:
    """The published 8-qubit state, encoded verbatim from its printed form.

    The pre-normalization norm is recorded under ``meta["raw_norm"]``; the
    returned state is normalized.
    """
    raw = np.zeros(256, dtype=np.complex128)
    for a_tokens, b_tokens in _PSI_M8_LINES:
        raw += np.kron(_bracket(a_tokens), _bracket(b_tokens))
    raw /= 8.0
    raw_norm = math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    return _normalized(8, raw, meta={"raw_norm": raw_norm})


def random_state(n: int, seed: int) -> QState:
    """Haar-random pure state, deterministic for a fixed (n, seed).

    Uses a counter-based generator (Philox) so derived parallel streams
    stay reproducible across thread counts.
    """
    if n < 1:
        raise StateError(f"need n >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal(1 << (n + 1))
    amps = x[: 1 << n] + 1j * x[1 << n :]
    return _normalized(n, amps)


def conjugate(state: QState) -> QState:
    """Componentwise complex conjugate in the computational basis."""
    return QState(state.n, np.conj(state.amplitudes), dict(state.meta))


def permute_qubits(state: QState, perm: Sequence[int]) -> QState:
    """Relabel qubits: output qubit k is input qubit perm[k-1] (1-based)."""
    if sorted(perm) != list(range(1, state.n + 1)):
        raise StateError(f"perm must be a permutation of 1..{state.n}, got {perm}")
    ten = state.amplitudes.reshape((2,) * state.n)
    out = ten.transpose([p - 1 for p in perm]).reshape(state.dim)
    return QState(state.n, out.copy())


def apply_single_qubit_unitary(state: QState, qubit: int, u: np.ndarray) -> QState:
    """Apply a 2x2 unitary to one qubit (1-based position)."""
    if not 1 <= qubit <= state.n:
        raise StateError(f"qubit {qubit} out of range for n={state.n}")
    u = np.asarray(u, dtype=np.complex128)
    left = 1 << (qubit - 1)
    right = 1 << (state.n - qubit)
    ten = state.amplitudes.reshape(left, 2, right)
    out = np.einsum("ab,ibj->iaj", u, ten).reshape(state.dim)
    return _normalized(state.n, out)


def apply_local_unitaries(state: QState, unitaries: Iterable[np.ndarray]) -> QState:
    """Apply an independent 2x2 unitary to each qubit in order."""
    out = state
    for k, u in enumerate(unitaries, start=1):
        out = apply_single_qubit_unitary(out, k, u)
    return out


def save_state(state: QState, destination: str | os.PathLike) -> None:
    """Write a mmeslab-state-v1 file (atomic: temp file + rename)."""
    doc = {
        "format": STATE_FORMAT,
        "n": state.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    destination = os.fspath(destination)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(destination)) or ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(source: str | os.PathLike, renormalize: bool = False) -> QState:
    """Read a mmeslab-state-v1 file.

    Rejects norms off by more than 1e-6 unless ``renormalize`` is set, in
    which case the state is rescaled and a warning is emitted.
    """
    with open(source, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateError(f"malformed state file {source}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise StateError(f"{source}: not a {STATE_FORMAT} document")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise StateError(f"{source}: bad qubit count {n!r}")
    pairs = doc.get("amplitudes")
    if not isinstance(pairs, list) or len(pairs) != (1 << n):
        got = len(pairs) if isinstance(pairs, list) else pairs
        raise StateError(f"{source}: expected {1 << n} amplitudes, got {got}")
    try:
        arr = np.array([[float(re), float(im)] for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise StateError(f"{source}: bad amplitude entry: {exc}") from exc
    amps = arr[:, 0] + 1j * arr[:, 1]
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if not abs(norm - 1.0) <= LOAD_NORM_TOL:  # a NaN norm fails here
        if not renormalize:
            raise StateError(
                f"{source}: norm {norm!r} deviates from 1 beyond {LOAD_NORM_TOL}"
            )
        warnings.warn(f"{source}: renormalizing state with norm {norm!r}")
        return _normalized(n, amps)
    if abs(norm - 1.0) <= NORM_TOL:
        # Already within the strict invariant; keep the bytes untouched so
        # save(load(f)) round-trips exactly.
        return QState(n, amps)
    return _normalized(n, amps)
