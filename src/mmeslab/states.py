"""n-qubit pure states: construction, transformation, and file round-trip.

Convention used everywhere in this package: qubit 1 is the most significant
bit of the basis index, so for ``make_basis_state(n, i)`` qubit k carries the
bit ``(i >> (n - k)) & 1``.  Amplitude arrays are immutable after
construction and safe to share between threads.

Every integer argument of the package (qubit counts, positions, indices,
weights, sample counts, seeds) passes through ``check_int``: a Python or
numpy int in range is kept as a Python int, and anything else, a bool or a
float equal to an int included, is refused with the caller's error class.
An n that must be even passes ``check_even``, the package's one parity check.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-12
LOAD_NORM_TOL = 1e-6
_UNITARY_TOL = 1e-10
MAX_QUBITS = 16
SEED_LIMIT = 1 << 64

STATE_FORMAT = "mmeslab-state-v1"

# Spreads one seed into many Philox keys, one per stream (``random_state``).
STREAM_MULTIPLIER = 0x9E3779B97F4A7C15


class StateError(ValueError):
    """Invalid state construction or malformed state file."""


def _norm(amps: np.ndarray) -> float:
    """The 2-norm of the amplitudes; inf, without an overflow warning, once
    a squared modulus overflows."""
    with np.errstate(over="ignore"):
        return math.sqrt(float(np.sum(np.abs(amps) ** 2)))


@dataclass(frozen=True)
class QState:
    """Normalized pure state of ``n`` qubits as 2**n complex amplitudes."""

    n: int
    amplitudes: np.ndarray
    meta: Mapping[str, float] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_qubit_count(self.n))
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise StateError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got {amps.shape}"
            )
        norm = _norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
            raise StateError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


def _normalized(n: int, amps: np.ndarray, meta: Mapping | None = None) -> QState:
    amps = np.asarray(amps, dtype=np.complex128)
    norm = _norm(amps)
    if norm == 0.0:
        raise StateError("cannot normalize the zero vector")
    return QState(n, amps / norm, dict(meta or {}))


def make_basis_state(n: int, index: int) -> QState:
    """Computational basis state |index> on n qubits."""
    n = check_qubit_count(n)
    index = check_int(index, "basis index", 0, (1 << n) - 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return QState(n, amps)


def make_ghz(n: int) -> QState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    n = check_int(n, "qubit count", 2, MAX_QUBITS)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return QState(n, amps)


def make_w(n: int) -> QState:
    """Equal superposition of all single-excitation basis states."""
    n = check_int(n, "qubit count", 2, MAX_QUBITS)
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
    raw_norm = _norm(raw)
    return _normalized(8, raw, meta={"raw_norm": raw_norm})


def check_int(value, name: str, lo: int, hi: int | None, error=StateError) -> int:
    """``int(value)`` if ``value`` is a Python or numpy int in [lo, hi] (no
    upper bound if ``hi`` is None); otherwise ``error`` (a ValueError
    class), whose message starts with ``name`` and ``value``.  A bool, float, string or None is
    refused, even one equal to an int."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if lo <= value and (hi is None or value <= hi):
            return value
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise error(f"{name} {value!r} is not an int {span}")


def check_even(value, name: str, lo: int, hi: int | None, error=StateError) -> int:
    """``check_int(value, name, lo, hi, error)``, refusing an odd value too."""
    value = check_int(value, name, lo, hi, error)
    if value % 2:
        raise error(f"{name} {value!r} is not even")
    return value


def check_qubit_count(n: int) -> int:
    """``n`` as an int in [1, MAX_QUBITS], else a StateError (``check_int``);
    every state maker checks n this way before it allocates 2^n amplitudes
    (``make_ghz`` and ``make_w`` with a lower bound of 2)."""
    return check_int(n, "qubit count", 1, MAX_QUBITS)


def check_seed(seed: int) -> int:
    """``seed`` as an int in [0, 2**64), else a StateError that names it
    (``check_int``).  Every seed a caller passes in is checked here."""
    return check_int(seed, "seed", 0, SEED_LIMIT - 1)


def random_state(n: int, seed: int, stream: int | None = None) -> QState:
    """Haar-random pure state, deterministic for a fixed (n, seed, stream).

    Uses a counter-based generator (Philox).  Its key is ``seed`` itself,
    or ``seed * STREAM_MULTIPLIER + stream`` for one of many states drawn
    from one seed (samples, restarts).  ``seed`` must lie in [0, 2**64)
    (``check_seed``) and ``stream`` in [0, 2**126), which keeps the key
    below Philox's 2**128 limit.
    """
    check_qubit_count(n)
    key = check_seed(seed)
    if stream is not None:
        key = key * STREAM_MULTIPLIER + check_int(stream, "stream", 0, (1 << 126) - 1)
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.standard_normal(1 << (n + 1))
    amps = x[: 1 << n] + 1j * x[1 << n :]
    return _normalized(n, amps)


def conjugate(state: QState) -> QState:
    """Componentwise complex conjugate in the computational basis."""
    return QState(state.n, np.conj(state.amplitudes), dict(state.meta))


def permute_qubits(state: QState, perm: Sequence[int]) -> QState:
    """Relabel qubits: output qubit k is input qubit perm[k-1] (1-based)."""
    perm = [check_int(p, "position", 1, state.n) for p in perm]
    if sorted(perm) != list(range(1, state.n + 1)):
        raise StateError(f"perm must be a permutation of 1..{state.n}, got {perm}")
    ten = state.amplitudes.reshape((2,) * state.n)
    out = ten.transpose([p - 1 for p in perm]).reshape(state.dim)
    return QState(state.n, out.copy())


def apply_single_qubit_unitary(state: QState, qubit: int, u: np.ndarray) -> QState:
    """Apply a 2x2 unitary to one qubit (1-based position): a StateError unless
    ``qubit`` is an int in [1, n] and ``u`` is finite, 2x2 and unitary to
    within _UNITARY_TOL in every entry of u^dagger u (a projector is refused)."""
    qubit = check_int(qubit, "qubit", 1, state.n)  # a numpy uint8 would wrap in the shifts
    u = np.asarray(u, dtype=np.complex128)
    finite = u.shape == (2, 2) and np.isfinite(u).all()
    if not (finite and np.abs(u.conj().T @ u - np.eye(2)).max() <= _UNITARY_TOL):
        raise StateError(f"u must be a finite 2x2 unitary within {_UNITARY_TOL}: {u.tolist()!r}")
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


def state_document(state: QState) -> dict:
    """The mmeslab-state-v1 document of a state, as ``load_state`` reads it."""
    return {
        "format": STATE_FORMAT,
        "n": state.n,
        "amplitudes": state.amplitudes.view(np.float64).reshape(-1, 2).tolist(),
    }


def save_state(state: QState, destination: str | os.PathLike) -> None:
    """Write a mmeslab-state-v1 file (atomic: temp file + rename).

    The document is encoded before the temp file exists, so a failed encode
    leaves nothing behind.  ``json.dumps`` runs the C encoder; ``json.dump``
    would stream through the pure-Python one.  The document is fresh lists
    of floats, so there is no cycle for the encoder to look for.
    """
    text = json.dumps(state_document(state), check_circular=False)
    destination = os.fspath(destination)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(destination)) or ".", suffix=".tmp"
        )
    except OSError as exc:  # its message would name the temp file
        raise StateError(f"cannot write {destination}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(source: str | os.PathLike) -> QState:
    """Read a mmeslab-state-v1 file.

    Rejects norms off by more than ``LOAD_NORM_TOL``; a norm within it is
    rescaled to 1.
    """
    with open(source, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StateError(f"malformed state file {source}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise StateError(f"{source}: not a {STATE_FORMAT} document")
    n = check_int(doc.get("n"), f"{source}: qubit count", 1, MAX_QUBITS)
    pairs = doc.get("amplitudes")
    if not isinstance(pairs, list) or len(pairs) != (1 << n):
        got = len(pairs) if isinstance(pairs, list) else pairs
        raise StateError(f"{source}: expected {1 << n} amplitudes, got {got}")
    # Checked first: numpy would read "1.0" and true as numbers, null as NaN.
    try:
        kinds = set(map(type, itertools.chain.from_iterable(pairs)))
    except TypeError as exc:
        raise StateError(f"{source}: bad amplitude entry: {exc}") from exc
    if not kinds <= {float, int}:
        raise StateError(f"{source}: amplitude entries must be JSON numbers")
    try:
        arr = np.array(pairs, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise StateError(f"{source}: bad amplitude entry: {exc}") from exc
    if arr.shape != (1 << n, 2):
        raise StateError(f"{source}: amplitude entries must be [re, im] pairs")
    amps = arr.view(np.complex128).reshape(-1)
    norm = _norm(amps)
    if not abs(norm - 1.0) <= LOAD_NORM_TOL:  # a NaN norm fails here
        raise StateError(f"{source}: norm {norm!r} deviates from 1 beyond {LOAD_NORM_TOL}")
    if abs(norm - 1.0) <= NORM_TOL:
        # Already within the strict invariant; keep the bytes untouched so
        # save(load(f)) round-trips exactly.
        return QState(n, amps)
    return _normalized(n, amps)
