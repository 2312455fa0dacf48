import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab import states
from mmeslab.states import (
    QState,
    StateError,
    apply_local_unitaries,
    apply_single_qubit_unitary,
    conjugate,
    load_state,
    make_basis_state,
    make_ghz,
    make_psi_m8,
    make_w,
    permute_qubits,
    random_state,
    save_state,
)


def test_basis_state_amplitudes():
    s = make_basis_state(2, 0)
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_bit_ordering():
    # |101>: qubit 1 = 1, qubit 2 = 0, qubit 3 = 1 with qubit 1 as MSB
    s = make_basis_state(3, 5)
    assert s.amplitudes[0b101] == 1.0
    for k, expected in [(1, 1), (2, 0), (3, 1)]:
        assert (5 >> (3 - k)) & 1 == expected


def test_basis_state_index_out_of_range():
    with pytest.raises(StateError):
        make_basis_state(3, 8)
    with pytest.raises(StateError):
        make_basis_state(3, -1)


@pytest.mark.parametrize("index", [True, False, 1.5, 2.0, "1", None])
def test_basis_state_index_must_be_an_int(index):
    # a bool indexed the amplitudes as a mask, and a float raised IndexError
    with pytest.raises(StateError, match="^basis index .* is not an int"):
        make_basis_state(3, index)


@pytest.mark.parametrize("value", [True, False, 3.0, 2.5, "3", None, np.float64(3)])
def test_check_int_refuses_what_is_not_an_int(value):
    message = re.escape(f"count {value!r} is not an int in [0, 5]")
    with pytest.raises(StateError, match=f"^{message}"):
        states.check_int(value, "count", 0, 5)


def test_check_int_keeps_python_ints_and_names_its_error():
    for value in (3, np.int64(3), np.uint8(3), np.uint64(3)):
        got = states.check_int(value, "count", 0, 5)
        assert type(got) is int and got == 3
    assert states.check_int(2**70, "count", 0, None) == 2**70

    class Refused(ValueError):
        pass

    for value in (-1, 6, np.int64(6)):
        with pytest.raises(Refused, match=f"^count {int(value)} is not an int in"):
            states.check_int(value, "count", 0, 5, Refused)
    with pytest.raises(StateError, match=r"^count 0 is not an int >= 1$"):
        states.check_int(0, "count", 1, None)


def test_basis_state_takes_numpy_ints():
    for index in (np.int64(5), np.uint8(5)):
        s = make_basis_state(3, index)
        assert s.amplitudes[5] == 1.0 and np.count_nonzero(s.amplitudes) == 1


def test_ghz():
    bell = make_ghz(2)
    np.testing.assert_allclose(
        bell.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)]
    )
    with pytest.raises(StateError):
        make_ghz(1)


def test_w():
    w = make_w(2)
    np.testing.assert_allclose(w.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    w4 = make_w(4)
    nz = np.flatnonzero(w4.amplitudes)
    assert sorted(nz) == [1, 2, 4, 8]
    with pytest.raises(StateError):
        make_w(1)


def test_random_state_deterministic():
    a = random_state(4, 42)
    b = random_state(4, 42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = random_state(4, 43)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_random_state_seed_zero_valid():
    random_state(3, 0)
    random_state(3, 2**64 - 1)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 2.0, "7"])
def test_random_state_rejects_bad_seed(seed):
    with pytest.raises(StateError, match=f"seed {seed!r}"):
        random_state(3, seed)


def test_random_state_stream_key():
    # stream s of seed k draws from Philox key k * 0x9E3779B97F4A7C15 + s
    rng = np.random.Generator(np.random.Philox(key=3 * 0x9E3779B97F4A7C15 + 5))
    x = rng.standard_normal(32)
    expected = (x[:16] + 1j * x[16:]) / np.linalg.norm(x)
    np.testing.assert_allclose(random_state(4, 3, 5).amplitudes, expected, rtol=0, atol=1e-15)
    for stream in (-1, 2**126, True):
        with pytest.raises(StateError, match="stream"):
            random_state(4, 3, stream)


def test_conjugate():
    s = random_state(3, 1)
    assert np.allclose(conjugate(conjugate(s)).amplitudes, s.amplitudes)
    real = make_ghz(3)
    np.testing.assert_array_equal(conjugate(real).amplitudes, real.amplitudes)
    phase = QState(2, np.array([1j, 0, 0, 0]))
    assert conjugate(phase).amplitudes[0] == -1j


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_norm_invariant(n, seed):
    s = random_state(n, seed)
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) <= 1e-12


def test_state_rejects_bad_norm():
    with pytest.raises(StateError):
        QState(2, np.array([1.0, 1.0, 0, 0]))


def test_state_rejects_nan_amplitude():
    with pytest.raises(StateError):
        QState(1, [np.nan, 0.0])


def test_overflowing_norm_raises_state_error_not_a_warning(tmp_path):
    path = tmp_path / "huge.json"
    amps = [[1e308, 1e308], [1e308, 0.0]]
    path.write_text(json.dumps({"format": "mmeslab-state-v1", "n": 1, "amplitudes": amps}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="norm inf"):
            QState(1, [1e200, 0])
        with pytest.raises(StateError, match="norm inf"):
            load_state(path)


@pytest.mark.parametrize("n", [True, 1.0, "1", None])
def test_state_rejects_non_int_qubit_count(n):
    with pytest.raises(StateError, match="qubit count"):
        QState(n, [1.0, 0.0])


def test_random_state_rejects_too_many_qubits():
    with pytest.raises(StateError, match="qubit count"):
        random_state(40, 0)


@pytest.mark.parametrize(
    "make",
    [lambda n: make_basis_state(n, 0), make_ghz, make_w, lambda n: random_state(n, 0)],
    ids=["basis", "ghz", "w", "random"],
)
def test_makers_refuse_too_many_qubits_before_allocating(make):
    tracemalloc.start()
    try:
        with pytest.raises(StateError, match="qubit count"):
            make(17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^17 amplitudes would take 2 MB


def test_state_accepts_numpy_int_qubit_count():
    state = QState(np.int64(1), [1.0, 0.0])
    assert state.n == 1 and type(state.n) is int


def test_state_rejects_bad_length():
    with pytest.raises(StateError):
        QState(2, np.ones(3) / math.sqrt(3))


def test_amplitudes_immutable():
    s = make_ghz(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "s.json"
    s = random_state(4, 7)
    save_state(s, path)
    loaded = load_state(path)
    np.testing.assert_array_equal(loaded.amplitudes, s.amplitudes)
    # saving again reproduces identical bytes
    path2 = tmp_path / "s2.json"
    save_state(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"format": "mmeslab-state-v1", "n": 4, "amplitudes": [[1.0, 0.0]] * 15}
    path.write_text(json.dumps(doc))
    with pytest.raises(StateError, match="expected 16"):
        load_state(path)


def _reference_bytes(state):
    """The per-element encoding of mmeslab-state-v1 that saved files must keep."""
    doc = {
        "format": "mmeslab-state-v1",
        "n": state.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    return json.dumps(doc).encode("utf-8")


EDGE_STATE = QState(
    2, np.array([complex(1.0, -0.0), complex(-0.0, 5e-324), complex(1e-300, -3e-300), complex(-0.0, -0.0)])
)


# Built from every other entry of a longer array, so its amplitudes are strided.
STRIDED_STATE = QState(1, np.array([0.6, 9.0, 0.8j, 9.0], dtype=np.complex128)[::2])


@pytest.mark.parametrize(
    "state",
    [random_state(n, 100 + n) for n in range(1, 13)] + [EDGE_STATE, STRIDED_STATE],
    ids=[f"random-n{n}" for n in range(1, 13)] + ["signed-zero-subnormal", "strided"],
)
def test_save_bytes_golden_and_load_bit_exact(tmp_path, state):
    path = tmp_path / "s.json"
    save_state(state, path)
    assert path.read_bytes() == _reference_bytes(state)
    loaded = load_state(path)
    np.testing.assert_array_equal(
        loaded.amplitudes.view(np.uint64), state.amplitudes.view(np.uint64)
    )


def test_save_failed_encode_creates_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    save_state(make_ghz(2), path)
    before = path.read_bytes()
    made = []
    mkstemp = tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda *a, **k: made.append(1) or mkstemp(*a, **k))
    # An object the encoder cannot serialize makes it raise.
    monkeypatch.setattr(states, "state_document", lambda state: {"amplitudes": [object()]})
    with pytest.raises(TypeError):
        save_state(random_state(2, 3), path)
    assert made == []
    assert list(tmp_path.glob("*.tmp")) == []
    assert path.read_bytes() == before


def test_save_failed_rename_removes_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    save_state(make_ghz(2), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_state(random_state(2, 3), path)
    assert list(tmp_path.glob("*.tmp")) == []
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "amps",
    [
        [["1.0", 0], [0, 0]],
        [[True, False], [False, False]],
        [[1.0, 0.0], [0.0, False]],
        [[1.0, 0.0], [None, 0.0]],
        [[1.0, 0.0], [0.0, 0.0, 0.0]],
        [[1.0, 0.0], 0.0],
        [[1.0, 0.0], [10**400, 0]],
    ],
    ids=["string", "bools", "bool-among-numbers", "null", "triple", "bare-number", "huge-int"],
)
def test_load_rejects_mistyped_entries(tmp_path, amps):
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps({"format": "mmeslab-state-v1", "n": 1, "amplitudes": amps}))
    with pytest.raises(StateError, match="mistyped.json"):
        load_state(path)


def test_load_accepts_integer_entries(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text('{"format": "mmeslab-state-v1", "n": 1, "amplitudes": [[0, 1], [0, 0]]}')
    assert load_state(path).amplitudes[0] == 1j


def test_load_rejects_bad_norm(tmp_path):
    path = tmp_path / "halfnorm.json"
    amps = [[0.5, 0.0]] + [[0.0, 0.0]] * 3
    path.write_text(json.dumps({"format": "mmeslab-state-v1", "n": 2, "amplitudes": amps}))
    with pytest.raises(StateError, match="norm"):
        load_state(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(StateError):
        load_state(path)
    path.write_text(json.dumps({"format": "something-else", "n": 2, "amplitudes": []}))
    with pytest.raises(StateError):
        load_state(path)


def test_psi_m8_shape_and_metadata():
    s = make_psi_m8()
    assert s.n == 8
    assert s.amplitudes.shape == (256,)
    assert "raw_norm" in s.meta
    assert s.meta["raw_norm"] > 0
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) <= 1e-12


def test_permute_qubits_roundtrip():
    s = random_state(4, 11)
    perm = [3, 1, 4, 2]
    inv = [perm.index(k) + 1 for k in range(1, 5)]
    back = permute_qubits(permute_qubits(s, perm), inv)
    np.testing.assert_allclose(back.amplitudes, s.amplitudes)


def test_permute_qubits_moves_basis_bit():
    # |1000> cycled left by one position becomes |0001>
    s = make_basis_state(4, 0b1000)
    out = permute_qubits(s, [2, 3, 4, 1])
    assert out.amplitudes[0b0001] == 1.0


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitaries_preserve_norm():
    rng = np.random.default_rng(0)
    s = random_state(3, 5)
    out = apply_local_unitaries(s, [_haar_unitary(rng) for _ in range(3)])
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) <= 1e-12


@pytest.mark.parametrize(
    "u",
    [
        [[1, 0], [0, 0]],  # a projector
        [[2, 0], [0, 2]],
        [[1, 1], [0, 1]],
        np.eye(3),
        np.eye(2)[:, :1],
        [[1, 0], [0, np.nan]],
        [[np.inf, 0], [0, 1]],
    ],
    ids=["projector", "scaled", "shear", "3x3", "2x1", "nan", "inf"],
)
def test_single_qubit_unitary_refuses_a_non_unitary(u):
    with pytest.raises(StateError, match="finite 2x2 unitary"):
        apply_single_qubit_unitary(random_state(2, 4), 1, u)


@pytest.mark.parametrize("qubit", [True, False, 1.0, "1", None, 0, 3, -1])
def test_single_qubit_unitary_refuses_a_bad_qubit(qubit):
    with pytest.raises(StateError, match="qubit"):
        apply_single_qubit_unitary(random_state(2, 4), qubit, np.eye(2))


def test_single_qubit_unitary_takes_numpy_int_qubits():
    # at n = 12 the shift 1 << (n - qubit) would wrap in a uint8
    s = make_basis_state(12, 0)
    x = np.array([[0, 1], [1, 0]])
    for qubit in (np.int64(1), np.uint8(1)):
        assert apply_single_qubit_unitary(s, qubit, x).amplitudes[1 << 11] == 1.0
