import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmeslab.states import (
    QState,
    StateError,
    apply_local_unitaries,
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


def test_load_rejects_bad_norm_then_renormalizes(tmp_path):
    path = tmp_path / "halfnorm.json"
    amps = [[0.5, 0.0]] + [[0.0, 0.0]] * 3
    path.write_text(json.dumps({"format": "mmeslab-state-v1", "n": 2, "amplitudes": amps}))
    with pytest.raises(StateError, match="norm"):
        load_state(path)
    with pytest.warns(UserWarning):
        s = load_state(path, renormalize=True)
    assert abs(s.amplitudes[0] - 1.0) < 1e-12


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
