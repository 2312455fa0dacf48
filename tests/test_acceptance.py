"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from mmeslab.cli import main
from mmeslab.decomposition import (
    evaluate,
    exact_k,
    fit_coefficients,
    known_errata,
    printed_model,
    verify_identity,
)
from mmeslab.pauli import n_tangle, weight_sums
from mmeslab.purity import average_balanced_purity
from mmeslab.reports import psi_m8_audit
from mmeslab.search import SearchConfig, gradient_check, minimize_average_purity
from mmeslab.states import (
    apply_local_unitaries,
    make_basis_state,
    make_ghz,
    permute_qubits,
    random_state,
    save_state,
)


class _criterion:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.num}] {self.desc}: {verdict}")
        return False


def test_criterion_1_canonical_constants():
    with _criterion(1, "canonical constants"):
        tol = 1e-10
        bell = make_ghz(2)
        assert n_tangle(bell) == pytest.approx(1.0, abs=tol)
        assert average_balanced_purity(bell).mean == pytest.approx(0.5, abs=tol)
        expected = {
            4: (Fraction(1, 3), Fraction(2, 3), Fraction(1, 6)),
            6: (Fraction(1, 8), Fraction(7, 8), Fraction(3, 8)),
            8: (Fraction(6, 70), Fraction(64, 70), Fraction(29, 70)),
        }
        for n, (c, k_product, k_ghz) in expected.items():
            model = printed_model(n)
            assert model.constant == c
            rep = evaluate(model, make_basis_state(n, 0), "product")
            assert rep.k_model == pytest.approx(float(k_product), abs=tol)
            rep = evaluate(model, make_ghz(n), "ghz")
            assert rep.k_model == pytest.approx(float(k_ghz), abs=tol)
        # n=10: oracle-side K values, independent of the printed coefficients
        c10 = float(Fraction(13, 336))
        k_ghz10 = average_balanced_purity(make_ghz(10)).mean - c10
        k_prod10 = average_balanced_purity(make_basis_state(10, 0)).mean - c10
        assert k_ghz10 == pytest.approx(float(Fraction(155, 336)), abs=tol)
        assert k_prod10 == pytest.approx(float(Fraction(323, 336)), abs=tol)


def test_criterion_2_identity_verification():
    with _criterion(2, "identity verification on random states"):
        t0 = time.perf_counter()
        for n, samples in [(2, 100), (4, 100), (6, 100), (8, 50), (12, 20)]:
            summary = verify_identity(n, samples=samples, seed=20260823, tol=1e-9)
            assert summary.passed, (n, summary.max_abs_residual)
        assert time.perf_counter() - t0 <= 180


def test_criterion_3_errata_regression(capsys):
    with _criterion(3, "printed n=10 model errata regression"):
        report = evaluate(printed_model(10), make_ghz(10), "ghz")
        expected = float(Fraction(155, 336)) - 142.5 / 252
        assert report.residual == pytest.approx(expected, abs=1e-9)
        code = main(["verify", "--n", "10", "--samples", "5"])
        capsys.readouterr()
        assert code == 1


def test_criterion_4_errata_repair():
    with _criterion(4, "least-squares repair of the n=10 model"):
        model, diag = fit_coefficients(10, samples=60, seed=99, holdout_samples=100)
        assert diag.holdout_max_residual <= 1e-8
        assert diag.snapped
        # every proper subset of GHZ has purity 1/2, of a product state 1
        k_ghz = exact_k(model, (Fraction(1, 2),) * 5)
        k_prod = exact_k(model, (Fraction(1),) * 5)
        assert k_ghz == Fraction(155, 336)
        assert k_prod == Fraction(323, 336)


def test_criterion_5_n12_self_consistency():
    with _criterion(5, "printed n=12 model self-consistency + copy errata"):
        model = printed_model(12)
        assert exact_k(model, (Fraction(1, 2),) * 6) == Fraction(3539, 7392)
        assert exact_k(model, (Fraction(1),) * 6) == Fraction(7235, 7392)
        for state, k_expected in [
            (make_ghz(12), Fraction(3539, 7392)),
            (make_basis_state(12, 0), Fraction(7235, 7392)),
        ]:
            rep = evaluate(model, state)
            assert rep.residual == pytest.approx(0.0, abs=1e-10)
            assert rep.k_model == pytest.approx(float(k_expected), abs=1e-10)
        assert any("copy error" in flag for flag in known_errata())


def test_criterion_6_psi_m8_audit():
    with _criterion(6, "published 8-qubit state audit report"):
        audit = psi_m8_audit()
        for key in ("raw_norm", "weight_sums", "n_tangle", "pi_me", "claims"):
            assert key in audit
        assert len(audit["weight_sums"]) == 3
        # the claim comparison must be recorded for every published claim;
        # whether each claim holds is data, not a pass condition
        assert set(audit["claims"]) == {"M_1", "M_2", "M_3", "tau_8"}
        for entry in audit["claims"].values():
            assert {"claimed", "observed", "holds"} <= set(entry)


def test_criterion_7_global_normalization():
    with _criterion(7, "sum of M_k equals 2^n - 1"):
        for n in (2, 4, 6, 8):
            for i in range(20):
                state = random_state(n, 7000 + 100 * n + i)
                total = sum(weight_sums(state, n, "enumeration").m)
                assert total == pytest.approx(2**n - 1, abs=1e-9)
        for n in (10, 12):
            for i in range(20):
                state = random_state(n, 7000 + 100 * n + i)
                total = sum(weight_sums(state, n, "moebius").m)
                assert total == pytest.approx(2**n - 1, abs=1e-9)


def test_criterion_8_strategy_cross_check():
    with _criterion(8, "enumeration vs moebius agreement"):
        for n in (4, 6, 8, 10):
            k_max = min(4, n)
            for i in range(10):
                state = random_state(n, 8000 + 100 * n + i)
                enum = weight_sums(state, k_max, "enumeration").m
                moeb = weight_sums(state, k_max, "moebius").m
                assert enum == pytest.approx(moeb, abs=1e-8)


def _haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_9_invariance_suite():
    with _criterion(9, "local-unitary and permutation invariance"):
        rng = np.random.default_rng(90)
        for n in (2, 4, 6, 8):
            base = random_state(n, 9000 + n)
            m_base = weight_sums(base, n).m
            tau_base = n_tangle(base)
            pi_base = average_balanced_purity(base).mean
            for _ in range(10):
                rotated = apply_local_unitaries(
                    base, [_haar_unitary(rng) for _ in range(n)]
                )
                assert weight_sums(rotated, n).m == pytest.approx(m_base, abs=1e-9)
                assert n_tangle(rotated) == pytest.approx(tau_base, abs=1e-9)
                assert average_balanced_purity(rotated).mean == pytest.approx(
                    pi_base, abs=1e-9
                )
                shuffled = permute_qubits(base, list(rng.permutation(n) + 1))
                assert weight_sums(shuffled, n).m == pytest.approx(m_base, abs=1e-9)
                assert n_tangle(shuffled) == pytest.approx(tau_base, abs=1e-9)
                assert average_balanced_purity(shuffled).mean == pytest.approx(
                    pi_base, abs=1e-9
                )


def test_criterion_10_gradient_check():
    with _criterion(10, "analytic vs finite-difference gradient"):
        for n in (2, 4, 6):
            for seed in range(5):
                assert gradient_check(n, seed=1000 + seed) <= 1e-6


def test_criterion_11_search():
    with _criterion(11, "MMES search floors"):
        t0 = time.perf_counter()
        res2 = minimize_average_purity(SearchConfig(n=2, restarts=4, seed=0))
        assert time.perf_counter() - t0 <= 5
        assert res2.best_value == pytest.approx(0.5, abs=1e-6)
        assert n_tangle(res2.best_state) == pytest.approx(1.0, abs=1e-4)

        t0 = time.perf_counter()
        res4 = minimize_average_purity(SearchConfig(n=4, restarts=16, seed=0))
        assert time.perf_counter() - t0 <= 60
        assert res4.best_value <= 1 / 3 + 1e-3
        assert n_tangle(res4.best_state) <= 1e-3

        res6 = minimize_average_purity(
            SearchConfig(n=6, restarts=32, seed=0, max_iters=3000)
        )
        assert res6.best_value <= 0.135
        if res6.best_value < 0.126:
            print(f"  n=6 best-found pi_ME = {res6.best_value} (below report bar 0.126)")


def test_criterion_12_performance(tmp_path, capsys):
    with _criterion(12, "n=12 invariants + full purity under 60 s"):
        path = tmp_path / "r12.json"
        save_state(random_state(12, 121), path)
        t0 = time.perf_counter()
        code = main(["invariants", "--in", str(path), "--max-weight", "4"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed <= 60
        doc = json.loads(out)
        assert len(doc["results"]["weight_sums"]["m"]) == 4
        assert doc["results"]["purity"]["bipartition_count"] == 924
