"""The pi_ME = C + K models for even n, their verification, and errata repair.

All printed constants live as exact ``Fraction`` values and become floats
only at evaluation time, so comparisons against the published tables are
exact.  Residual sign convention, fixed package-wide: oracle minus model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .pauli import moebius_weight_sums, n_tangle, weight_sums
from .purity import purity_report, subset_purities

# Not called here since pi_ME comes from the purity table, but kept as a
# module attribute: perfbench/spans.py wraps it under this name.
from .purity import average_balanced_purity  # noqa: F401
from .states import QState, make_basis_state, make_ghz, make_w, random_state

SUPPORTED_N = (2, 4, 6, 8, 10, 12)

Coeff = Fraction | float


class ModelError(ValueError):
    """Unsupported model request or mismatched operands."""


@dataclass(frozen=True)
class DecompositionModel:
    """pi_ME = C + K with K = sum_k wc[k] * M_k + tau_coeff * tau + tau_offset.

    ``weight_coeffs[k-1]`` multiplies the weight-k correlation sum M_k for
    k = 1 .. n/2 - 1.
    """

    n: int
    constant: Coeff
    weight_coeffs: tuple[Coeff, ...]
    tau_coeff: Coeff
    tau_offset: Coeff
    provenance: str  # "printed" | "fitted"

    def __post_init__(self):
        if self.n % 2 or self.n < 2:
            raise ModelError(f"models are defined for even n >= 2, got {self.n}")
        if len(self.weight_coeffs) != self.n // 2 - 1:
            raise ModelError(
                f"expected {self.n // 2 - 1} weight coefficients, got "
                f"{len(self.weight_coeffs)}"
            )

    def k_value(self, m: Sequence[float], tau: float) -> float:
        if len(m) < len(self.weight_coeffs):
            raise ModelError(
                f"need M_k up to k={len(self.weight_coeffs)}, got {len(m)}"
            )
        acc = float(self.tau_offset) + float(self.tau_coeff) * tau
        for coeff, mk in zip(self.weight_coeffs, m):
            acc += float(coeff) * mk
        return acc

    def predict(self, m: Sequence[float], tau: float) -> float:
        return float(self.constant) + self.k_value(m, tau)


_PRINTED: dict[int, DecompositionModel] = {
    2: DecompositionModel(
        2, Fraction(1, 2), (), Fraction(-1, 2), Fraction(1, 2), "printed"
    ),
    4: DecompositionModel(
        4, Fraction(1, 3), (Fraction(1, 6),), Fraction(1, 6), Fraction(0), "printed"
    ),
    6: DecompositionModel(
        6,
        Fraction(1, 8),
        (Fraction(3, 40), Fraction(1, 40)),
        Fraction(-1, 20),
        Fraction(1, 20),
        "printed",
    ),
    8: DecompositionModel(
        8,
        Fraction(6, 70),
        (Fraction(11, 280), Fraction(1, 70), Fraction(1, 280)),
        Fraction(1, 70),
        Fraction(0),
        "printed",
    ),
    # The weight-3 and weight-4 coefficients are printed as products:
    # (1/252)*(5/8) and (2/252)*(1/8).  This model is known to disagree
    # with the purity oracle (see verify_identity); it is kept verbatim so
    # the erratum stays detectable.
    10: DecompositionModel(
        10,
        Fraction(13, 336),
        (
            Fraction(5, 252),
            Fraction(2, 252),
            Fraction(1, 252) * Fraction(5, 8),
            Fraction(2, 252) * Fraction(1, 8),
        ),
        Fraction(-1, 252),
        Fraction(1, 252),
        "printed",
    ),
    # The published display repeats the weight-4 subscript range on its
    # fifth sum; read as the weight-5 group it is exactly consistent with
    # the oracle, so that reading is encoded here.
    12: DecompositionModel(
        12,
        Fraction(157, 7392),
        (
            Fraction(37, 3696),
            Fraction(31, 7392),
            Fraction(11, 7392),
            Fraction(3, 7392),
            Fraction(1, 7392) * Fraction(1, 2),
        ),
        Fraction(1, 924),
        Fraction(0),
        "printed",
    ),
}


def printed_model(n: int) -> DecompositionModel:
    """The published model for n in {2, 4, 6, 8, 10, 12}, coefficients verbatim."""
    try:
        return _PRINTED[n]
    except KeyError:
        raise ModelError(f"no printed model for n={n}; supported: {SUPPORTED_N}")


@dataclass(frozen=True)
class KReport:
    """One state evaluated against one model."""

    label: str
    n: int
    m: tuple[float, ...]
    tau: float
    k_model: float
    pi_me_oracle: float
    residual: float  # oracle minus (C + K)
    provenance: str


def _invariants(
    state: QState, k_max: int, strategy: str, purities: np.ndarray | None = None
) -> tuple[tuple[float, ...], float, float]:
    """(M_1..M_k_max, tau, oracle pi_ME) of one state, from one purity table."""
    if purities is None:
        purities = subset_purities(state)
    if not k_max:
        m = ()
    elif strategy == "moebius":
        m = moebius_weight_sums(purities, k_max)
    else:
        m = weight_sums(state, k_max, strategy=strategy).m
    return m, n_tangle(state), purity_report(purities).mean


def evaluate(
    model: DecompositionModel,
    state: QState,
    label: str = "state",
    strategy: str = "moebius",
    purities: np.ndarray | None = None,
) -> KReport:
    """Score a state: invariants, model K, oracle pi_ME, and their residual.

    The oracle pi_ME (and, under ``moebius``, every M_k) is read off the
    state's ``subset_purities`` table; pass ``purities`` to reuse one
    already computed.  ``enumeration`` sums the M_k over Pauli strings
    instead, independently of the table.
    """
    if model.n != state.n:
        raise ModelError(f"model for n={model.n} applied to n={state.n} state")
    m, tau, oracle = _invariants(state, model.n // 2 - 1, strategy, purities)
    k_val = model.k_value(m, tau)
    return KReport(
        label=label,
        n=model.n,
        m=m,
        tau=tau,
        k_model=k_val,
        pi_me_oracle=oracle,
        residual=oracle - (float(model.constant) + k_val),
        provenance=model.provenance,
    )


def _derived_seed(seed: int, i: int) -> int:
    # cheap splittable derivation; Philox keys are 128-bit so no wraparound
    return seed * 0x9E3779B97F4A7C15 + i + 1


def canonical_states(n: int) -> list[tuple[str, QState]]:
    return [
        ("product", make_basis_state(n, 0)),
        ("ghz", make_ghz(n)),
        ("w", make_w(n)),
    ]


@dataclass(frozen=True)
class VerificationSummary:
    n: int
    tol: float
    reports: tuple[KReport, ...]
    max_abs_residual: float
    passed: bool


def verify_identity(
    n: int,
    samples: int,
    seed: int,
    tol: float,
    model: DecompositionModel | None = None,
    strategy: str = "moebius",
) -> VerificationSummary:
    """Check pi_ME = C + K on canonical plus Haar-random states."""
    if samples < 1:
        raise ModelError(f"need samples >= 1, got {samples}")
    model = model if model is not None else printed_model(n)
    reports = [
        evaluate(model, state, label, strategy) for label, state in canonical_states(n)
    ]
    for i in range(samples):
        state = random_state(n, _derived_seed(seed, i))
        reports.append(evaluate(model, state, f"random[{i}]", strategy))
    worst = max(abs(r.residual) for r in reports)
    return VerificationSummary(
        n=n, tol=tol, reports=tuple(reports), max_abs_residual=worst, passed=worst <= tol
    )


SNAP_DENOMINATOR_CAP = 10**6


def snap_rational(x: float, cap: int = SNAP_DENOMINATOR_CAP) -> Fraction:
    """Nearest small-denominator rational via continued fractions."""
    return Fraction(x).limit_denominator(cap)


@dataclass(frozen=True)
class FitDiagnostics:
    n: int
    samples: int
    holdout_samples: int
    features: tuple[str, ...]
    raw_coefficients: tuple[float, ...]
    singular_values: tuple[float, ...]
    rank: int
    null_space_dim: int
    training_max_residual: float
    holdout_max_residual: float
    holdout_max_residual_snapped: float | None
    snapped: bool


def _feature_rows(n: int, states: Sequence[QState], strategy: str) -> tuple[np.ndarray, np.ndarray]:
    rows, targets = [], []
    for state in states:
        m, tau, oracle = _invariants(state, n // 2 - 1, strategy)
        rows.append([1.0, *m, tau])
        targets.append(oracle)
    return np.array(rows), np.array(targets)


def fit_coefficients(
    n: int,
    samples: int,
    seed: int,
    holdout_samples: int = 100,
    snap: bool = True,
    snap_tol: float = 1e-8,
    strategy: str = "moebius",
) -> tuple[DecompositionModel, FitDiagnostics]:
    """Least-squares reconstruction of the C + K coefficients from the oracle.

    Features are {1, M_1, ..., M_{n/2-1}, tau_n}; the weight-n/2 sum is
    excluded by construction because purity identities make it linearly
    dependent on the rest.  Near-rational coefficients are snapped to
    small-denominator fractions and kept only if the held-out residual does
    not degrade beyond ``snap_tol``.
    """
    if n not in SUPPORTED_N:
        raise ModelError(f"fit supports n in {SUPPORTED_N}, got {n}")
    min_samples = 4 * (n // 2 + 2)
    if samples < min_samples:
        raise ModelError(f"need at least {min_samples} samples for n={n}")

    train = [random_state(n, _derived_seed(seed, i)) for i in range(samples)]
    x_train, y_train = _feature_rows(n, train, strategy)
    coeffs, _, rank, svals = np.linalg.lstsq(x_train, y_train, rcond=None)
    train_resid = float(np.max(np.abs(y_train - x_train @ coeffs)))

    held = [
        random_state(n, _derived_seed(seed + 0x5EED, samples + i))
        for i in range(holdout_samples)
    ]
    x_hold, y_hold = _feature_rows(n, held, strategy)
    hold_resid = float(np.max(np.abs(y_hold - x_hold @ coeffs)))

    snapped_vec = None
    hold_resid_snapped = None
    if snap:
        candidate = np.array([float(snap_rational(c)) for c in coeffs])
        hold_resid_snapped = float(np.max(np.abs(y_hold - x_hold @ candidate)))
        if hold_resid_snapped <= max(hold_resid, snap_tol):
            snapped_vec = [snap_rational(c) for c in coeffs]

    use: list[Coeff] = (
        list(snapped_vec) if snapped_vec is not None else [float(c) for c in coeffs]
    )
    c0, wcs, c_tau = use[0], tuple(use[1:-1]), use[-1]
    # Anchor the constant at the published C so fitted K values compare
    # directly with the paper's tables; the leftover lands in tau_offset.
    published_c = printed_model(n).constant
    offset = c0 - published_c if isinstance(c0, Fraction) else c0 - float(published_c)
    model = DecompositionModel(
        n=n,
        constant=published_c,
        weight_coeffs=wcs,
        tau_coeff=c_tau,
        tau_offset=offset,
        provenance="fitted",
    )
    diag = FitDiagnostics(
        n=n,
        samples=samples,
        holdout_samples=holdout_samples,
        features=("1", *(f"M_{k}" for k in range(1, n // 2)), "tau"),
        raw_coefficients=tuple(float(c) for c in coeffs),
        singular_values=tuple(float(s) for s in svals),
        rank=int(rank),
        null_space_dim=x_train.shape[1] - int(rank),
        training_max_residual=train_resid,
        holdout_max_residual=hold_resid,
        holdout_max_residual_snapped=hold_resid_snapped,
        snapped=snapped_vec is not None,
    )
    return model, diag


def product_exact_weight_sums(n: int, k_max: int) -> tuple[Fraction, ...]:
    """M_k of |0...0>: only the all-z string survives, so M_k = C(n, k)."""
    return tuple(Fraction(comb(n, k)) for k in range(1, k_max + 1))


def ghz_exact_weight_sums(n: int, k_max: int) -> tuple[Fraction, ...]:
    """M_k of GHZ_n for k < n: F_S = 1 for even |S| (all-z string), else 0."""
    if k_max >= n:
        raise ModelError("exact GHZ sums implemented for k < n only")
    return tuple(
        Fraction(comb(n, k)) if k % 2 == 0 else Fraction(0)
        for k in range(1, k_max + 1)
    )


def exact_k(model: DecompositionModel, m: Sequence[Fraction], tau: Fraction) -> Fraction:
    """K evaluated in exact rational arithmetic (printed/snapped models only)."""
    coeffs = (*model.weight_coeffs, model.tau_coeff, model.tau_offset, model.constant)
    if not all(isinstance(c, Fraction) for c in coeffs):
        raise ModelError("exact evaluation needs fully rational coefficients")
    acc = model.tau_offset + model.tau_coeff * tau
    for coeff, mk in zip(model.weight_coeffs, m):
        acc += coeff * mk
    return acc


# K values quoted in the text for n = 12; they repeat the n = 10 numbers
# and disagree with the printed coefficient table.
N12_IN_TEXT_K = {"ghz": Fraction(155, 336), "product": Fraction(323, 336)}


def known_errata() -> list[str]:
    """Exact-arithmetic checks of the published tables against themselves.

    Two defects are detectable without any numerics: the n=10 coefficient
    table contradicts its own quoted K values, and the n=12 text quotes the
    n=10 K values even though the n=12 coefficients are self-consistent.
    """
    flags = []
    m10 = printed_model(10)
    k_ghz10 = exact_k(m10, ghz_exact_weight_sums(10, 4), Fraction(1))
    if k_ghz10 != Fraction(155, 336):
        flags.append(
            f"n=10 coefficient table gives K(GHZ) = {k_ghz10}, but the quoted "
            f"value is 155/336 (difference {k_ghz10 - Fraction(155, 336)})"
        )
    m12 = printed_model(12)
    k_ghz12 = exact_k(m12, ghz_exact_weight_sums(12, 5), Fraction(1))
    k_prod12 = exact_k(m12, product_exact_weight_sums(12, 5), Fraction(0))
    if (k_ghz12, k_prod12) != (N12_IN_TEXT_K["ghz"], N12_IN_TEXT_K["product"]):
        flags.append(
            f"n=12 text quotes K = {N12_IN_TEXT_K['ghz']} / "
            f"{N12_IN_TEXT_K['product']} (the n=10 values); the printed "
            f"coefficients actually give {k_ghz12} / {k_prod12} — copy error"
        )
    return flags


@dataclass(frozen=True)
class AuditRow:
    n: int
    constant: Fraction
    required_tau: int  # tau value forced at K = 0 by the sign of tau_coeff
    floor: Fraction  # theoretical pi_ME floor C


def conjecture_audit(n_list: Sequence[int] = SUPPORTED_N) -> list[AuditRow]:
    """Structural tau requirement of each model at K = 0.

    A negative tau coefficient means K can only vanish at tau = 1; a
    positive one forces tau = 0.
    """
    rows = []
    for n in n_list:
        model = printed_model(n)
        required = 1 if model.tau_coeff < 0 else 0
        rows.append(
            AuditRow(
                n=n,
                constant=Fraction(model.constant),
                required_tau=required,
                floor=Fraction(model.constant),
            )
        )
    return rows
