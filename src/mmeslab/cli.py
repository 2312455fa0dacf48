"""Command-line surface.

One structured mmeslab-report-v1 document goes to stdout; human-readable
tables go to stderr under --pretty.  Exit codes: 0 success (errata found by
``invariants`` are data, not failures), 1 verification failure, 2 bad
arguments or malformed input.  Each ``_cmd_*`` handler returns its inputs,
results, errata, --pretty lines and exit code; ``main`` alone writes the
document and the tables, and turns every ValueError or OSError into one
``error: ...`` line on stderr, no document, and exit 2.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from . import reports
from .decomposition import (
    conjecture_audit,
    derived_model,
    fit_coefficients,
    known_errata,
    printed_model,
    verify_identity,
)
from .search import SearchConfig, minimize_average_purity
from .states import (
    check_int,
    check_seed,
    load_state,
    make_basis_state,
    make_ghz,
    make_psi_m8,
    make_w,
    random_state,
    save_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2


@cache  # built once per process: every parse starts from a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmeslab",
        description="Multipartite-entanglement invariants and MMES search "
        "for even-n qubit pure states.",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="also print tables to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="generate a state file")
    p_state.add_argument(
        "--kind", required=True, choices=["basis", "ghz", "w", "psi_m8", "random"]
    )
    p_state.add_argument("--n", type=int, help="qubit count (psi_m8 fixes n=8)")
    p_state.add_argument("--index", type=int, default=0, help="basis index for --kind basis")
    p_state.add_argument("--seed", type=int, default=0)
    p_state.add_argument("--out", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of a state file")
    p_inv.add_argument("--in", dest="in_path", required=True)
    p_inv.add_argument("--max-weight", type=int, help="largest k of M_k (default: min(4, n))")
    p_inv.add_argument("--no-purity", action="store_true")

    p_ver = sub.add_parser("verify", help="verify pi_ME = C + K on random states")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=1e-9)

    p_fit = sub.add_parser("fit", help="least-squares refit of the C + K coefficients")
    p_fit.add_argument("--n", type=int, required=True)
    p_fit.add_argument("--samples", type=int, default=200)
    p_fit.add_argument("--seed", type=int, default=0)

    p_search = sub.add_parser("search", help="minimize pi_ME over pure states")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--restarts", type=int, default=16)
    p_search.add_argument("--max-iters", type=int, default=2000)
    p_search.add_argument("--seed", type=int, default=0)

    sub.add_parser("audit", help="tau requirement of each printed model at K = 0")
    return parser


class _Report(NamedTuple):
    """A command's document parts, --pretty lines and exit code."""

    inputs: dict
    results: dict
    lines: list[str]
    errata: Sequence[str] = ()
    code: int = EXIT_OK


def _cmd_state(args) -> _Report:
    kind = args.kind
    check_seed(args.seed)  # every kind reports its seed
    if kind == "psi_m8":
        if args.n not in (None, 8):
            raise ValueError("psi_m8 fixes n=8")
        state = make_psi_m8()
    else:
        if args.n is None:
            raise ValueError(f"--n is required for --kind {kind}")
        maker = {
            "basis": lambda: make_basis_state(args.n, args.index),
            "ghz": lambda: make_ghz(args.n),
            "w": lambda: make_w(args.n),
            "random": lambda: random_state(args.n, args.seed),
        }[kind]
        state = maker()
    save_state(state, args.out)
    if "raw_norm" in state.meta:
        print(
            f"note: raw (as-printed) norm {state.meta['raw_norm']!r}; "
            "state was normalized before writing",
            file=sys.stderr,
        )
    inputs = {"kind": kind, "n": state.n, "seed": args.seed, "out": args.out}
    if kind == "basis":
        inputs["index"] = args.index
    return _Report(
        inputs=inputs,
        results={"written": args.out, "n": state.n, **dict(state.meta)},
        lines=[f"wrote {args.out} ({state.dim} amplitudes)"],
    )


def _cmd_invariants(args) -> _Report:
    state = load_state(args.in_path)
    max_weight = min(4, state.n) if args.max_weight is None else args.max_weight
    max_weight = check_int(max_weight, "--max-weight", 1, state.n, ValueError)
    results, errata = reports.invariants_results(
        state, max_weight, with_purity=not args.no_purity
    )
    lines = [f"n={state.n}  M_k={results['weight_sums']['m']}"]
    if "n_tangle" in results:
        lines.append(f"n_tangle={results['n_tangle']}")
    if "purity" in results:
        lines.append(f"pi_ME={results['purity']['pi_me_mean']}")
    lines.extend(f"ERRATA: {flag}" for flag in errata)
    return _Report({"state_file": args.in_path, "max_weight": max_weight}, results, lines, errata)


def _cmd_verify(args) -> _Report:
    summary = verify_identity(args.n, args.samples, args.seed, args.tol)
    return _Report(
        inputs={"n": args.n, "samples": args.samples, "seed": args.seed, "tol": args.tol},
        results=reports.verification_dict(summary),
        lines=[
            f"{'PASS' if summary.passed else 'FAIL'}  n={args.n}  "
            f"max|residual|={summary.max_abs_residual}"
        ],
        errata=[]
        if summary.passed
        else [
            f"printed n={args.n} model fails at tol {args.tol}: "
            f"max residual {summary.max_abs_residual!r}"
        ],
        code=EXIT_OK if summary.passed else EXIT_VERIFY_FAIL,
    )


def _coeff_text(c: Fraction | float) -> str:
    return str(c) if isinstance(c, Fraction) else f"{c:.12g}"


def _cmd_fit(args) -> _Report:
    # the library fits at any even n; the CLI keeps the printed n = 2 .. 12
    printed = printed_model(args.n)
    model, diag = fit_coefficients(args.n, args.samples, args.seed)
    lines = [
        f"fitted n={args.n}: holdout max residual {diag.holdout_max_residual}, "
        f"rank {diag.rank}/{len(diag.features)}, snapped={diag.snapped}",
        f"{'coefficient':<12} {'printed':>12} {'derived':>12} {'fitted':>12}",
    ]
    names = ["C", *(f"M_{k}" for k in range(1, args.n // 2)), "tau", "tau offset"]
    columns = (
        printed.coefficients(),
        derived_model(args.n).coefficients(),
        model.coefficients(),
    )
    for name, *row in zip(names, *columns):
        cells = " ".join(f"{_coeff_text(c):>12}" for c in row)
        marker = "   <- printed differs from derived" if row[0] != row[1] else ""
        lines.append(f"{name:<12} {cells}{marker}")
    return _Report(
        inputs={"n": args.n, "samples": args.samples, "seed": args.seed},
        results=reports.fit_dict(model, diag),
        lines=lines,
    )


def _cmd_search(args) -> _Report:
    config = SearchConfig(
        n=args.n, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
    )
    if args.n == 12:
        print("note: n=12 search is slow", file=sys.stderr)
    result = minimize_average_purity(config)
    results = reports.search_dict(result)
    constant = float(derived_model(args.n).constant)
    gap = result.best_value - constant
    lines = [
        f"best pi_ME = {result.best_value}  (C = {constant}, gap to C = {gap})",
        f"n-tangle of best state = {results['best_n_tangle']}",
    ]
    inputs = {
        "n": args.n,
        "restarts": args.restarts,
        "max_iters": args.max_iters,
        "seed": args.seed,
    }
    return _Report(inputs, results, lines)


def _cmd_audit(args) -> _Report:
    rows = conjecture_audit()
    lines = ["  n  C            required tau at K=0"]
    for row in rows:
        lines.append(f" {row.n:>2}  {str(row.constant):<11}  {row.required_tau}")
    return _Report({}, reports.audit_dict(rows), lines, known_errata())


_HANDLERS = {
    "state": _cmd_state,
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "fit": _cmd_fit,
    "search": _cmd_search,
    "audit": _cmd_audit,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
        doc = reports.report_document(argv, report.inputs, report.results, report.errata)
        print(reports.dumps(doc))
        if args.pretty:
            for line in report.lines:
                print(line, file=sys.stderr)
    except (ValueError, OSError) as exc:  # StateError and SearchError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return report.code


if __name__ == "__main__":
    sys.exit(main())
