"""Command-line surface.

One structured mmeslab-report-v1 document goes to stdout; human-readable
tables go to stderr under --pretty.  Exit codes: 0 success (errata found by
``invariants`` are data, not failures), 1 verification failure, 2 bad
arguments or malformed input.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import reports
from .decomposition import (
    conjecture_audit,
    fit_coefficients,
    known_errata,
    printed_model,
    verify_identity,
)
from .search import SearchConfig, SearchError, minimize_average_purity
from .states import (
    StateError,
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
    p_inv.add_argument("--no-tangle", action="store_true")
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
    p_search.add_argument("--objective", choices=["oracle", "model"], default="oracle")

    sub.add_parser("audit", help="tau requirement of each printed model at K = 0")
    return parser


def _emit(doc: dict, pretty_lines: Sequence[str], pretty: bool) -> None:
    print(reports.dumps(doc))
    if pretty:
        for line in pretty_lines:
            print(line, file=sys.stderr)


def _cmd_state(args, argv) -> int:
    kind = args.kind
    if kind == "psi_m8":
        if args.n not in (None, 8):
            print("psi_m8 fixes n=8", file=sys.stderr)
            return EXIT_BAD_INPUT
        state = make_psi_m8()
    else:
        if args.n is None:
            print(f"--n is required for --kind {kind}", file=sys.stderr)
            return EXIT_BAD_INPUT
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
    doc = reports.report_document(
        argv,
        inputs={"kind": kind, "n": state.n, "seed": args.seed, "out": args.out},
        results={"written": args.out, "n": state.n, **dict(state.meta)},
    )
    _emit(doc, [f"wrote {args.out} ({state.dim} amplitudes)"], args.pretty)
    return EXIT_OK


def _cmd_invariants(args, argv) -> int:
    state = load_state(args.in_path)
    max_weight = min(4, state.n) if args.max_weight is None else args.max_weight
    if not 1 <= max_weight <= state.n:
        print(f"--max-weight must be in [1, {state.n}]", file=sys.stderr)
        return EXIT_BAD_INPUT
    results, errata = reports.invariants_results(
        state,
        max_weight,
        with_tangle=not args.no_tangle,
        with_purity=not args.no_purity,
    )
    doc = reports.report_document(
        argv,
        inputs={"state_file": args.in_path, "max_weight": max_weight},
        results=results,
        errata_flags=errata,
    )
    lines = [f"n={state.n}  M_k={results['weight_sums']['m']}"]
    if "n_tangle" in results:
        lines.append(f"n_tangle={results['n_tangle']}")
    if "purity" in results:
        lines.append(f"pi_ME={results['purity']['pi_me_mean']}")
    lines.extend(f"ERRATA: {flag}" for flag in errata)
    _emit(doc, lines, args.pretty)
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    summary = verify_identity(args.n, args.samples, args.seed, args.tol)
    doc = reports.report_document(
        argv,
        inputs={"n": args.n, "samples": args.samples, "seed": args.seed, "tol": args.tol},
        results=reports.verification_dict(summary),
        errata_flags=[]
        if summary.passed
        else [
            f"printed n={args.n} model fails at tol {args.tol}: "
            f"max residual {summary.max_abs_residual!r}"
        ],
    )
    lines = [
        f"{'PASS' if summary.passed else 'FAIL'}  n={args.n}  "
        f"max|residual|={summary.max_abs_residual}"
    ]
    _emit(doc, lines, args.pretty)
    return EXIT_OK if summary.passed else EXIT_VERIFY_FAIL


def _cmd_fit(args, argv) -> int:
    model, diag = fit_coefficients(args.n, args.samples, args.seed)
    doc = reports.report_document(
        argv,
        inputs={"n": args.n, "samples": args.samples, "seed": args.seed},
        results=reports.fit_dict(model, diag),
    )
    lines = [
        f"fitted n={args.n}: holdout max residual {diag.holdout_max_residual}, "
        f"rank {diag.rank}/{len(diag.features)}, snapped={diag.snapped}"
    ]
    _emit(doc, lines, args.pretty)
    return EXIT_OK


def _cmd_search(args, argv) -> int:
    config = SearchConfig(
        n=args.n,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        objective=args.objective,
    )
    if args.n == 12:
        print("note: n=12 search is slow", file=sys.stderr)
    result = minimize_average_purity(config)
    doc = reports.report_document(
        argv,
        inputs={
            "n": args.n,
            "restarts": args.restarts,
            "max_iters": args.max_iters,
            "seed": args.seed,
            "objective": args.objective,
        },
        results=reports.search_dict(result),
    )
    constant = float(printed_model(args.n).constant)
    lines = [f"best pi_ME = {result.best_value}  (printed constant C = {constant})"]
    _emit(doc, lines, args.pretty)
    return EXIT_OK


def _cmd_audit(args, argv) -> int:
    rows = conjecture_audit()
    doc = reports.report_document(
        argv, inputs={}, results=reports.audit_dict(rows), errata_flags=known_errata()
    )
    lines = ["  n  C            required tau at K=0"]
    for row in rows:
        lines.append(f" {row.n:>2}  {str(row.constant):<11}  {row.required_tau}")
    _emit(doc, lines, args.pretty)
    return EXIT_OK


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, argv)
    except (StateError, SearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
