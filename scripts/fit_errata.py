#!/usr/bin/env python3
"""Print the published C + K coefficients next to the exact derived ones
and a least-squares refit from the purity oracle, marking every published
coefficient that differs from the derivation."""
import argparse
from fractions import Fraction

from mmeslab.decomposition import derived_model, fit_coefficients, printed_model


def _fmt(c):
    return str(c) if isinstance(c, Fraction) else f"{c:.12g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    fitted, diag = fit_coefficients(args.n, args.samples, args.seed)
    published, derived = printed_model(args.n), derived_model(args.n)
    print(f"n = {args.n}")
    print(f"feature-matrix rank {diag.rank}/{len(diag.features)} "
          f"(null space {diag.null_space_dim})")
    print(f"training max residual {diag.training_max_residual:.3e}, "
          f"held-out {diag.holdout_max_residual:.3e}, snapped={diag.snapped}")
    print()
    print(f"{'coefficient':<12} {'published':>12} {'derived':>12} {'fitted':>12}")
    names = ["C", *(f"M_{k}" for k in range(1, args.n // 2)), "tau", "tau offset"]
    columns = (published.coefficients(), derived.coefficients(), fitted.coefficients())
    for name, a, b, c in zip(names, *columns):
        marker = "" if a == b else "   <- published differs from derived"
        print(f"{name:<12} {_fmt(a):>12} {_fmt(b):>12} {_fmt(c):>12}{marker}")


if __name__ == "__main__":
    main()
