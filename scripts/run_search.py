#!/usr/bin/env python3
"""Search for minimal-average-purity states and compare with the printed constant C."""
import argparse
from collections import Counter
from fractions import Fraction

from mmeslab.decomposition import printed_model
from mmeslab.pauli import n_tangle
from mmeslab.search import SearchConfig, minimize_average_purity
from mmeslab.states import save_state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--restarts", type=int, default=32)
    parser.add_argument("--max-iters", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the best state to this file")
    args = parser.parse_args()

    result = minimize_average_purity(
        SearchConfig(
            n=args.n, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
        )
    )
    print(f"n = {args.n}: best pi_ME = {result.best_value:.12f} "
          f"({result.wall_time:.1f} s over {args.restarts} restarts)")
    print(f"restart stops: {dict(Counter(result.restart_stops))}, "
          f"largest final gradient norm {max(result.restart_grad_norms):.1e}")
    constant = Fraction(printed_model(args.n).constant)
    print(f"printed constant C = {constant} = {float(constant):.12f}, "
          f"best minus C = {result.best_value - float(constant):.3e}")
    print(f"n-tangle of best state = {n_tangle(result.best_state):.6e}")
    if args.out:
        save_state(result.best_state, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
