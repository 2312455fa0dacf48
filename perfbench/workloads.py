"""The benchmark's workloads: inputs from a seed, one op, and its correctness gate.

Every workload is a closed loop: one caller issues one op at a time in one
process.  ``items`` are generated from the workload seed only; ``warm_item``
is a further input from the same seed, used for the untimed warm-up op.
``check`` runs outside the timed region and returns an error string, or
None when the op's output is correct.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import numpy as np


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


class IdentityN12:
    """``verify`` at n=12: evaluate the printed model on canonical then Haar states.

    Weight sums use the default enumeration strategy, so Pauli enumeration up
    to weight 5 dominates.  The printed n=12 model is exact, so every
    residual must vanish to 1e-9.
    """

    name = "identity-n12"
    cycle = 1
    n = 12
    tol = 1e-9

    def __init__(self, ml, seed: int, model=None):
        self.ml = ml
        self.model = model if model is not None else ml.decomposition.printed_model(self.n)
        warm, *haar = _seeds(seed, 30)
        self.items = [state for _, state in ml.decomposition.canonical_states(self.n)]
        self.items += [ml.states.random_state(self.n, s) for s in haar]
        self.warm_item = ml.states.random_state(self.n, warm)

    def op(self, state):
        return self.ml.decomposition.evaluate(self.model, state)

    def check(self, state, report):
        if not abs(report.residual) <= self.tol:
            return f"residual {report.residual!r} exceeds {self.tol}"
        return None


class FitN10:
    """Least-squares refit of the n=10 coefficients (moebius weight sums).

    Exercises Gram-matrix purities for every small marginal and the balanced
    cuts, with no Pauli enumeration, and the n=10 erratum repair: the snapped
    weight-4 coefficient must be 1/2016, not the printed 2/2016.
    """

    name = "fit-n10"
    cycle = 1
    n = 10
    tol = 1e-9

    def __init__(self, ml, seed: int):
        self.ml = ml
        self.warm_item, *self.items = _seeds(seed, 33)

    def op(self, seed):
        return self.ml.decomposition.fit_coefficients(
            self.n, samples=60, seed=seed, holdout_samples=40
        )

    def check(self, seed, out):
        model, diag = out
        if not diag.snapped:
            return "coefficients were not snapped to rationals"
        if model.weight_coeffs[3] != Fraction(1, 2016):
            return f"weight-4 coefficient {model.weight_coeffs[3]!r} is not 1/2016"
        worst = max(diag.holdout_max_residual, diag.holdout_max_residual_snapped)
        if not worst <= self.tol:
            return f"held-out residual {worst!r} exceeds {self.tol}"
        return None


class SearchN6:
    """Multi-restart minimization of pi_ME at n=6; the floor is 1/8.

    Restarts either converge in about 30 iterations or run to the iteration
    cap while already at the floor.  The cap is 50, not a larger value: with
    a cap of 3000 a capped restart takes about 2 s and one op 0.07 to 7.4 s
    (30 seeds measured on a 2-core machine), so a 20 s run completes only
    about 20 restarts and its throughput depends mostly on how many of them
    hit the cap.  At a cap of 50 a run completes about 600 restarts, and
    every restart measured at caps of 50 and 100 ends within 1e-16 of the
    floor, so the gate still holds.
    """

    name = "search-n6"
    cycle = 1
    n = 6
    restarts = 4
    max_iters = 50
    tol = 1e-6

    def __init__(self, ml, seed: int):
        self.ml = ml
        self.warm_item, *self.items = _seeds(seed, 257)

    def op(self, seed):
        search = self.ml.search
        config = search.SearchConfig(
            n=self.n, restarts=self.restarts, max_iters=self.max_iters, seed=seed
        )
        return search.minimize_average_purity(config)

    def check(self, seed, result):
        floor = 2.0 ** -(self.n // 2)
        if not abs(result.best_value - floor) <= self.tol:
            return f"best value {result.best_value!r} is not within {self.tol} of {floor}"
        return None


class CliIoN12:
    """In-process CLI round trips at n=12: write a random state, read its invariants.

    One op is the pair ``state --kind random`` then ``invariants
    --max-weight 2 --no-purity`` on the file just written, so JSON encoding
    and decoding in ``states`` and ``reports`` carry most of the weight.
    Items cycle through a pool of eight seeds and a run ends on a whole
    cycle, so per-op byte counts repeat exactly for a fixed seed.
    """

    name = "cli-io-n12"
    cycle = 8
    n = 12
    max_weight = 2
    tol = 1e-8

    def __init__(self, ml, seed: int, workdir: str = ".perfbench_out/cli-io-n12"):
        self.ml = ml
        os.makedirs(workdir, exist_ok=True)
        # A fixed relative path keeps report bytes identical across checkouts.
        self.path = os.path.join(workdir, "state.json")
        self.warm_item, *self.items = _seeds(seed, self.cycle + 1)

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ml.cli.main(argv)
        return code, out.getvalue()

    def op(self, seed):
        n = str(self.n)
        write = self._call(
            ["state", "--kind", "random", "--n", n, "--seed", str(seed), "--out", self.path]
        )
        read = self._call(
            ["invariants", "--in", self.path, "--max-weight", str(self.max_weight), "--no-purity"]
        )
        return write, read

    def check(self, seed, out):
        docs = []
        for code, stdout in out:
            if code != 0:
                return f"exit code {code}"
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"stdout is not JSON: {exc}"
            if not isinstance(doc, dict) or doc.get("format") != "mmeslab-report-v1":
                return "stdout is not a mmeslab-report-v1 document"
            docs.append(doc)
        expected = self.ml.states.random_state(self.n, seed)
        loaded = self.ml.states.load_state(self.path)
        if loaded.amplitudes.tobytes() != expected.amplitudes.tobytes():
            return "load_state did not return the written amplitudes bit for bit"
        reference = self.ml.pauli.weight_sums(expected, self.max_weight, strategy="moebius").m
        got = docs[1]["results"]["weight_sums"]["m"]
        if len(got) != len(reference) or not np.allclose(got, reference, rtol=0.0, atol=self.tol):
            return f"M_1..M_{self.max_weight} {got} disagree with moebius {list(reference)}"
        return None


WORKLOADS = {cls.name: cls for cls in (IdentityN12, FitN10, SearchN6, CliIoN12)}
