"""Benchmark of the mmeslab package in this checkout: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity-n12 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): identity-n12, fit-n10, search-n6, cli-io-n12.
Each is a closed loop, one op at a time in one process, on inputs made from
--seed only.  Every op's output is checked outside the timed region; an op
that raises or fails its check counts as failed.  The timed phase runs ops
until their summed time reaches --seconds (and, for cli-io-n12, a whole
cycle of its input pool).

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_SAMPLES
set-ups, each imports, input generation and one warm-up op), ops_per_s
(median over WINDOWS windows of the timed phase), op_p50_s and peak_rss_mb
(this process only).  --trace 1 wraps the package's public functions
(spans.py) and reports per-layer metrics per op instead.
The last line of stdout is the result object; the line before it is a
record with the environment and details, also written under .perfbench_out/
together with the spans of a traced run.  summarize.py tabulates records.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

OUT_DIR = ".perfbench_out"
# Set-up is measured in this process and in fresh child processes; the
# median is reported so one slow start does not move it.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
WINDOWS = 10


def import_checkout(root: Path):
    """Import mmeslab from ``root/src`` and refuse a copy from anywhere else."""
    src = root / "src"
    if not (src / "mmeslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/mmeslab in {root}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    ml = importlib.import_module("mmeslab")
    importlib.import_module("mmeslab.cli")
    where = Path(ml.__file__).resolve()
    if root.resolve() not in where.parents:
        raise SystemExit(f"perfbench: mmeslab was imported from {where}, outside {root}")
    return ml


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads(np)},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds: float, tracer=None, max_ops: int | None = None):
    """Closed loop: ops until their summed time reaches ``seconds``.

    Returns per-op durations, per-op error (None when correct), and the
    summed op time.  Checks run between ops and are not timed.
    """
    durations, errors = [], []
    busy = 0.0
    i = 0
    while (busy < seconds or i % workload.cycle) and (max_ops is None or i < max_ops):
        item = workload.items[i % len(workload.items)]
        i += 1
        error = None
        start = time.perf_counter()
        try:
            out = tracer.op(workload.op, item) if tracer else workload.op(item)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        durations.append(elapsed)
        if error is None:
            error = workload.check(item, out)
        errors.append(error)
    return durations, errors, busy


def windowed_throughput(durations: list[float], errors: list, seconds: float) -> float:
    """Median over WINDOWS consecutive windows of the timed phase of
    (correct ops in the window) / (op time in the window).

    This machine's speed drifts by 10-15 % within seconds; the median keeps
    a slow stretch in a few windows from moving the figure.  A window closes
    once it holds seconds / WINDOWS of op time; leftover ops join the last.
    """
    windows: list[list[float]] = []
    ok = busy = 0.0
    for duration, error in zip(durations, errors):
        ok += error is None
        busy += duration
        if busy >= seconds / WINDOWS:
            windows.append([ok, busy])
            ok = busy = 0.0
    if not windows:
        windows.append([ok, busy])
    elif busy:
        windows[-1][0] += ok
        windows[-1][1] += busy
    return statistics.median(w_ok / w_busy for w_ok, w_busy in windows)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    ml = import_checkout(root)
    # Imported after the package so that set-up time includes numpy's import.
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](ml, args.seed)
    workload.op(workload.warm_item)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"env": environment(root, np, args)}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        modules = {name: getattr(ml, name) for name in ("decomposition", "reports", "purity", "search", "cli")}
        with spans.Tracer() as tracer:
            tracer.install(modules)
            durations, errors, busy = measure(workload, args.seconds, tracer)
        tracer.dump(str(out_dir / f"spans-{args.workload}.json"))
        metrics, record["span_self_s_per_op"] = tracer.summary(len(durations))
        units = spans.LAYER_METRICS
    else:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        durations, errors, busy = measure(workload, args.seconds)
        record["setup_samples_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": windowed_throughput(durations, errors, args.seconds),
            "op_p50_s": statistics.median(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

    failed = sum(e is not None for e in errors)
    op_p90 = p90(durations)
    record.update({
        "ops": len(durations),
        "failed": failed,
        "busy_s": busy,
        "ops_per_s": windowed_throughput(durations, errors, args.seconds),
        "ops_per_s_whole_run": (len(durations) - failed) / busy,
        "op_mean_s": busy / len(durations),
        # Recorded, not reported: only cli-io-n12 has ten ops beyond it, and
        # there it moved by a third between runs on a shared 2-core machine.
        "op_p90_s": op_p90,
        "ops_beyond_p90": sum(d > op_p90 for d in durations),
        "errors": sorted({e for e in errors if e is not None})[:5],
        "metrics": metrics,
    })
    for error in record["errors"]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    record_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
