"""Tabulate the records that run.py leaves in .perfbench_out/.

    python3 perfbench/summarize.py [--out summary.json]

Prints, per workload: each end-to-end metric's median and quartile spread
over the untraced runs; the tracing overhead (untraced against traced
throughput); each layer group's share of traced op time next to its
predicted share; and the computed counts.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT_DIR = Path(".perfbench_out")
E2E = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb", "op_p90_s")
COUNTS = (
    "pauli.strings_enumerated",
    "purity.reduced_purity_calls",
    "states.bytes_written",
    "states.bytes_read",
    "reports.report_bytes",
)
WORKLOAD_ORDER = ("identity-n12", "fit-n10", "search-n6", "cli-io-n12")

# Predicted share of op time as (low, high).
SHARE = {
    "~90%": (0.75, 0.97),
    "~60%": (0.45, 0.75),
    "~20%": (0.10, 0.30),
    "~5%": (0.02, 0.10),
    "nearly all": (0.80, 1.0),
    "small": (0.0, 0.10),
    "some": (0.01, 1.0),
    "none": (0.0, 0.01),
}


def _rest(label: str, **given: str) -> dict[str, str]:
    return {w: given.get(w.replace("-", "_"), label) for w in WORKLOAD_ORDER}


# Layer groups as sums of span self times, so the groups do not overlap,
# with the predicted share of op time per workload.
GROUPS = (
    ("pauli enumeration", ("pauli.weight_sums_enumeration",),
     _rest("none", identity_n12="~90%", cli_io_n12="~20%")),
    ("moebius sums + purities", ("pauli.weight_sums_moebius", "purity.average_balanced_purity", "purity.reduced_purity"),
     _rest("none", fit_n10="nearly all", identity_n12="~5%")),
    ("n-tangle + decomposition self", ("pauli.n_tangle", "decomposition.evaluate", "decomposition.fit_coefficients"),
     {"fit-n10": "small", "identity-n12": "small", "search-n6": "none"}),
    ("search", ("search.minimize_average_purity",), _rest("none", search_n6="nearly all")),
    ("states", ("states.random_state", "states.save_state", "states.load_state"),
     _rest("none", cli_io_n12="some")),
    ("reports + cli", ("reports.invariants_results", "reports.dumps", "cli.state", "cli.invariants"),
     _rest("none", cli_io_n12="some")),
    ("JSON: save_state + load_state + dumps", ("states.save_state", "states.load_state", "reports.dumps"),
     {"cli-io-n12": "~60%"}),
)


def spread(values: list[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(out_dir: Path) -> dict[tuple[str, int], list[dict]]:
    records: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(out_dir.glob("*-s*-t[01].json")):
        record = json.loads(path.read_text())
        env = record["env"]
        records.setdefault((env["workload"], env["trace"]), []).append(record)
    return records


def summarize(records) -> dict:
    """{"env": machine and versions of one record, "workloads": per workload}."""
    first = next(iter(records.values()), [{"env": {}}])[0]["env"]
    env = {k: v for k, v in first.items() if k not in ("workload", "seed", "trace")}
    summary: dict = {"env": env, "workloads": {}}
    for workload in WORKLOAD_ORDER:
        plain = records.get((workload, 0), [])
        traced = records.get((workload, 1), [])
        if not plain and not traced:
            continue
        entry: dict = {"runs": len(plain), "traced_runs": len(traced), "seeds": sorted(r["env"]["seed"] for r in plain)}
        entry["end_to_end"] = {
            name: {
                "median": statistics.median(vals),
                "quartiles": statistics.quantiles(vals, n=4) if len(vals) > 1 else None,
                "spread": spread(vals),
            }
            for name in E2E
            if (vals := [r["metrics"].get(name, r.get(name)) for r in plain])
        }
        entry["failed_ops"] = sum(r["failed"] for r in plain + traced)
        # Overhead from seeds run both ways; run each pair back to back, as
        # the machine's speed drifts by more than the overhead over minutes.
        by_seed = {r["env"]["seed"]: r["ops_per_s"] for r in plain}
        pairs = [(by_seed[r["env"]["seed"]], r["ops_per_s"]) for r in traced if r["env"]["seed"] in by_seed]
        if pairs:
            entry["tracing_overhead"] = {
                "seeds": sorted(r["env"]["seed"] for r in traced if r["env"]["seed"] in by_seed),
                "ops_per_s_untraced": statistics.median(u for u, _ in pairs),
                "ops_per_s_traced": statistics.median(t for _, t in pairs),
                "slowdown": statistics.median(1.0 - t / u for u, t in pairs),
            }
        if traced:
            shares = {}
            for label, members, predicted in GROUPS:
                values = []
                for r in traced:
                    self_s = r["span_self_s_per_op"]
                    values.append(sum(self_s.get(m, 0.0) for m in members) / r["op_mean_s"])
                share = statistics.median(values)
                prediction = predicted.get(workload)
                verdict = None
                if prediction is not None:
                    low, high = SHARE[prediction]
                    verdict = "match" if low <= share <= high else "MISMATCH"
                shares[label] = {"share": share, "predicted": prediction, "verdict": verdict}
            entry["layer_shares"] = shares
            entry["counts"] = {
                name: sorted({r["metrics"][name] for r in traced}) for name in COUNTS
            }
        summary["workloads"][workload] = entry
    return summary


def show(summary: dict) -> None:
    print(json.dumps(summary["env"]))
    for workload, entry in summary["workloads"].items():
        print(f"== {workload}: {entry['runs']} untraced runs, {entry['traced_runs']} traced, "
              f"{entry['failed_ops']} failed ops")
        for name, stats in entry["end_to_end"].items():
            print(f"   {name:12s} median {stats['median']:.6g}  spread {stats['spread']:.3f}")
        if "tracing_overhead" in entry:
            o = entry["tracing_overhead"]
            print(f"   tracing: {o['ops_per_s_untraced']:.4g} -> {o['ops_per_s_traced']:.4g} ops/s "
                  f"({o['slowdown']:+.1%} slowdown)")
        for label, s in entry.get("layer_shares", {}).items():
            predicted = s["predicted"] or "-"
            print(f"   {label:40s} {s['share']:7.1%}  predicted {predicted:10s} {s['verdict'] or ''}")
        for name, values in entry.get("counts", {}).items():
            print(f"   computed {name:30s} {values}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args(argv)
    summary = summarize(load(OUT_DIR))
    show(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
