#!/usr/bin/env python3
"""Condense benchmark runs into one JSON summary, such as a committed BENCH_<n>.json.

    python3 scripts/bench_summary.py parent=benchmark/out/critical-seed1-trace0 \
        change=OTHER/benchmark/out/critical-seed1-trace0 ... > BENCH_<n>.json

Each DIR is a benchmark/out/<workload>-seed<n>-trace0 directory written by
benchmark/run.py. Per label and workload the summary gives the seeds, the
failed and attempted operation counts, the first quartile, median and third
quartile of each end-to-end metric (names and units from BENCHMARK.json), the
median scaled seconds of each slot over the runs' operations (which slots
move a tail) and the host fields of the runs' environment. Where a workload
ran under both the labels `parent` and `change`, each end-to-end metric of
`change` also gets a `pairs` block over the seeds the two share: in how many
seeds change is better, worse or tied (by BENCHMARK.json's `better`), and the
parent's interquartile range over those seeds. Standard library only.
"""

import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, spec: dict) -> dict:
    runs: dict = {}
    for pair in pairs:
        label, sep, directory = pair.partition("=")
        if not sep:
            raise SystemExit(f"expected LABEL=DIR, got {pair!r}")
        report = json.loads((Path(directory) / "report.json").read_text())
        runs.setdefault(label, {}).setdefault(report["workload"], []).append(report)
    out: dict = {}
    for label, workloads in runs.items():
        for workload, reports in sorted(workloads.items()):
            hosts = [{k: v for k, v in r["environment"].items() if k != "seed"} for r in reports]
            if any(h != hosts[0] for h in hosts):
                raise SystemExit(f"{label}/{workload}: runs come from different hosts")
            ops = [op for r in reports for recs in r["operations"].values() for op in recs]
            metrics = {}
            for m in spec["end_to_end"]:
                q1, median, q3 = _quartiles([r["metrics"][m["name"]]["value"] for r in reports])
                metrics[m["name"]] = {"unit": m["unit"], "q1": q1, "median": median, "q3": q3}
            slots: dict = {}
            for op in ops:
                slots.setdefault(op["slot"], []).append(op["seconds"])
            out.setdefault(label, {})[workload] = {
                "seeds": sorted(r["environment"]["seed"] for r in reports),
                "failed": sum(not op["solved"] for op in ops),
                "attempted": len(ops),
                "metrics": metrics,
                "slot_median_s": {slot: statistics.median(seconds)
                                  for slot, seconds in sorted(slots.items())},
                "host": hosts[0],
            }
    for workload, changed in out.get("change", {}).items():
        if workload in out.get("parent", {}):
            _add_pairs(runs["parent"][workload], runs["change"][workload], changed["metrics"], spec)
    return out


def _add_pairs(parent: list, change: list, metrics: dict, spec: dict) -> None:
    """Give each end-to-end metric of change a `pairs` block over the seeds
    that parent and change share."""
    def by_seed(reports, name):
        return {r["environment"]["seed"]: r["metrics"][name]["value"] for r in reports}

    for m in spec["end_to_end"]:
        before, after = by_seed(parent, m["name"]), by_seed(change, m["name"])
        seeds = sorted(before.keys() & after.keys())
        if not seeds:
            continue
        sign = 1 if m["better"] == "lower" else -1
        gains = [sign * (before[s] - after[s]) for s in seeds]
        q1, _, q3 = _quartiles([before[s] for s in seeds])
        metrics[m["name"]]["pairs"] = {
            "seeds": len(seeds), "better": sum(g > 0 for g in gains),
            "worse": sum(g < 0 for g in gains), "tied": sum(g == 0 for g in gains),
            "parent_iqr": q3 - q1}


def main(argv: list) -> int:
    if not argv:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps(summarize(argv, spec), indent=1))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # piped to head: stop quietly
    sys.exit(main(sys.argv[1:]))
