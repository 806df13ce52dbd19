#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results.

    python3 benchmarks/compare.py RESULTS_DIR              # spread of one set
    python3 benchmarks/compare.py BASE_DIR CHANGED_DIR     # change against a base

A set is a directory of the `<workload>-seed<n>-trace0.json` files that
benchmarks/run.py writes.  For every workload and end-to-end metric of
BENCHMARK.json it prints the median and the quartile spread (q3 - q1) as a
share of the median; with two sets it also prints how much worse the
changed median is than the base median, against the metric's bound.  The
workload's other report lines (median latency, throughput, p99) follow
without a bound.

Simulated statistics (`sim.*`) repeat exactly for a given workload and seed,
so any difference between runs of the same seed is reported as an OUTPUT
CHANGE, never as noise.  The exit status is 1 if there is one, or a
regression beyond a bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["meta"]["workload"], []).append(result)
    return runs


def summary(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def sim_changes(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    by_seed: dict[int, dict] = {}
    changes = []
    for run in runs_a + runs_b:
        seed = run["meta"]["seed"]
        if seed in by_seed and by_seed[seed] != run["sim"]:
            changes.append(f"seed {seed}: {by_seed[seed]} != {run['sim']}")
        by_seed.setdefault(seed, run["sim"])
    return changes


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    status = 0
    for workload in sorted(sets[0]):
        runs = [s.get(workload, []) for s in sets]
        failed = sum(r["failed"] for rs in runs for r in rs)
        print(f"{workload}: {' + '.join(str(len(r)) for r in runs)} runs, "
              f"{failed} failed operations")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in runs if rs]
            line = "  ".join(f"median {m:12.6g}  spread {s:6.1%}" for m, s in stats)
            # set-up time is bounded on its median only, not on its spread
            spread_ok = name == "setup_s" or all(s <= bound for _, s in stats)
            flag = "" if spread_ok else "  SPREAD > bound"
            if len(stats) == 2:
                (base, _), (new, _) = stats
                worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
                line += f"  worse by {worse:+6.1%}"
                if worse > bound:
                    flag += "  REGRESSION"
                    status = 1
            print(f"  {name:<16} {line}  (bound {bound:.0%}){flag}")
        bounded = {m["name"] for m in spec["end_to_end"]}
        for name in [r["name"] for r in runs[0][0]["report"]]:
            if name in bounded or name.startswith("sim."):
                continue
            stats = [summary([e["value"] for r in rs for e in r["report"] if e["name"] == name])
                     for rs in runs if rs]
            line = "  ".join(f"median {m:12.6g}  spread {s:6.1%}" for m, s in stats)
            print(f"  {name:<16} {line}  (no bound)")
        changes = sim_changes(*runs) if len(runs) == 2 else sim_changes(runs[0], [])
        for change in changes:
            print(f"  OUTPUT CHANGE {change}")
            status = 1
        if not changes:
            print("  sim.* statistics identical for every seed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
