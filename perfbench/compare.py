#!/usr/bin/env python3
"""Compare two benchmark result files: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold the result lines run.py appends (its --results option).
For every workload and end-to-end metric this prints each side's median
and quartiles over its runs, the change's relative delta in the metric's
"worse" direction, and a verdict against the bound in BENCHMARK.json:
`ok`, `REGRESSION`, or `unresolved` when either side's own spread exceeds
the bound (unless every change run beats every parent run). Per-layer
metrics from traced runs are listed side by side without a verdict.

Every fingerprint (sha256 of trace.jsonl, report.json, report.txt and the
sweep output) and shape count is compared for each workload and seed run
on both sides: a speed-only change must leave them byte-identical, so any
difference is flagged. Exit status 1 on a regression, a changed
fingerprint or shape, or a failed run on either side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(results: list[dict], trace: int) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = {}
    for r in results:
        if r["trace"] != trace or r["smoke"]:
            continue
        for name, m in r["metrics"].items():
            table.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return table


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> tuple[float, str]:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (cm - pm) / pm
    if (p3 - p1) / pm > bound or (c3 - c1) / cm > bound:
        beats = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        return worse, "better" if beats else "unresolved"
    return worse, "REGRESSION" if worse > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)
    bad = False

    for side, results in (("parent", parent), ("change", change)):
        for r in results:
            if r["failed"]:
                bad = True
                print(f"FAILED run on {side}: {r['workload']} seed {r['seed']}: {r['failed']} of {r['attempted']} calls")

    p_e2e, c_e2e = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(p_e2e) & set(c_e2e)):
        n_p = len(next(iter(p_e2e[workload].values())))
        n_c = len(next(iter(c_e2e[workload].values())))
        print(f"{workload} ({n_p} parent runs, {n_c} change runs)")
        for m in spec["end_to_end"]:
            p, c = p_e2e[workload][m["name"]], c_e2e[workload][m["name"]]
            worse, result = verdict(p, c, m["bound"], m["better"])
            bad |= result == "REGRESSION"
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"  {m['name']:<20} parent {pq[1]:>12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}"
                f"  worse by {worse:+.2%} (bound {m['bound']:.0%})  {result}"
            )

    p_layer, c_layer = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(p_layer) & set(c_layer)):
        print(f"{workload} per-layer medians (parent -> change)")
        for m in spec["per_layer"]:
            p, c = p_layer[workload].get(m["name"]), c_layer[workload].get(m["name"])
            if p and c:
                print(f"  {m['name']:<36} {statistics.median(p):>12.6g} -> {statistics.median(c):<12.6g} {m['unit']}")

    p_runs = {(r["workload"], r["seed"], r["smoke"]): r for r in parent if not r["failed"]}
    c_runs = {(r["workload"], r["seed"], r["smoke"]): r for r in change if not r["failed"]}
    for key in sorted(set(p_runs) & set(c_runs)):
        for field in ("fingerprints", "shape"):
            p, c = p_runs[key][field], c_runs[key][field]
            for name in sorted(set(p) | set(c)):
                if p.get(name) != c.get(name):
                    bad = True
                    print(f"CHANGED {field} {name} on {key[0]} seed {key[1]}: {p.get(name)} -> {c.get(name)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
