#!/usr/bin/env python3
"""Per-layer diff of two sets of traced sweep-benchmark results.

Usage:
    for w in learn large-n congestion; do
        python3 perfbench/run.py --workload $w --trace 1 >> base.txt
    done
    # ... change the code, then the same loop into new.txt ...
    python3 perfbench/diff.py base.txt new.txt

Each file holds the standard output of one or more `run.py --trace 1` runs
(a {"perfbench_meta": ...} line followed by the result line). For every
workload present in both files this prints each layer's self time, share
and count on both sides with the delta, largest absolute time change first,
so a change's claimed saving can be located in one command. When a file
holds several runs of one workload, the median of each metric is used.
"""

import argparse
import json
import statistics
import sys


def load(path):
    """{workload: {metric: (median value, unit)}} from one results file."""
    runs = {}
    workload = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "perfbench_meta" in doc:
                workload = doc["perfbench_meta"]["workload"]
            elif "metrics" in doc and workload is not None:
                runs.setdefault(workload, []).append(doc["metrics"])
                workload = None
    out = {}
    for name, metric_sets in runs.items():
        out[name] = {
            key: (statistics.median(m[key]["value"] for m in metric_sets
                                    if key in m), first["unit"])
            for key, first in metric_sets[0].items()
        }
    return out


def fmt(value):
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    shared = [w for w in base if w in new]
    if not shared:
        print("diff: no workload appears in both files", file=sys.stderr)
        return 1
    for workload in shared:
        print(f"== {workload}")
        print(f"{'metric':32} {'unit':6} {'base':>14} {'new':>14} "
              f"{'delta':>14} {'delta%':>8}")
        rows = []
        for key, (b, unit) in base[workload].items():
            if key not in new[workload]:
                continue
            n = new[workload][key][0]
            pct = f"{(n - b) / b * 100:+.1f}" if b else "-"
            change = -abs(n - b) if unit == "s" else 0
            rows.append((unit != "s", change, key, unit, b, n, pct))
        # Self times first, largest change on top; then shares and counts.
        rows.sort(key=lambda r: r[:3])
        for _, _, key, unit, b, n, pct in rows:
            print(f"{key:32} {unit:6} {fmt(b):>14} {fmt(n):>14} "
                  f"{fmt(n - b):>14} {pct:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
