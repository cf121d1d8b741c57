"""Medians of the paired runs in a pairs.json written by pairs.py.

    python3 results/pr22/summary.py results/pr22/pairs.json [CLAIMED_METRIC]

For each workload and seed, prints every end-to-end metric's parent and
change medians, then for CLAIMED_METRIC (default ``solve_s``) the pairs the
change won (lower is better, ties count for neither side) and the distance
between the parent's quartiles (numpy's linear percentiles).
"""

import json
import sys
from collections import defaultdict

import numpy as np

runs = json.load(open(sys.argv[1]))
claimed = sys.argv[2] if len(sys.argv) > 2 else "solve_s"
# (workload, seed) -> pair -> side -> metric values, and failed operations
groups = defaultdict(lambda: defaultdict(dict))
failed = defaultdict(int)
for run in runs:
    values = {k: m["value"] for k, m in run["result"]["metrics"].items()}
    groups[run["workload"], run["seed"]][run["pair"]][run["side"]] = values
    failed[run["workload"], run["seed"], run["side"]] += run["result"]["failed"]
for (workload, seed), pairs in groups.items():
    done = [p for p in pairs.values() if len(p) == 2]
    if not done:
        continue
    print(f"{workload} seed {seed}: {len(done)} pairs, failed operations parent "
          f"{failed[workload, seed, 'parent']}, change {failed[workload, seed, 'change']}")
    for metric in done[0]["parent"]:
        parent = [p["parent"][metric] for p in done]
        change = [p["change"][metric] for p in done]
        print(f"  {metric}: parent {np.median(parent):.6g}, change {np.median(change):.6g}"
              f"  (parent {min(parent):.6g}-{max(parent):.6g},"
              f" change {min(change):.6g}-{max(change):.6g})")
    parent = [p["parent"][claimed] for p in done]
    won = sum(p["change"][claimed] < p["parent"][claimed] for p in done)
    q1, q3 = np.percentile(parent, [25, 75])
    print(f"  {claimed}: change won {won} of {len(done)}, parent Q3 - Q1 {q3 - q1:.6g}")
