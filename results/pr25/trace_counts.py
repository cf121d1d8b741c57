"""Table of the count metrics of two traced benchmark records per workload.

    python3 results/pr25/trace_counts.py results/pr25/parent results/pr25/change

Reads ``BENCH_<workload>.trace.json`` of ``deblur-optimal`` and
``deblur-decoupled`` from both directories and prints, as a markdown table,
every metric whose unit is ``count`` or ``B``, its value on each side and
whether the two are equal, then the time metrics (unit ``s``) on each side.
"""

import json
import os
import sys

before, after = sys.argv[1:3]
for workload in ("deblur-optimal", "deblur-decoupled"):
    name = f"BENCH_{workload}.trace.json"
    sides = [json.load(open(os.path.join(d, name)))["metrics"] for d in (before, after)]
    print(f"\n`{workload}`, seed 1\n")
    print("| metric | parent | change | equal |\n|---|---|---|---|")
    for key, m in sides[0].items():
        if m["unit"] in ("count", "B"):
            a, b = m["value"], sides[1][key]["value"]
            print(f"| `{key}` | {a:,} | {b:,} | {'yes' if a == b else 'NO'} |")
    print("\n| time metric | parent | change |\n|---|---|---|")
    for key, m in sides[0].items():
        if m["unit"] == "s":
            print(f"| `{key}` | {m['value']:.4f} s | {sides[1][key]['value']:.4f} s |")
