"""Alternating parent/change benchmark pairs, keeping every run's record.

    python3 results/pr22/pairs.py PARENT CHANGE OUT WORKLOAD:SEED:PAIRS ...

Runs ``python3 bench/run.py --workload W --seed S --seconds 55 --trace 0
--out OUT/<side>/<W>-seed<S>-pair<N>`` in the checkouts PARENT and CHANGE,
one run at a time, PAIRS times per ``WORKLOAD:SEED``; pair 1 runs the parent
first, pair 2 the change first, and so on.  After every run, OUT/pairs.json
is rewritten with the result line of each run so far, its side, workload,
seed, pair and which side ran first.
"""

import json
import os
import subprocess
import sys

parent, change, out = sys.argv[1:4]
roots = {"parent": parent, "change": change}
runs = []
for spec in sys.argv[4:]:
    workload, seed, pairs = spec.split(":")
    for pair in range(1, int(pairs) + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            record = os.path.join(os.path.abspath(out), side,
                                  f"{workload}-seed{seed}-pair{pair}")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
                 "--seconds", "55", "--trace", "0", "--out", record],
                cwd=roots[side], capture_output=True, text=True, check=True)
            runs.append({"side": side, "workload": workload, "seed": int(seed),
                         "pair": pair, "first_in_pair": order[0],
                         "result": json.loads(proc.stdout.strip().splitlines()[-1])})
            with open(os.path.join(out, "pairs.json"), "w") as fh:
                json.dump(runs, fh, indent=1)
