"""What ``import dyninv`` loads, and how long ``build_kernel_matrix`` takes,
in two checkouts.

    python3 results/pr29/footprint.py PARENT CHANGE [ROUNDS]

Each of ROUNDS rounds (default 10) starts one fresh interpreter per checkout,
alternating which goes first.  With the checkout's ``src/`` first on
``sys.path``, it times ``import dyninv``, reads the process's peak RSS after
it, and lists which of ``scipy.spatial`` and ``scipy.special`` are loaded.
It then times ``build_kernel_matrix`` (median of its repetitions) on three
point sets:

- ``line-32``: the gated workloads' spatial factor, 32 points on a line with
  Matern nu = 1.5, ell = 0.1, as ``bench/workloads.build_prior`` builds it;
- ``grid-32x32``: the default ``dyninv solve`` spatial factor, 1,024 points
  of ``PointSet.regular_grid_2d`` with Matern nu = 1.5, ell = 0.1;
- ``space-time-16x16x4``: 1,024 points of ``PointSet.space_time`` with
  c1 = 0.7, c2 = 2.3.

It prints one JSON line per run, then each checkout's medians, and whether
the three matrices have the same sha256 on both sides.
"""

import json
import os
import subprocess
import sys

import numpy as np

CHILD = r"""
import hashlib, json, resource, sys, time
t0 = time.perf_counter()
import dyninv
import_s = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
loaded = sorted(m for m in ("scipy.spatial", "scipy.special") if m in sys.modules)
import numpy as np
from dyninv import priorcov as pc
sets = {
    "line-32": (pc.PointSet.from_coords((np.arange(32) + 0.5) / 32), 400),
    "grid-32x32": (pc.PointSet.regular_grid_2d(32, 32), 20),
    "space-time-16x16x4": (pc.PointSet.space_time(
        pc.PointSet.regular_grid_2d(16, 16), np.linspace(0.0, 1.0, 4),
        c1=0.7, c2=2.3), 20),
}
kernel = pc.MaternKernel(1.5, 0.1)
build_s, sha = {}, {}
for name, (points, reps) in sets.items():
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        M = pc.build_kernel_matrix(kernel, points)
        times.append(time.perf_counter() - t0)
    build_s[name] = sorted(times)[len(times) // 2]
    sha[name] = hashlib.sha256(M.to_dense().tobytes()).hexdigest()[:16]
print(json.dumps({"import_s": import_s, "import_peak_rss_mb": rss_mb,
                  "loaded": loaded, "build_s": build_s, "sha": sha}))
"""

roots = {"parent": sys.argv[1], "change": sys.argv[2]}
rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 10
env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
runs = {"parent": [], "change": []}
for r in range(rounds):
    order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
    for side in order:
        env["PYTHONPATH"] = os.path.join(roots[side], "src")
        out = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=roots[side],
                             capture_output=True, text=True, check=True).stdout
        runs[side].append(json.loads(out))
        print(json.dumps({"side": side, "round": r + 1, **runs[side][-1]}))

for side, rs in runs.items():
    print(f"{side}: import {1e3 * np.median([x['import_s'] for x in rs]):.1f} ms, "
          f"peak RSS after import {np.median([x['import_peak_rss_mb'] for x in rs]):.1f} MB, "
          f"loaded {rs[0]['loaded']}")
    for name in rs[0]["build_s"]:
        print(f"  build_kernel_matrix {name}: "
              f"{1e6 * np.median([x['build_s'][name] for x in rs]):.1f} us")
same = all(runs["parent"][0]["sha"][k] == runs["change"][0]["sha"][k]
           for k in runs["parent"][0]["sha"])
print(f"kernel matrices bitwise equal on both sides: {same}")
