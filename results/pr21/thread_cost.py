"""Thread-cost probe: the deblur-decoupled solve with one and two solver threads.

    python3 results/pr21/thread_cost.py [CHECKOUT]

Imports ``dyninv`` from ``CHECKOUT/src`` and the workload helpers from
``CHECKOUT/bench`` (default: the checkout this file is in).  Builds the
``deblur-decoupled`` instance at seed 1 the way ``bench/workloads.py`` does,
then times ``decoupled.decoupled_solve`` in-process with ``threads`` = 1 and
2: nine rounds, each one solve per thread count, in alternating order.  One
BLAS thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.  Prints each
solve's wall time, then the best and the median per thread count and their
ratio.
"""

import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2])
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

ROUNDS = 9

w = workloads.WORKLOADS["deblur-decoupled"]
inst, prior = workloads.generate(w, 1), workloads.build_prior(w)
_, A, _, R, _, Q = workloads.decoupled_pieces(inst, prior)
workloads.solve(w, inst, prior, A, R, Q, 1)  # warm-up
times = {1: [], 2: []}
for r in range(ROUNDS):
    for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
        t0 = time.perf_counter()
        workloads.solve(w, inst, prior, A, R, Q, threads)
        times[threads].append(time.perf_counter() - t0)
        print(f"round {r + 1} threads {threads}: {times[threads][-1]:.3f} s")
for threads, t in times.items():
    print(f"threads {threads}: best {min(t):.3f} s, median {statistics.median(t):.3f} s")
print(f"two threads / one: best {min(times[2]) / min(times[1]):.2f}, "
      f"median {statistics.median(times[2]) / statistics.median(times[1]):.2f}")
