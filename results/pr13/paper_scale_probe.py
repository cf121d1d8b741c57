"""Paper-scale probe: generate, solve and posterior variance at 7.8 M unknowns.

    python3 results/pr13/paper_scale_probe.py [CHECKOUT]

Imports ``dyninv`` from ``CHECKOUT/src`` and the workload helpers from
``CHECKOUT/bench`` (default: the checkout this file is in).  The instance is
``gen_ray_tomography(256, 256, 120, rays_per_time=360)`` at seed 1 (n =
7,864,320, m = 43,200), with the ``tomo-scale`` prior, Fixed lambda = 1 and
30 reorthogonalized steps; the variance is ``uq.build_posterior_approx``
followed by ``uq.variance_diag``.  Each stage prints one JSON line with its
wall time and the process's peak RSS so far; a stage that runs out of
memory prints its error and ends the run.  Run it with the address space capped, e.g.
``(ulimit -v 7300000; python3 results/pr13/paper_scale_probe.py)``.
"""

import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2])
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from dyninv import uq  # noqa: E402

W = replace(workloads.WORKLOADS["tomo-scale"], grid=(256, 256, 120),
            gen_kwargs={"rays_per_time": 360}, max_iter=30)


def stage(name, fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except MemoryError as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    record = {"stage": name, "s": round(time.perf_counter() - t0, 3),
              "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    if error:
        record["error"] = error
    print(json.dumps(record), flush=True)
    if error:
        sys.exit(1)
    return out


inst, prior = stage("generate", lambda: (workloads.generate(W, 1), workloads.build_prior(W)))
print(json.dumps({"n": inst.A.cols, "m": inst.A.rows, "nnz": workloads._nnz(inst.A)}), flush=True)
res = stage("solve", workloads.solve, W, inst, prior, inst.A, inst.R, prior.Q, 1)
approx = stage("build_posterior_approx", uq.build_posterior_approx,
               res.factorization, prior.Q, res.lam)
var = stage("variance_diag", uq.variance_diag, approx)
print(json.dumps({"steps": res.factorization.k, "rank": approx.rank,
                  "variance_min": float(var.min()), "variance_max": float(var.max())}),
      flush=True)
