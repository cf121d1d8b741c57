"""sha256 of each gated workload's outputs, run from one checkout.

    python3 results/pr22/outputs_sha.py CHECKOUT

Runs ``deblur-optimal`` and ``deblur-decoupled`` at seeds 1 and 2 as
``bench/workloads.py`` runs them (two solver threads for the decoupled one,
as ``bench/run.py`` passes on a 2-core machine) from CHECKOUT's ``src/`` and
``bench/``, and prints the first 16 hex digits of the sha256 of the
reconstruction, the variance field and the lambda (per time for the
decoupled workload).  Diff the output of two checkouts to compare them.
"""

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


for name in ("deblur-optimal", "deblur-decoupled"):
    w = wl.WORKLOADS[name]
    for seed in (1, 2):
        inst, prior = wl.generate(w, seed), wl.build_prior(w)
        if w.method == "decoupled":
            _, A, _, R, _, Q = wl.decoupled_pieces(inst, prior)
        else:
            A, R, Q = inst.A, inst.R, prior.Q
        res = wl.solve(w, inst, prior, A, R, Q, 2)
        var = wl.variance(w, inst, prior, res, A, R, Q)
        lam = (res.per_time_lambda if w.method == "decoupled" else [res.lam])
        print(name, seed, "s", digest(res.s), "var", digest(var), "lam", digest(lam))
