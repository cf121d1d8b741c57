"""Time Kronecker-operator calls on two checkouts and compare their bits.

    python3 results/pr27/kron_calls.py PARENT CHANGE [ROUNDS]

PARENT and CHANGE are source checkouts (each with ``src/`` and ``bench/``).
Each round runs ``--run`` once per checkout, in its own process, alternating
which side goes first.  The report prints, per case, the median over the
rounds of each side's per-call median in microseconds, the change's share of
the parent's time, and whether the two sides' outputs have the same sha256
in every round.

    python3 results/pr27/kron_calls.py --run CHECKOUT

times the cases on one checkout and prints one JSON line per case:
``{"case", "p", "sha", "us"}``.  The cases are ``A``, ``A'``, ``Q`` and the
spatial factors ``A_s = A.right`` and ``Q_s = Q.right`` of the
``deblur-optimal`` instance (seed 1) and its prior, and ``Q`` of
``rotating-deep``, each at p = 1 and 8 columns, and ``Q`` of the paper's
256 x 256 x 120 grid with the ``tomo-scale`` prior at p = 1.  The operators
are built the way ``bench/workloads.py`` builds them.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def run(root):
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np
    import workloads as wl

    def case(name, op, method, p, calls):
        x = np.random.default_rng(0).standard_normal(
            (op.rows if method == "apply_adjoint_mat" else op.cols, p))
        act = getattr(op, method)
        out = act(x)
        sha = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16]
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            act(x)
            times.append(time.perf_counter() - t0)
        print(json.dumps({"case": name, "p": p, "sha": sha,
                          "us": 1e6 * statistics.median(times)}), flush=True)

    w = wl.WORKLOADS["deblur-optimal"]
    inst, prior = wl.generate(w, 1), wl.build_prior(w)
    rot = wl.WORKLOADS["rotating-deep"]
    Q_rot = wl.build_prior(rot).Q
    for p in (1, 8):
        case("deblur A", inst.A, "apply_mat", p, 400)
        case("deblur A'", inst.A, "apply_adjoint_mat", p, 400)
        case("deblur Q", prior.Q, "apply_mat", p, 400)
        case("deblur A_s", inst.A.right, "apply_mat", p, 400)
        case("deblur Q_s", prior.Q.right, "apply_mat", p, 400)
        case("rotating-deep Q", Q_rot, "apply_mat", p, 40 if p == 1 else 10)
    paper = replace(wl.WORKLOADS["tomo-scale"], grid=(256, 256, 120))
    case("paper-scale Q", wl.build_prior(paper).Q, "apply_mat", 1, 5)


def main():
    if sys.argv[1] == "--run":
        run(sys.argv[2])
        return
    roots = {"parent": sys.argv[1], "change": sys.argv[2]}
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    seen = {}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            proc = subprocess.run([sys.executable, __file__, "--run", roots[side]],
                                  capture_output=True, text=True, check=True)
            for line in proc.stdout.splitlines():
                rec = json.loads(line)
                key = (rec["case"], rec["p"])
                seen.setdefault(key, {"parent": [], "change": []})[side].append(rec)
    print(f"{'case':<18} {'p':>2} {'parent us':>11} {'change us':>11} {'ratio':>6}  bits")
    for (name, p), sides in seen.items():
        par = statistics.median(rec["us"] for rec in sides["parent"])
        chg = statistics.median(rec["us"] for rec in sides["change"])
        shas = {rec["sha"] for recs in sides.values() for rec in recs}
        print(f"{name:<18} {p:>2} {par:>11.1f} {chg:>11.1f} {chg / par:>6.2f}  "
              f"{'equal' if len(shas) == 1 else 'DIFFER'}")


if __name__ == "__main__":
    main()
