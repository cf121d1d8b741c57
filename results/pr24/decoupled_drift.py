"""How far the ``deblur-decoupled`` outputs of two checkouts are apart.

    python3 results/pr24/decoupled_drift.py PARENT CHANGE

Runs ``deblur-decoupled`` at seeds 1 and 2 from each checkout's ``src/`` and
``bench/`` (one process per checkout, as ``results/pr22/outputs_sha.py``
runs it) and prints, per seed, the relative 2-norm difference of the
reconstruction and of the variance field, whether the per-time lambdas are
bitwise equal, the summed iterations of each side and the ``repr`` of each
side's ``rel_error``.

    python3 results/pr24/decoupled_drift.py --run CHECKOUT OUT.npz

runs one checkout and saves its outputs.
"""

import os
import subprocess
import sys
import tempfile

SEEDS = (1, 2)


def run(root, out):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np
    import workloads as wl
    from dyninv import hybrid

    w = wl.WORKLOADS["deblur-decoupled"]
    arrays = {}
    for seed in SEEDS:
        inst, prior = wl.generate(w, seed), wl.build_prior(w)
        _, A, _, R, _, Q = wl.decoupled_pieces(inst, prior)
        res = wl.solve(w, inst, prior, A, R, Q, 2)
        var = wl.variance(w, inst, prior, res, A, R, Q)
        arrays[f"s{seed}"] = res.s
        arrays[f"var{seed}"] = var
        arrays[f"lam{seed}"] = np.array(res.per_time_lambda)
        arrays[f"iters{seed}"] = np.array(sum(res.per_time_iters))
        arrays[f"err{seed}"] = np.array(hybrid.relative_error(res.s, inst.s_true))
    np.savez(out, **arrays)


def compare(parent, change):
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for root in (parent, change):
            out = os.path.join(tmp, f"{len(outs)}.npz")
            subprocess.run([sys.executable, __file__, "--run", root, out], check=True)
            outs.append(dict(np.load(out)))
    p, c = outs
    for seed in SEEDS:
        def rel(key):
            return np.linalg.norm(c[key] - p[key]) / np.linalg.norm(p[key])
        print(f"deblur-decoupled seed {seed}: "
              f"s {rel(f's{seed}'):.2e}, variance {rel(f'var{seed}'):.2e} "
              f"(relative 2-norm); per-time lambda bitwise equal "
              f"{np.array_equal(p[f'lam{seed}'], c[f'lam{seed}'])}; "
              f"iterations {int(p[f'iters{seed}'])} / {int(c[f'iters{seed}'])}; "
              f"rel_error {float(p[f'err{seed}'])!r} / {float(c[f'err{seed}'])!r}")


if __name__ == "__main__":
    if sys.argv[1] == "--run":
        run(sys.argv[2], sys.argv[3])
    else:
        compare(sys.argv[1], sys.argv[2])
