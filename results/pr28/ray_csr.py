"""Compare the ray matrices of two checkouts byte for byte, and time them.

    python3 results/pr28/ray_csr.py PARENT CHANGE [ROUNDS]

Builds random-ray blocks (``problems.random_ray_matrix``), parallel-beam
projections (``problems.projection_matrix``) and the block-diagonal forward
matrices of a tomography and a rotating instance from each checkout's
``src/``, each checkout in its own process.  For every matrix it prints the
sha256 of ``indptr``, ``indices`` and ``data``, their dtypes and the
canonical-format flag, which must agree between the checkouts, then the
time of one build per side: the median over ROUNDS (default 7) alternating
rounds of one process per side, each process timing the median of nine
builds after a first one.  Exit status 1 when any matrix differs.

    python3 results/pr28/ray_csr.py --run CHECKOUT REPEATS

runs one side: one JSON line of digests and median build times.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

RANDOM = [(8, 8, 12), (6, 6, 9), (10, 8, 25), (128, 128, 400), (256, 256, 360)]
PROJECTION = [(20, 20, 0.3, 40), (20, 20, 1.1 + 3.141592653589793, 40),
              (64, 48, 0.0, 80), (256, 256, 2.0, 363)]


def cases(problems, np):
    for nx, ny, n in RANDOM:
        yield (f"random {nx}x{ny}/{n}",
               lambda nx=nx, ny=ny, n=n: problems.random_ray_matrix(
                   nx, ny, n, np.random.default_rng(nx * 1000 + n)))
    for nx, ny, angle, bins in PROJECTION:
        yield (f"projection {nx}x{ny} a={angle:.3f} bins={bins}",
               lambda nx=nx, ny=ny, a=angle, b=bins: problems.projection_matrix(nx, ny, a, b))
    yield ("tomography 10x8x3 A", lambda: problems.gen_ray_tomography(
        10, 8, 3, rays_per_time=[15, 20, 25], seed=4).A.matrix)
    yield ("rotating 10x8x3 A", lambda: problems.gen_rotating_gaussians(
        10, 8, 3, noise_level=0.02, seed=5).A.matrix)


def run(root, repeats):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from dyninv import problems

    out = {}
    for name, build in cases(problems, np):
        M = build()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            build()
            times.append(time.perf_counter() - t0)
        out[name] = {
            "arrays": {a: [str(getattr(M, a).dtype),
                           hashlib.sha256(getattr(M, a).tobytes()).hexdigest()[:16]]
                       for a in ("indptr", "indices", "data")},
            "shape": list(M.shape), "nnz": int(M.nnz),
            "canonical": bool(M.has_canonical_format),
            "s": statistics.median(times)}
    print(json.dumps(out))


def main():
    if sys.argv[1] == "--run":
        return run(sys.argv[2], int(sys.argv[3]))
    roots = {"parent": sys.argv[1], "change": sys.argv[2]}
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 7
    seen = {"parent": [], "change": []}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            proc = subprocess.run([sys.executable, __file__, "--run", roots[side], "9"],
                                  capture_output=True, text=True, check=True)
            seen[side].append(json.loads(proc.stdout))
    differ = 0
    print(f"{'matrix':<42} {'nnz':>7}  identical  parent ms  change ms")
    for name, first in seen["parent"][0].items():
        other = seen["change"][0][name]
        same = all(first[k] == other[k]
                   for k in ("arrays", "shape", "nnz", "canonical"))
        differ += not same
        ms = {side: 1e3 * statistics.median(run[name]["s"] for run in seen[side])
              for side in seen}
        print(f"{name:<42} {first['nnz']:>7}  {str(same):<9}  "
              f"{ms['parent']:>9.2f}  {ms['change']:>9.2f}")
        if not same:
            print("  parent", first, "\n  change", other)
    print("dtypes (parent): " + ", ".join(
        f"{a} {v[0]}" for a, v in seen["parent"][0]["random 8x8/12"]["arrays"].items()))
    print(f"{differ} of {len(seen['parent'][0])} matrices differ; "
          f"{rounds} alternating rounds, median per build")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
