"""How far the nonseparable prior moves when it is built from scaled points.

    python3 results/pr23/nonseparable_rounding.py PARENT CHANGE WORK

PARENT and CHANGE are source checkouts; WORK is the directory that
``results/pr18/config_matrix.py PARENT CHANGE WORK`` filled.  Each checkout
builds, in its own process, the prior covariance of the config matrix's
``solve-nonseparable`` case (6 x 6 x 3 deblur, Matern nu = 1.5, ell = 0.1,
c1 = 2, c2 = 0.5, the default nugget), and the script prints the largest
entrywise difference of the two matrices and the differences, relative to
the parent's, of the two reconstructions that the config matrix wrote for
that case.
"""

import os
import subprocess
import sys

import numpy as np

BUILD = """
import sys
import numpy as np
from dyninv import cli
cfg = cli.RunConfig(None, ["--problem.generator=deblur", "--problem.nx=6",
                           "--problem.ny=6", "--problem.n_t=3",
                           "--prior.structure=nonseparable", "--prior.nu=1.5",
                           "--prior.c1=2.0", "--prior.c2=0.5", "--prior.mean=0.1"])
prior = cli.build_prior(cfg, cli.load_problem(cfg))
np.save(sys.argv[1], prior.Q.to_dense())
"""


def build_Q(checkout, path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    subprocess.run([sys.executable, "-c", BUILD, path], env=env, check=True)
    return np.load(path)


def main(parent, change, work):
    sys.path.insert(0, os.path.join(os.path.abspath(change), "src"))
    from dyninv import io as dio
    Q = [build_Q(c, os.path.join(work, f"nonseparable_Q_{n}.npy"))
         for c, n in ((parent, "parent"), (change, "change"))]
    s = [dio.read_vector_bin(os.path.join(work, n, "solve-nonseparable",
                                          "reconstruction.bin"))
         for n in ("parent", "change")]
    print(f"Q: {Q[0].shape}, max |entry difference| {np.max(np.abs(Q[0] - Q[1])):.2e}")
    ds = s[0] - s[1]
    print(f"reconstruction: max |difference| / max |entry| "
          f"{np.max(np.abs(ds)) / np.max(np.abs(s[0])):.2e}, "
          f"2-norm relative {np.linalg.norm(ds) / np.linalg.norm(s[0]):.2e}")


if __name__ == "__main__":
    main(*sys.argv[1:4])
