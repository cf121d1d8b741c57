"""How far the reconstructions of two config-matrix runs are apart.

    python3 results/pr24/reconstruction_drift.py WORK CASE...

WORK is the directory ``results/pr18/config_matrix.py`` wrote (with
``parent/`` and ``change/``).  For each CASE it prints the largest entry
difference of ``reconstruction.bin`` relative to the parent's largest entry,
and the relative 2-norm difference.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))
from dyninv import io  # noqa: E402

work = sys.argv[1]
for case in sys.argv[2:]:
    p, c = (io.read_matrix_bin(os.path.join(work, side, case, "reconstruction.bin"))
            for side in ("parent", "change"))
    print(f"{case}: max entry {np.max(np.abs(c - p)) / np.max(np.abs(p)):.2e} "
          f"of the largest, 2-norm {np.linalg.norm(c - p) / np.linalg.norm(p):.2e}")
