"""Time the distance step of ``build_kernel_matrix`` against ``cdist``.

    python3 results/pr29/distances.py

Forms the pairwise Euclidean distances of four point sets three ways and
checks that each equals ``scipy.spatial.distance.cdist`` bitwise:

- ``cdist``: the parent's distance step;
- ``numpy``: the change's, the squared coordinate differences summed into
  one zeroed n x n array, coordinate by coordinate, then one in-place sqrt;
- ``numpy-rows64``: the same sums taken 64 rows at a time, so the squared
  differences stay in cache (not adopted; see ROADMAP).

Prints the best of five timeit repeats per set and method, in microseconds.
"""

import os
import sys
import timeit

import numpy as np
from scipy.spatial.distance import cdist

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))
from dyninv import priorcov as pc  # noqa: E402


def numpy_distances(P):
    n = len(P)
    D = np.zeros((n, n))
    sq = np.empty((n, n))
    for x in P.T:
        np.subtract.outer(x, x, out=sq)
        sq *= sq
        D += sq
    np.sqrt(D, out=D)
    return D


def numpy_distances_rows(P, rows=64):
    n = len(P)
    D = np.zeros((n, n))
    sq = np.empty((rows, n))
    for i in range(0, n, rows):
        block, s = D[i:i + rows], sq[:min(rows, n - i)]
        for x in P.T:
            np.subtract.outer(x[i:i + rows], x, out=s)
            s *= s
            block += s
    np.sqrt(D, out=D)
    return D


grid32 = pc.PointSet.regular_grid_2d(32, 32)
SETS = {
    "line-32 (gated spatial factor)": pc.PointSet.from_coords((np.arange(32) + 0.5) / 32),
    "grid-32x32": grid32,
    "space-time-16x16x4": pc.PointSet.space_time(
        pc.PointSet.regular_grid_2d(16, 16), np.linspace(0.0, 1.0, 4), c1=0.7, c2=2.3),
    "space-time-32x32x4": pc.PointSet.space_time(
        grid32, np.linspace(0.0, 1.0, 4), c1=0.7, c2=2.3),
}
METHODS = {"cdist": lambda P: cdist(P, P), "numpy": numpy_distances,
           "numpy-rows64": numpy_distances_rows}

for name, points in SETS.items():
    P = points.coordinates
    number = 2000 if len(P) < 100 else (5 if len(P) > 2000 else 30)
    ref = cdist(P, P)
    cells = []
    for method, f in METHODS.items():
        assert np.array_equal(f(P), ref), (name, method)
        best = min(timeit.repeat(lambda: f(P), number=number, repeat=5)) / number
        cells.append(f"{method} {best * 1e6:,.1f} us")
    print(f"{name} (n = {len(P):,}): " + ", ".join(cells))
