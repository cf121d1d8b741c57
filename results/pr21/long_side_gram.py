"""Long-side Gram-deviation probe: gen-GK orthogonality over 4 to 12 decades.

    python3 results/pr21/long_side_gram.py [CHECKOUT]

Imports ``dyninv`` from ``CHECKOUT/src`` (default: the checkout this file is
in).  For each number of decades, builds the 120 x 200 problem of
``tests/test_gengk.py::_ill_conditioned_problem`` (``A`` with singular values
over the decades, ``R`` and ``Q`` of condition 1e3, ``default_rng(0)``) and
runs 90 reorthogonalized gen-GK steps twice: as the library runs them, and
with ``LONG_SIDE_ORTH_TOL`` = inf, so that only the short side (U) is ever
orthogonalized.  Prints the long side's Gram deviation ``orth_V`` from
``krylov_basis_span_check`` for both runs, the short side's ``orth_U``, and
the number of steps whose long-side vector was orthogonalized.
``tests/test_gengk.py::test_both_sides_stay_orthogonal_at_depth`` checks the
library's bound (both sides <= 1e-10) at 4, 6 and 8 decades.
"""

import sys
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2])
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dyninv import gengk  # noqa: E402
from dyninv.linop import DenseOperator  # noqa: E402

M, N, STEPS = 120, 200, 90


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def random_spd(rng, n, cond):
    U = random_orthogonal(rng, n)
    return (U * np.logspace(0, -np.log10(cond), n)) @ U.T


def problem(decades):
    rng = np.random.default_rng(0)
    A = ((random_orthogonal(rng, M)[:, :M] * np.logspace(0, -decades, M))
         @ random_orthogonal(rng, N)[:M, :])
    return A, random_spd(rng, M, 1e3), random_spd(rng, N, 1e3), rng.standard_normal(M)


def run(decades):
    """The factorization, and the steps whose long-side vector was
    orthogonalized (``GenGKFactorization._reorth`` said so for V)."""
    A, R, Q, b = problem(decades)
    fact = gengk.gengk_init(DenseOperator(A), DenseOperator(R), DenseOperator(Q), b,
                            STEPS, reorthogonalize=True)
    reorth, long_steps = fact._reorth, []

    def counting(on_u, *args):
        out = reorth(on_u, *args)
        if out and on_u != fact._short_u:
            long_steps.append(fact.k)
        return out

    fact._reorth = counting
    while fact.breakdown is None and fact.k < STEPS:
        gengk.gengk_step(fact)
    return fact, len(long_steps)


print("decades  steps  long-side orthogonalized  orth_U     orth_V     "
      "orth_V (short side only)")
for decades in range(4, 13):
    fact, long_steps = run(decades)
    report = gengk.krylov_basis_span_check(fact)
    saved, gengk.LONG_SIDE_ORTH_TOL = gengk.LONG_SIDE_ORTH_TOL, np.inf
    try:
        one_sided = gengk.krylov_basis_span_check(run(decades)[0])
    finally:
        gengk.LONG_SIDE_ORTH_TOL = saved
    print(f"{decades:7d}  {fact.k:5d}  {long_steps:24d}  {report['orth_U']:.2e}   "
          f"{report['orth_V']:.2e}   {one_sided['orth_V']:.2e}")
