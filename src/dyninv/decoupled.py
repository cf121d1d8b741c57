"""Decoupled solver for fully Kronecker-structured problems.

When A = A_t (x) A_s, R = R_t (x) R_s, and Q = Q_t (x) Q_s, a sequence of
variable changes turns the normal equations into n_t independent spatial
problems, one per singular value of the whitened temporal operator
L_R^{-T} A_t L_Q' = U_t Sigma V_t' (with R_t = L_R' L_R and Q_t = L_Q' L_Q).
Each subproblem is solved with the simultaneous hybrid solver, whose
zero-mean solutions Q_s z_i are recombined via S = mu + (Q_s Z) T, with the
temporal map T = V_t' L_Q.

The subproblems are independent, and they run in turn in the calling thread:
at desk scale they are interpreter-bound, so a thread pool made them slower
(see ``decoupled_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConditioningError, ParameterError, ShapeError
from . import hybrid
from .linop import (DenseOperator, KroneckerOperator, LinearOperator, ScaledOperator,
                    ScaledIdentityOperator, aslinearoperator)
from .priorcov import PriorModel

# singular values below this (relative to the largest) are treated as zero
SIGMA_RTOL = 1e-14


def _cholesky(M, name):
    """Upper Cholesky factor L of the symmetric part of M, M = L' L."""
    M = 0.5 * (M + M.T)
    try:
        return sla.cholesky(M, lower=False)
    except sla.LinAlgError as exc:
        w = sla.eigvalsh(M)
        raise ConditioningError(f"{name} is not positive definite "
                                f"(min eigenvalue {w[0]:.3e})", min_eig=w[0]) from exc


@dataclass
class DecoupledPlan:
    """Precomputed transforms shared by all per-time subproblems."""

    A_s: LinearOperator
    Q_s: LinearOperator
    R_s: LinearOperator
    T: np.ndarray               # temporal map V_t' L_Q, so T' T = Q_t
    Ut: np.ndarray
    sigmas: np.ndarray          # n_t entries, zero-padded when A_t has fewer rows
    D: np.ndarray               # mat(b) @ L_R^{-1}; column i gives the rhs seed
    mu: np.ndarray

    @property
    def n_t(self) -> int:
        return self.T.shape[0]

    @property
    def n_s(self) -> int:
        return self.A_s.cols

    def rhs(self, i: int) -> np.ndarray:
        return self.D @ self.Ut[:, i]

    def sigma_zero(self, i: int) -> bool:
        smax = self.sigmas[0] if self.sigmas.size else 0.0
        return self.sigmas[i] <= SIGMA_RTOL * smax


@dataclass
class DecoupledResult:
    S: np.ndarray               # n_s x n_t reconstruction (prior mean included)
    sub_results: list           # SolverResult per time, None where sigma_i = 0
    plan: DecoupledPlan         # the plan the subproblems were solved in

    @property
    def s(self) -> np.ndarray:
        return self.S.reshape(-1, order="F")

    @property
    def per_time_lambda(self) -> list:
        return [0.0 if r is None else r.lam for r in self.sub_results]

    @property
    def per_time_iters(self) -> list:
        return [0 if r is None else r.iterations for r in self.sub_results]


def kronecker_factors(inst, prior: PriorModel):
    """Split a problem instance and its prior into the factors
    (A_t, A_s, R_t, R_s, Q_t, Q_s) of the decoupled solver.

    A and Q must be ``KroneckerOperator``s and R a ``ScaledIdentityOperator``
    sigma^2 I, which splits as R_t = I and R_s = sigma^2 I; anything else
    raises ``ParameterError``.
    """
    A, Q = inst.A, prior.Q
    if not isinstance(A, KroneckerOperator):
        raise ParameterError("decoupled solver requires a Kronecker forward operator")
    if not isinstance(Q, KroneckerOperator):
        raise ParameterError("decoupled solver requires a Kronecker prior covariance")
    if not isinstance(inst.R, ScaledIdentityOperator):
        raise ParameterError("decoupled solver requires scaled-identity noise")
    Rs = ScaledIdentityOperator(inst.R.scale, A.right.rows)
    return A.left, A.right, np.eye(inst.n_t), Rs, Q.left, Q.right


def build_plan(A_t, A_s, R_t, R_s, Q_t, Q_s, d, mu=None) -> DecoupledPlan:
    """Assemble the SVD of L_R^{-T} A_t L_Q' and the right-hand-side machinery."""
    A_s, Q_s, R_s = aslinearoperator(A_s), aslinearoperator(Q_s), aslinearoperator(R_s)
    At = aslinearoperator(A_t).to_dense()
    Rt = aslinearoperator(R_t).to_dense()
    Qt = aslinearoperator(Q_t).to_dense()
    m_t, n_t = At.shape[0], Qt.shape[0]
    if Qt.shape != (n_t, n_t) or Rt.shape != (m_t, m_t) or At.shape[1] != n_t:
        raise ShapeError("inconsistent temporal factor shapes")

    LQ = _cholesky(Qt, "Q_t")
    LR = _cholesky(Rt, "R_t")
    Ut, sig, Vth = sla.svd(sla.solve_triangular(LR, At, trans="T") @ LQ.T)
    sig = np.pad(sig, (0, n_t - sig.size))

    d = np.asarray(d, dtype=float).ravel()
    m_bar = A_s.rows
    if d.size != m_bar * m_t:
        raise ShapeError(f"data length {d.size} does not match {m_bar}x{m_t}")
    n = A_s.cols * n_t
    if mu is None:
        mu = np.zeros(n)
    mu = np.asarray(mu, dtype=float).ravel()
    A_full = KroneckerOperator(DenseOperator(At), A_s)
    b = d - A_full.apply(mu)
    Bmat = b.reshape(m_bar, m_t, order="F")
    D = sla.solve_triangular(LR, Bmat.T, trans="T").T

    return DecoupledPlan(A_s=A_s, Q_s=Q_s, R_s=R_s, T=Vth @ LQ, Ut=Ut,
                         sigmas=sig, D=D, mu=mu)


def solve_subproblem(plan: DecoupledPlan, i: int, strategy,
                     options: hybrid.SolverOptions | None = None):
    """Solve the i-th (0-based) spatial subproblem.

    With a zero prior mean the result's ``s`` is Q_s z_i.  A zero singular
    value gives z_i = 0 exactly, and ``None`` without running the solver.
    """
    if not (0 <= i < plan.n_t):
        raise ParameterError(f"subproblem index {i} out of range [0, {plan.n_t})")
    if plan.sigma_zero(i):
        return None
    op = ScaledOperator(plan.sigmas[i], plan.A_s)
    prior = PriorModel.zero_mean(plan.Q_s)
    return hybrid.genhybr_solve(op, plan.R_s, prior, plan.rhs(i), strategy, options)


def recombine(plan: DecoupledPlan, QZ) -> np.ndarray:
    """Undo the changes of variables on QZ = Q_s Z: S = mu + QZ T."""
    QZ = np.asarray(QZ, dtype=float)
    if QZ.shape != (plan.n_s, plan.n_t):
        raise ShapeError(f"QZ has shape {QZ.shape}, expected {(plan.n_s, plan.n_t)}")
    return plan.mu.reshape(plan.n_s, plan.n_t, order="F") + QZ @ plan.T


def decoupled_solve(A_t, A_s, R_t, R_s, Q_t, Q_s, d, strategy,
                    options: hybrid.SolverOptions | None = None, mu=None,
                    per_time_lambda: bool = False, threads: int = 1) -> DecoupledResult:
    """Algorithm-level driver: plan, solve all subproblems, recombine.

    With ``per_time_lambda`` false (the default, required for equivalence with
    the simultaneous solver) a non-Fixed strategy is rejected; with it true
    each subproblem selects its own parameter.  The statistical meaning of
    per-subproblem parameters is an open caveat; see the package docs.
    Optimal is rejected either way: the subproblem unknowns are transformed
    coefficients, which have no truth to measure an error against.

    The subproblems run in turn in the calling thread.  ``threads`` is
    accepted and ignored; it goes once the benchmark stops passing it.  A
    thread pool cost time at desk scale: the subproblems are
    interpreter-bound and contend for the interpreter lock.  At n_s = 1,024
    (the ``deblur-decoupled`` benchmark, seed 1) two solver threads took
    1.07 to 1.41 times as long as one, best and median of nine in-process
    solves per thread count over two runs of ``results/pr21/thread_cost.py``
    (output in ``results/pr21/thread_cost.txt``; 2-core x86-64 VM, one BLAS
    thread).
    """
    if isinstance(strategy, hybrid.Optimal):
        raise ParameterError(
            "decoupled solve cannot use the optimal strategy: its truth is s, "
            "and the subproblem unknowns are transformed coefficients with no truth")
    if not per_time_lambda and not isinstance(strategy, hybrid.Fixed):
        raise ParameterError(
            "shared-lambda decoupled solve requires a Fixed strategy; "
            "set per_time_lambda=True for per-subproblem selection"
        )
    plan = build_plan(A_t, A_s, R_t, R_s, Q_t, Q_s, d, mu)

    results = [solve_subproblem(plan, i, strategy, options) for i in range(plan.n_t)]

    QZ = np.column_stack([np.zeros(plan.n_s) if r is None else r.s for r in results])
    return DecoupledResult(S=recombine(plan, QZ), sub_results=results, plan=plan)
