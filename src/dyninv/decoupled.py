"""Decoupled solver for fully Kronecker-structured problems.

When A = A_t (x) A_s, R = R_t (x) R_s, and Q = Q_t (x) Q_s, a sequence of
variable changes turns the normal equations into n_t independent spatial
problems, one per singular value of the transformed temporal operator
R_t^{-1/2} A_t L_t^T (with Q_t = L_t^T L_t).  Each subproblem is solved with
the simultaneous hybrid solver, whose zero-mean solutions Q_s z_i are
recombined via S = (Q_s Z) V_t^T L_t^{-T} Q_t^T.

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


def _dense(x):
    return x.to_dense() if isinstance(x, LinearOperator) else np.asarray(x, dtype=float)


def _inv_sqrt_spd(M, name):
    M = 0.5 * (M + M.T)
    w, W = sla.eigh(M)
    if w[0] <= 0:
        raise ConditioningError(f"{name} is not positive definite "
                                f"(min eigenvalue {w[0]:.3e})", min_eig=w[0])
    return (W / np.sqrt(w)) @ W.T


@dataclass
class DecoupledPlan:
    """Precomputed transforms shared by all per-time subproblems."""

    A_s: LinearOperator
    Q_s: LinearOperator
    R_s: LinearOperator
    Qt: np.ndarray
    Lt: np.ndarray              # upper-triangular, Q_t = Lt.T @ Lt
    Ut: np.ndarray
    sigmas: np.ndarray
    Vt: np.ndarray
    D: np.ndarray               # mat(b) @ Rt^{-1/2}; column i gives the rhs seed
    mu: np.ndarray

    @property
    def n_t(self) -> int:
        return self.Qt.shape[0]

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
    """Assemble the SVD of R_t^{-1/2} A_t L_t^T and the right-hand-side machinery."""
    A_s, Q_s, R_s = aslinearoperator(A_s), aslinearoperator(Q_s), aslinearoperator(R_s)
    At = _dense(A_t)
    Rt = _dense(R_t)
    Qt = _dense(Q_t)
    n_t = Qt.shape[0]
    if At.shape[1] != n_t or Rt.shape[0] != At.shape[0]:
        raise ShapeError("inconsistent temporal factor shapes")

    try:
        Lt = sla.cholesky(0.5 * (Qt + Qt.T), lower=False)
    except sla.LinAlgError as exc:
        w = sla.eigvalsh(0.5 * (Qt + Qt.T))
        raise ConditioningError(f"Q_t factorization failed (min eigenvalue {w[0]:.3e})",
                                min_eig=w[0]) from exc
    Rt_inv_sqrt = _inv_sqrt_spd(Rt, "R_t")
    Ahat = Rt_inv_sqrt @ At @ Lt.T
    Ut, sig, Vth = sla.svd(Ahat)
    Vt = Vth.T

    d = np.asarray(d, dtype=float).ravel()
    m_bar = A_s.rows
    if d.size != m_bar * At.shape[0]:
        raise ShapeError(f"data length {d.size} does not match {m_bar}x{At.shape[0]}")
    n = A_s.cols * n_t
    if mu is None:
        mu = np.zeros(n)
    mu = np.asarray(mu, dtype=float).ravel()
    A_full = KroneckerOperator(DenseOperator(At), A_s)
    b = d - A_full.apply(mu)
    Bmat = b.reshape(m_bar, At.shape[0], order="F")
    D = Bmat @ Rt_inv_sqrt

    return DecoupledPlan(A_s=A_s, Q_s=Q_s, R_s=R_s, Qt=Qt, Lt=Lt, Ut=Ut,
                         sigmas=sig, Vt=Vt, D=D, mu=mu)


def solve_subproblem(plan: DecoupledPlan, i: int, strategy,
                     options: hybrid.SolverOptions | None = None):
    """Solve the i-th (0-based) spatial subproblem; returns (Q_s z_i, result-or-None).

    Zero singular values yield z_i = 0 exactly without running the solver.
    """
    if not (0 <= i < plan.n_t):
        raise ParameterError(f"subproblem index {i} out of range [0, {plan.n_t})")
    if plan.sigma_zero(i):
        return np.zeros(plan.n_s), None
    op = ScaledOperator(plan.sigmas[i], plan.A_s)
    prior = PriorModel.zero_mean(plan.Q_s)
    res = hybrid.genhybr_solve(op, plan.R_s, prior, plan.rhs(i), strategy, options)
    # with a zero prior mean the subproblem's s is Q_s z_i
    return res.s, res


def recombine(plan: DecoupledPlan, QZ) -> np.ndarray:
    """Undo the changes of variables on QZ = Q_s Z: S = mu + QZ V_t' L_t^{-T} Q_t'."""
    QZ = np.asarray(QZ, dtype=float)
    if QZ.shape != (plan.n_s, plan.n_t):
        raise ShapeError(f"QZ has shape {QZ.shape}, expected {(plan.n_s, plan.n_t)}")
    QX = sla.solve_triangular(plan.Lt, (QZ @ plan.Vt.T).T, lower=False).T
    return plan.mu.reshape(plan.n_s, plan.n_t, order="F") + QX @ plan.Qt.T


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

    S = recombine(plan, np.column_stack([s for s, _ in results]))
    return DecoupledResult(S=S, sub_results=[r for _, r in results])
