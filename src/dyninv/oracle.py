"""Dense brute-force reference solvers used by the test suite and CLI debugging.

Three equivalent MAP formulations, the dense posterior covariance, and the
full-form GCV objective, all restricted to desk-scale sizes by the
densification budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import BudgetExceededError, ConditioningError, ParameterError
from .linop import DENSIFY_BUDGET, aslinearoperator


@dataclass
class DenseProblem:
    """Fully materialized problem instance for reference solves."""

    A: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    d: np.ndarray
    mu: np.ndarray = None
    lam: float = 1.0
    budget: int = DENSIFY_BUDGET

    def __post_init__(self):
        self.A, self.R, self.Q = (aslinearoperator(x).to_dense(self.budget)
                                  for x in (self.A, self.R, self.Q))
        self.d = np.asarray(self.d, dtype=float).ravel()
        m, n = self.A.shape
        if self.mu is None:
            self.mu = np.zeros(n)
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        if max(m * n, n * n, m * m) > self.budget:
            raise BudgetExceededError("dense oracle problem exceeds the size budget")
        if self.d.size != m or self.mu.size != n:
            raise ParameterError("inconsistent oracle problem shapes")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


def _chol_of_inverse(M, name):
    # L with M^{-1} = L.T @ L
    try:
        Minv = sla.inv(M)
        return sla.cholesky(0.5 * (Minv + Minv.T), lower=False)
    except sla.LinAlgError as exc:
        raise ConditioningError(f"factorization of {name} failed") from exc


def map_normal_equations(p: DenseProblem) -> np.ndarray:
    """Solve (A'R^{-1}A + lam^2 Q^{-1}) s = A'R^{-1}d + lam^2 Q^{-1}mu."""
    Rinv_A = sla.solve(p.R, p.A, assume_a="pos")
    Qinv = sla.inv(p.Q)
    Qinv = 0.5 * (Qinv + Qinv.T)
    H = p.A.T @ Rinv_A + p.lam ** 2 * Qinv
    rhs = Rinv_A.T @ p.d + p.lam ** 2 * (Qinv @ p.mu)
    if p.lam == 0:
        # may be singular for rank-deficient A
        s, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        return s
    try:
        return sla.solve(0.5 * (H + H.T), rhs, assume_a="pos")
    except sla.LinAlgError as exc:
        raise ConditioningError("normal-equations system is singular") from exc


def map_general_tikhonov(p: DenseProblem) -> np.ndarray:
    """Solve the stacked general-form Tikhonov least-squares problem."""
    L_R = _chol_of_inverse(p.R, "R")
    L_Q = _chol_of_inverse(p.Q, "Q")
    top = L_R @ p.A
    bottom = p.lam * L_Q
    stacked = np.vstack([top, bottom])
    rhs = np.concatenate([L_R @ p.d, p.lam * (L_Q @ p.mu)])
    s, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    return s


def map_sherman_morrison(p: DenseProblem) -> np.ndarray:
    """Solve (A Q A' + lam^2 R) xi = d - A mu; return mu + Q A' xi."""
    K = p.A @ p.Q @ p.A.T + p.lam ** 2 * p.R
    rhs = p.d - p.A @ p.mu
    try:
        if p.lam == 0:
            xi = sla.solve(0.5 * (K + K.T), rhs)
        else:
            xi = sla.solve(0.5 * (K + K.T), rhs, assume_a="pos")
    except sla.LinAlgError as exc:
        raise ConditioningError("measurement-space system is singular") from exc
    return p.mu + p.Q @ (p.A.T @ xi)


def dense_posterior(p: DenseProblem) -> np.ndarray:
    """Dense posterior covariance (lam^2 Q^{-1} + A'R^{-1}A)^{-1}."""
    if p.lam <= 0:
        raise ParameterError("posterior covariance requires lam > 0")
    Qinv = sla.inv(p.Q)
    H = p.A.T @ sla.solve(p.R, p.A, assume_a="pos")
    M = p.lam ** 2 * 0.5 * (Qinv + Qinv.T) + 0.5 * (H + H.T)
    try:
        G = sla.inv(0.5 * (M + M.T))
    except sla.LinAlgError as exc:
        raise ConditioningError("posterior precision is singular") from exc
    return 0.5 * (G + G.T)


def gcv_full(p: DenseProblem, lam: float) -> float:
    """Full-form GCV objective (zero prior mean assumed)."""
    if np.any(p.mu != 0):
        raise ParameterError("full-form GCV assumes mu = 0")
    L_R = _chol_of_inverse(p.R, "R")
    Qinv = sla.inv(p.Q)
    Rinv_A = sla.solve(p.R, p.A, assume_a="pos")
    M = p.A.T @ Rinv_A + lam ** 2 * 0.5 * (Qinv + Qinv.T)
    A_lam = sla.solve(0.5 * (M + M.T), p.A.T @ L_R.T, assume_a="pos")
    s = sla.solve(0.5 * (M + M.T), Rinv_A.T @ p.d, assume_a="pos")
    resid = p.A @ s - p.d
    misfit = float(resid @ sla.solve(p.R, resid, assume_a="pos"))
    trace = p.m - np.trace(L_R @ p.A @ A_lam)
    return p.n * misfit / trace ** 2
