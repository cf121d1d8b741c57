"""Posterior-variance estimation from gen-GK byproducts.

The posterior covariance (lam^2 Q^{-1} + A'R^{-1}A)^{-1} is approximated as a
low-rank downdate of the scaled prior: lam^{-2} Q - Z_k Delta_k Z_k', where
Z_k = Q V_k W_k comes from the eigendecomposition of B_k'B_k and Delta_k holds
lam^{-2} theta_i / (theta_i + lam^2).  The eigendecomposition is taken from
the SVD of B_k in ``hybrid.ProjectedProblem.of``: for the factorization of a
solve, the one its last iteration computed, so B_k is decomposed once.

Z_k is never stored.  The approximation keeps the factorization's Q V_k view
and the k x k' matrix W_k, and the diagonal of the downdate is summed over
row blocks of Q V_k of ``BLOCK_BYTES``, so besides the factorization the
variance needs O(block + n) memory, not the n x k' of Z_k.

A decoupled variant combines per-time low-rank blocks through the temporal
factors of the decoupled plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gengk import GenGKFactorization, gengk_init, gengk_restart, gengk_step
from .hybrid import ProjectedProblem
from .linop import LinearOperator

# A Ritz value at or below this fraction of lam^2 is dropped, whatever the
# others are: its downdate takes at most theta / (theta + lam^2) of the prior
# variance along its direction.
THETA_RTOL = 1e-12

# Row blocks of Q V_k W_k in the downdate are this many bytes: small enough
# to be squared and reduced while in cache, large enough to amortize a matrix
# product per block.
BLOCK_BYTES = 256 * 1024


@dataclass
class PosteriorApprox:
    """Low-rank representation lam^{-2} Q - Z_k Delta_k Z_k', Z_k = QV W."""

    lam: float
    Q: LinearOperator
    QV: np.ndarray         # n x k view of the factorization's Q V_k
    W: np.ndarray          # k x k', retained right singular vectors of B_k
    deltas: np.ndarray     # k' entries, in [0, lam^{-2})
    thetas: np.ndarray     # retained Ritz values of B_k'B_k

    @property
    def rank(self) -> int:
        return self.deltas.size


def build_posterior_approx(fact: GenGKFactorization, Q: LinearOperator,
                           lam: float) -> PosteriorApprox:
    """Assemble the low-rank posterior approximation from a factorization.

    The SVD of B_k comes from ``hybrid.ProjectedProblem.of(fact)``: the
    factorization keeps the projected problem of its newest B_k, so after a
    solve no second SVD is computed, and after a further step one new one
    is.  Reorthogonalized factorizations are recommended; without it the
    Ritz pairs degrade and so do the variance estimates.
    """
    if lam <= 0:
        raise ParameterError("posterior approximation requires lam > 0")
    # eigendecomposition of B'B from the SVD of B avoids squaring conditioning
    proj = ProjectedProblem.of(fact)
    thetas = proj.s ** 2
    keep = thetas > THETA_RTOL * lam ** 2
    thetas = thetas[keep]
    deltas = thetas / (thetas + lam ** 2) / lam ** 2
    return PosteriorApprox(lam=lam, Q=Q, QV=fact.QV_matrix(),
                           W=proj.Vt.T[:, keep], deltas=deltas, thetas=thetas)


def _downdate_diag(approx: PosteriorApprox) -> np.ndarray:
    """diag(Z_k Delta_k Z_k') over row blocks of Z_k = QV W: zeros at rank 0."""
    QV, W = approx.QV, approx.W
    out = np.empty(QV.shape[0])
    rows = max(1, BLOCK_BYTES // (8 * max(W.shape[1], 1)))
    for start in range(0, QV.shape[0], rows):
        block = QV[start:start + rows] @ W
        np.square(block, out=block)
        np.matmul(block, approx.deltas, out=out[start:start + rows])
    return out


def variance_diag(approx: PosteriorApprox) -> np.ndarray:
    """Diagonal of the approximate posterior covariance."""
    return approx.Q.diagonal() / approx.lam ** 2 - _downdate_diag(approx)


def restarted_variance_diag(A: LinearOperator, R: LinearOperator,
                            Q: LinearOperator, b, lam: float, rank: int):
    """Posterior variance from up to ``rank`` reorthogonalized gen-GK steps.

    Returns ``(variance, k)`` with k the number of steps in the downdate.
    One factorization starts from b (from A y for a random y when b = 0)
    and goes on past every breakdown with ``gengk_restart`` until it has
    ``rank`` steps or a restart finds the range of A exhausted.  Its bases
    stay orthonormal, so k is at most the smaller dimension of A; it can
    exceed the rank of A when an alpha or beta that is rounding noise passes
    the breakdown test and starts a step on a noise direction.
    """
    rng = np.random.default_rng(0)
    b = np.asarray(b, dtype=float).ravel()
    if not np.any(b):
        b = A.apply(rng.standard_normal(A.cols))
    if rank <= 0 or not np.any(b):  # b is still 0 only when A y is: A = 0
        return Q.diagonal() / lam ** 2, 0
    fact = gengk_init(A, R, Q, b, rank, reorthogonalize=True)
    while fact.k < rank:
        if fact.breakdown is None:
            gengk_step(fact)
        elif not gengk_restart(fact, rng):
            break
    return variance_diag(build_posterior_approx(fact, Q, lam)), fact.k


def decoupled_variance_diag(plan, factorizations: dict, lam: float) -> np.ndarray:
    """Per-time variance field (n_s x n_t) from per-subproblem factorizations.

    ``factorizations`` maps time index -> GenGKFactorization; a missing or
    None entry is allowed only for sigma_i = 0 columns, which fall back to
    the prior.  Each subproblem may have a different rank.
    """
    if lam <= 0:
        raise ParameterError("posterior approximation requires lam > 0")
    # diag(D_j) for each time block
    d_blocks = np.zeros((plan.n_s, plan.n_t))
    for j in range(plan.n_t):
        fact = factorizations.get(j)
        if fact is None:
            if not plan.sigma_zero(j):
                raise ParameterError(f"missing factorization for nonzero-sigma "
                                     f"time index {j}")
            continue
        d_blocks[:, j] = _downdate_diag(build_posterior_approx(fact, plan.Q_s, lam))

    # weights (e_j' V_t' L_t e_i)^2
    Wt = (plan.Vt.T @ plan.Lt) ** 2  # (j, i) entry
    return (np.outer(plan.Q_s.diagonal(), np.diag(plan.Qt)) / lam ** 2
            - d_blocks @ Wt)
