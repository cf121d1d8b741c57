"""Posterior-variance estimation from gen-GK byproducts.

The posterior covariance (lam^2 Q^{-1} + A'R^{-1}A)^{-1} is approximated as a
low-rank downdate of the scaled prior: lam^{-2} Q - Z_k Delta_k Z_k', where
Z_k = Q V_k W_k comes from the eigendecomposition of B_k'B_k (computed via the
SVD of B_k) and Delta_k holds lam^{-2} theta_i / (theta_i + lam^2).

A decoupled variant combines per-time low-rank blocks through the temporal
factors of the decoupled plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateInputError, ParameterError
from .gengk import GenGKFactorization, _cgs2, gengk
from .linop import LinearOperator

# Ritz values below this (relative to the largest) are dropped: they contribute
# negligibly and destabilize the lam^2/theta ratios.
THETA_RTOL = 1e-12

# A restart vector that orthogonalization against the data-space directions
# used so far shrinks below this fraction of its weighted norm lies in their
# span up to rounding: the range of A is exhausted.
RESTART_RTOL = 1e-8


@dataclass
class PosteriorApprox:
    """Low-rank representation lam^{-2} Q - Z_k Delta_k Z_k'."""

    lam: float
    Q: LinearOperator
    Z: np.ndarray          # n x k', columns Q V_k W_k (truncated)
    deltas: np.ndarray     # k' entries, in [0, lam^{-2})
    thetas: np.ndarray     # retained Ritz values of B_k'B_k

    @property
    def rank(self) -> int:
        return self.deltas.size

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        out = self.Q.apply(v) / self.lam ** 2
        if self.rank:
            out -= self.Z @ (self.deltas * (self.Z.T @ v))
        return out


def build_posterior_approx(fact: GenGKFactorization, Q: LinearOperator,
                           lam: float) -> PosteriorApprox:
    """Assemble the low-rank posterior approximation from a factorization.

    Reorthogonalized factorizations are recommended; without it the Ritz pairs
    degrade and so do the variance estimates.
    """
    if lam <= 0:
        raise ParameterError("posterior approximation requires lam > 0")
    k = fact.k
    if k == 0:
        return PosteriorApprox(lam=lam, Q=Q, Z=np.zeros((Q.cols, 0)),
                               deltas=np.zeros(0), thetas=np.zeros(0))
    B = fact.bidiagonal(k).to_dense()
    # eigendecomposition of B'B from the SVD of B avoids squaring conditioning
    _, s, Vt = sla.svd(B, full_matrices=False)
    thetas = s ** 2
    keep = thetas > THETA_RTOL * (thetas[0] if thetas.size else 0.0)
    thetas = thetas[keep]
    W = Vt.T[:, keep]
    Z = fact.QV_matrix(k) @ W
    deltas = thetas / (thetas + lam ** 2) / lam ** 2
    return PosteriorApprox(lam=lam, Q=Q, Z=Z, deltas=deltas, thetas=thetas)


def variance_diag(approx: PosteriorApprox) -> np.ndarray:
    """Diagonal of the approximate posterior covariance."""
    out = approx.Q.diagonal() / approx.lam ** 2
    if approx.rank:
        out = out - (approx.Z ** 2) @ approx.deltas
    return out


def restarted_variance_diag(A: LinearOperator, R: LinearOperator,
                            Q: LinearOperator, b, lam: float, rank: int):
    """Posterior variance from up to ``rank`` reorthogonalized gen-GK steps.

    Returns ``(variance, k)``, where k is the number of steps whose downdates
    were applied.  When the Krylov space breaks down before ``rank`` steps,
    the bidiagonalization restarts from A y for a random y, made orthogonal
    (in the R^{-1} inner product) to every u used so far.  A breakdown leaves
    an invariant subspace behind, so the restarted run explores a
    complementary one and the per-run downdates combine additively.  Once a
    restart vector lies in the span of the used u's up to rounding, the range
    of A is exhausted and the downdate is complete, so k never exceeds the
    rank of A.
    """
    out = Q.diagonal() / lam ** 2
    if rank <= 0:
        return out, 0
    rng = np.random.default_rng(0)
    used = np.zeros((A.rows, 0))  # u_i of finished runs: u_i' R^{-1} u_j = delta_ij
    k_total = 0
    b_cur = np.asarray(b, dtype=float).ravel()
    for _ in range(rank + 1):
        try:
            fact = gengk(A, R, Q, b_cur, rank - k_total, reorthogonalize=True)
        except DegenerateInputError:  # b = 0
            fact = None
        if fact is not None:
            approx = build_posterior_approx(fact, Q, lam)
            if approx.rank:
                out = out - (approx.Z ** 2) @ approx.deltas
            k_total += fact.k
            if fact.breakdown is None or k_total >= rank:
                break
            used = np.hstack([used, fact.U_matrix()])
        # restart direction in the range of A, R^{-1}-orthogonal to the used u's
        b_cur = A.apply(rng.standard_normal(A.cols))
        Rinv_b = R.solve(b_cur)
        norm0_sq = float(b_cur @ Rinv_b)
        # both passes: the restarted run is never reorthogonalized against the
        # used u's, so whatever one pass leaves along them (rounding level)
        # grows with its Krylov space and can add a step beyond the rank of A
        b_cur, _, norm_sq, _ = _cgs2(used, b_cur, Rinv_b,
                                     lambda x, Mx, c: R.solve(x), dgks=False)
        if np.sqrt(max(norm_sq, 0.0)) <= RESTART_RTOL * np.sqrt(norm0_sq):
            break
    return out, k_total


def decoupled_variance_diag(plan, factorizations: dict, lam: float) -> np.ndarray:
    """Per-time variance field (n_s x n_t) from per-subproblem factorizations.

    ``factorizations`` maps time index -> GenGKFactorization; a missing or
    None entry is allowed only for sigma_i = 0 columns, which fall back to
    the prior.  Each subproblem may have a different rank.
    """
    if lam <= 0:
        raise ParameterError("posterior approximation requires lam > 0")
    n_s, n_t = plan.n_s, plan.n_t
    qs_diag = plan.Q_s.diagonal()

    # diag(D_j) for each time block
    d_blocks = np.zeros((n_s, n_t))
    for j in range(n_t):
        fact = factorizations.get(j)
        if fact is None:
            if not plan.sigma_zero(j):
                raise ParameterError(f"missing factorization for nonzero-sigma "
                                     f"time index {j}")
            continue
        approx = build_posterior_approx(fact, plan.Q_s, lam)
        if approx.rank:
            d_blocks[:, j] = (approx.Z ** 2) @ approx.deltas

    # weights (e_j' V_t' L_t e_i)^2
    Wt = (plan.Vt.T @ plan.Lt) ** 2  # (j, i) entry
    qt_diag = np.diag(plan.Qt)
    out = np.empty((n_s, n_t))
    for i in range(n_t):
        out[:, i] = qt_diag[i] * qs_diag / lam ** 2 - d_blocks @ Wt[:, i]
    return out
