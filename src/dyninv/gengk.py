"""Generalized Golub-Kahan bidiagonalization in the R^{-1} and Q inner products.

Produces a small lower-bidiagonal matrix together with bases U and V that are
orthonormal in the weighted inner products.  The bases are stored as
column-major blocks allocated once for a given number of steps.  Optional full
reorthogonalization (two-pass block classical Gram-Schmidt in the weighted
inner products) is available; it is recommended whenever the factorization
feeds variance estimation.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .linop import LinearOperator

# Relative threshold below which a new alpha/beta is declared a breakdown.
BREAKDOWN_RTOL = 1e-14


@dataclass
class Bidiagonal:
    """(k+1) x k lower bidiagonal with diagonal ``alphas`` and subdiagonal ``betas``."""

    alphas: np.ndarray
    betas: np.ndarray

    @property
    def k(self) -> int:
        return len(self.alphas)

    def to_dense(self) -> np.ndarray:
        k = self.k
        B = np.zeros((k + 1, k))
        B[np.arange(k), np.arange(k)] = self.alphas
        B[np.arange(1, k + 1), np.arange(k)] = self.betas
        return B


@dataclass
class GenGKFactorization:
    """State of the bidiagonalization after k completed steps.

    The bases live in column-major blocks allocated once, with room for
    ``max_steps`` steps: U and the cached products R^{-1} U have ``A.rows``
    rows, V and the cached products Q V have ``A.cols`` rows, and each block
    has ``max_steps + 1`` columns so that u_{k+1} and v_{k+1} fit.  A step
    writes its columns once and never changes them afterwards; the
    ``*_matrix`` accessors return views of the leading columns, which callers
    must not write to.  Untouched columns of a large block never become
    resident.
    """

    A: LinearOperator
    R: LinearOperator
    Q: LinearOperator
    b: np.ndarray
    beta1: float
    max_steps: int = 0
    reorthogonalize: bool = False
    alphas: list = field(default_factory=list)   # alpha_1 .. alpha_{k+1}
    betas: list = field(default_factory=list)    # beta_2 .. beta_{k+1}
    breakdown: int | None = None                 # step index at which it occurred

    def __post_init__(self):
        cols = self.max_steps + 1
        self._U = np.empty((self.A.rows, cols), order="F")   # u_1 .. u_{k+1}
        self._RinvU = np.empty_like(self._U)                  # R^{-1} u_i
        self._V = np.empty((self.A.cols, cols), order="F")    # v_1 .. v_{k+1}
        self._QV = np.empty_like(self._V)                     # Q v_i
        # filled columns: k + 1 of each, one fewer after a breakdown
        self._nu = self._nv = 0

    @property
    def k(self) -> int:
        """Number of completed steps: B_k is (k+1) x k and V_k has k columns."""
        return len(self.betas)

    def bidiagonal(self, k: int | None = None) -> Bidiagonal:
        if k is None:
            k = self.k
        return Bidiagonal(np.asarray(self.alphas[:k]), np.asarray(self.betas[:k]))

    def U_matrix(self, k: int | None = None) -> np.ndarray:
        """View of u_1 .. u_{k+1} (u_{k+1} is absent after a beta breakdown)."""
        k = self.k if k is None else k
        return self._U[:, :min(k + 1, self._nu)]

    def V_matrix(self, k: int | None = None) -> np.ndarray:
        """View of v_1 .. v_k."""
        k = self.k if k is None else k
        return self._V[:, :min(k, self._nv)]

    def QV_matrix(self, k: int | None = None) -> np.ndarray:
        """View of Q v_1 .. Q v_k."""
        k = self.k if k is None else k
        return self._QV[:, :min(k, self._nv)]

    @property
    def breakdown_tol(self) -> float:
        a1 = self.alphas[0] if self.alphas else 0.0
        return BREAKDOWN_RTOL * (self.beta1 + a1)


def _weighted_norm_sq(v, Mv, tol: float = 0.0) -> float:
    s = float(np.dot(v, Mv))
    if s < 0:
        # benign at breakdown, where v itself has collapsed to rounding noise
        if np.sqrt(-s) > tol:
            warnings.warn("weighted norm clamped at zero; operator may have "
                          "lost positive definiteness", RuntimeWarning)
        s = 0.0
    return s


def gengk_init(A: LinearOperator, R: LinearOperator, Q: LinearOperator, b,
               max_steps: int, reorthogonalize: bool = False) -> GenGKFactorization:
    """Initialize the factorization (beta_1, u_1, alpha_1, v_1) with room for
    ``max_steps`` steps."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != A.rows:
        raise DegenerateInputError(f"b has length {b.size}, expected {A.rows}")
    Rinv_b = R.solve(b)
    beta1 = np.sqrt(_weighted_norm_sq(b, Rinv_b))
    if beta1 == 0.0:
        raise DegenerateInputError("b = 0: gen-GK iteration undefined")
    fact = GenGKFactorization(A=A, R=R, Q=Q, b=b, beta1=beta1,
                              max_steps=max_steps, reorthogonalize=reorthogonalize)
    np.divide(b, beta1, out=fact._U[:, 0])
    np.divide(Rinv_b, beta1, out=fact._RinvU[:, 0])
    fact._nu = 1

    w = A.apply_adjoint(fact._RinvU[:, 0])
    Qw = Q.apply(w)
    alpha1 = np.sqrt(_weighted_norm_sq(w, Qw))
    if alpha1 <= BREAKDOWN_RTOL * beta1:
        fact.alphas.append(0.0)
        fact.breakdown = 0
        return fact
    fact.alphas.append(alpha1)
    np.divide(w, alpha1, out=fact._V[:, 0])
    np.divide(Qw, alpha1, out=fact._QV[:, 0])
    fact._nv = 1
    return fact


def _cgs2(W, MW, x, Mx):
    """Orthogonalize x against the columns of W in the M inner product.

    Two passes of block classical Gram-Schmidt ("twice is enough": Giraud,
    Langou and Rozloznik, 2005).  ``MW`` = M W and ``Mx`` = M x are carried
    along, so no product with M is needed.
    """
    for _ in range(2):
        c = MW.T @ x
        if not np.any(c):
            break
        # not in place: an operator's solve or apply may hand back its input
        x = x - W @ c
        Mx = Mx - MW @ c
    return x, Mx


def gengk_step(fact: GenGKFactorization) -> GenGKFactorization:
    """Extend the factorization by one step (in place; the state is returned).

    Appends u_{i+1}, beta_{i+1} and, unless breakdown occurs, v_{i+1},
    alpha_{i+1}.  Breakdown is a benign termination, not a failure.
    """
    if fact.breakdown is not None:
        raise RuntimeError("cannot step a broken-down factorization")
    k = fact.k
    if k >= fact.max_steps:
        raise RuntimeError(f"cannot step past the {fact.max_steps} steps the "
                           f"factorization was allocated for")
    A, R, Q = fact.A, fact.R, fact.Q
    U, RinvU, V, QV = fact._U, fact._RinvU, fact._V, fact._QV

    u = A.apply(QV[:, k]) - fact.alphas[k] * U[:, k]
    Rinv_u = R.solve(u)
    if fact.reorthogonalize:
        u, Rinv_u = _cgs2(U[:, :k + 1], RinvU[:, :k + 1], u, Rinv_u)
    beta = np.sqrt(_weighted_norm_sq(u, Rinv_u, fact.breakdown_tol))
    if beta <= fact.breakdown_tol:
        fact.betas.append(0.0)
        fact.breakdown = k + 1
        return fact
    fact.betas.append(beta)
    np.divide(u, beta, out=U[:, k + 1])
    np.divide(Rinv_u, beta, out=RinvU[:, k + 1])
    fact._nu += 1

    v = A.apply_adjoint(RinvU[:, k + 1]) - beta * V[:, k]
    Qv = Q.apply(v)
    if fact.reorthogonalize:
        v, Qv = _cgs2(V[:, :k + 1], QV[:, :k + 1], v, Qv)
    alpha = np.sqrt(_weighted_norm_sq(v, Qv, fact.breakdown_tol))
    if alpha <= fact.breakdown_tol:
        fact.alphas.append(0.0)
        fact.breakdown = k + 1
        return fact
    fact.alphas.append(alpha)
    np.divide(v, alpha, out=V[:, k + 1])
    np.divide(Qv, alpha, out=QV[:, k + 1])
    fact._nv += 1
    return fact


def gengk(A: LinearOperator, R: LinearOperator, Q: LinearOperator, b,
          k: int, reorthogonalize: bool = False) -> GenGKFactorization:
    """Run up to ``k`` gen-GK steps, stopping early on breakdown."""
    fact = gengk_init(A, R, Q, b, k, reorthogonalize)
    while fact.breakdown is None and fact.k < k:
        gengk_step(fact)
    return fact


def _prefix_relations(fact: GenGKFactorization) -> dict:
    """Relation residuals and Gram deviations of every prefix of the factorization.

    Entry i - 1 of each array is what ``krylov_basis_span_check`` reports for
    the first i steps.  A step's Gram entries and residual columns never
    change later, so running maxima of the Gram deviations and running sums
    of squares of the residual columns give every prefix at once.
    """
    k, nu, nv = fact.k, fact._nu, fact._nv
    U, RinvU = fact._U[:, :nu], fact._RinvU[:, :nu]
    V, QV = fact._V[:, :nv], fact._QV[:, :nv]
    # nu x nv bidiagonal whose column j holds alpha_{j+1} and beta_{j+2}:
    # B_k, plus alpha_{k+1} when v_{k+1} exists, minus the row of a zero
    # beta_{k+1}
    Bx = np.zeros((nu, nv))
    r = min(nu, nv)
    Bx[np.arange(r), np.arange(r)] = fact.alphas[:r]
    c = min(nu - 1, nv)
    Bx[np.arange(1, c + 1), np.arange(c)] = fact.betas[:c]

    # columns j < i of A Q V_i - U_{i+1} B_i, and j <= i of
    # A' R^{-1} U_{i+1} - V_i B_i' - alpha_{i+1} v_{i+1} e_{i+1}'
    res_aqv = fact.A.apply_mat(QV[:, :k]) - U @ Bx[:, :k]
    res_atu = fact.A.apply_adjoint_mat(RinvU) - V @ Bx.T
    sq_aqv = np.cumsum(np.sum(res_aqv ** 2, axis=0))
    sq_atu = np.cumsum(np.sum(res_atu ** 2, axis=0))
    sq_B = np.cumsum(np.square(fact.alphas[:k]) + np.square(fact.betas[:k]))

    def leading_max(G):
        # max |G - I| over each leading square block
        D = np.abs(G - np.eye(G.shape[0]))
        return np.maximum.accumulate(np.max(np.tril(np.maximum(D, D.T)), axis=1))

    steps = np.arange(1, k + 1)
    last_u = np.minimum(steps, nu - 1)  # u_{i+1} is absent after a beta breakdown
    return {
        "resid_AQV": np.sqrt(sq_aqv / sq_B),
        "resid_AtRinvU": np.sqrt(sq_atu[last_u] / sq_B),
        "orth_U": leading_max(U.T @ RinvU)[last_u],
        "orth_V": leading_max(V[:, :k].T @ QV[:, :k])[steps - 1],
    }


def krylov_basis_span_check(fact: GenGKFactorization) -> dict:
    """Residuals of the four gen-GK relations for a (densifiable) factorization.

    Returns relative Frobenius residuals of b = U beta_1 e_1,
    A Q V = U B, A' R^{-1} U = V B' + alpha_{k+1} v_{k+1} e_{k+1}',
    and the max deviations of the two weighted Gram matrices from identity.
    """
    k = fact.k
    report = {"k": k}
    bnorm = np.linalg.norm(fact.b)
    report["resid_b"] = (
        np.linalg.norm(fact._U[:, 0] * fact.beta1 - fact.b) / bnorm if bnorm else 0.0
    )
    if k == 0:
        return report
    for key, values in _prefix_relations(fact).items():
        report[key] = float(values[-1])
    return report


def dump_diagnostics_csv(fact: GenGKFactorization, path) -> None:
    """Write per-iteration alpha/beta and relation residuals as CSV.

    Row i reports the Gram deviations and the larger relation residual of the
    first i steps, as ``krylov_basis_span_check`` would for them.
    """
    rel = _prefix_relations(fact) if fact.k else {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "alpha", "beta", "orth_U", "orth_V", "rec_resid"])
        for i in range(fact.k):
            writer.writerow([
                i + 1,
                repr(float(fact.alphas[i])),
                repr(float(fact.betas[i])),
                repr(float(rel["orth_U"][i])),
                repr(float(rel["orth_V"][i])),
                repr(float(max(rel["resid_AQV"][i], rel["resid_AtRinvU"][i]))),
            ])
