"""Generalized Golub-Kahan bidiagonalization in the R^{-1} and Q inner products.

Produces a small lower-bidiagonal matrix together with bases U and V that are
orthonormal in the weighted inner products.  The bases are stored as
column-major blocks allocated once for a given number of steps.  Optional
reorthogonalization is available: each step orthogonalizes the new vector of
the side with fewer rows (U when m <= n) against that whole side, by block
classical Gram-Schmidt in its weighted inner product (one pass, and a second
only when the first shrinks the vector's weighted norm by more than
1/sqrt(2), the DGKS criterion).  The other side keeps the plain recurrence
while an omega-recurrence estimate of its new vector's largest inner product
with the earlier ones, which costs one weighted norm per step, stays at or
below LONG_SIDE_ORTH_TOL, and is orthogonalized the same way once it does not.
In exact arithmetic the short side's orthogonality carries over to the long
side (Simon and Zha, SISC 21(6), 2000); in floating point the long side's
loss grows roughly like eps cond(B_k), so the estimate lets well-conditioned
problems skip nearly all long-side work and keeps ill-conditioned ones
orthogonal.  A factorization that feeds variance estimation should be
reorthogonalized: without it the Ritz pairs degrade, and ``dyninv solve``
writes a variance field only from a reorthogonalized solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DegenerateInputError
from .linop import LinearOperator

# A new alpha/beta at or below this fraction of the largest alpha/beta so far
# (for alpha_1, of the operator scale from ``_operator_scale``) is declared a
# breakdown.  Both scale with the operators only, so the test does not depend
# on the units of b.
BREAKDOWN_RTOL = 1e-14

# A reorthogonalized factorization orthogonalizes the long side's new vector
# against its side too once the omega-recurrence estimate of its largest
# inner product with an earlier vector exceeds LONG_SIDE_ORTH_TOL.  The
# recurrence charges LONG_SIDE_EPS times the largest alpha/beta so far as the
# rounding error of each step, and starts over from LONG_SIDE_EPS after an
# orthogonalized vector.
LONG_SIDE_ORTH_TOL = 1e-12
LONG_SIDE_EPS = np.finfo(float).eps


@dataclass
class GenGKFactorization:
    """State of the bidiagonalization after k completed steps.

    The bases live in three column-major blocks allocated once, with room
    for ``max_steps`` steps: U has ``A.rows`` rows, V and the cached products
    Q V have ``A.cols`` rows, and each block has ``max_steps + 1`` columns so
    that u_{k+1} and v_{k+1} fit.  R^{-1} U is not kept: a step needs only
    R^{-1} u_{k+1}, and the diagnostics form R^{-1} U with one ``solve_mat``.
    A step writes its columns once and never changes them
    afterwards; the ``*_matrix`` accessors return views of the leading
    columns, which callers must not write to.  Untouched columns of a large
    block never become resident.
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
    # Gram-Schmidt passes of each step (0 without reorthogonalization): the
    # short side's, plus the long side's when its drift estimate calls for them
    reorth_passes: list = field(default_factory=list)

    def __post_init__(self):
        cols = self.max_steps + 1
        self._U = np.empty((self.A.rows, cols), order="F")   # u_1 .. u_{k+1}
        self._V = np.empty((self.A.cols, cols), order="F")    # v_1 .. v_{k+1}
        self._QV = np.empty_like(self._V)                     # Q v_i
        # filled columns: k + 1 of each, one fewer after a breakdown
        self._nu = self._nv = 0
        # omega-recurrence estimate of max |<w, w_i>| over the earlier vectors
        # w_i of the long side, for its newest vector w
        self._drift = 0.0
        # hybrid.ProjectedProblem of the newest B_k, kept by ProjectedProblem.of
        self._projected = None

    @property
    def k(self) -> int:
        """Number of completed steps: B_k is (k+1) x k and V_k has k columns."""
        return len(self.betas)

    def bidiagonal(self, k: int | None = None) -> np.ndarray:
        """B_k: (k+1) x k lower bidiagonal with alpha_1 .. alpha_k on the
        diagonal and beta_2 .. beta_{k+1} below it."""
        k = self.k if k is None else k
        B = np.zeros((k + 1, k))
        # row-major: B[i, i] is flat entry i (k + 1), and B[i + 1, i] is k after it
        B.flat[::k + 1] = self.alphas[:k]
        B.flat[k::k + 1] = self.betas[:k]
        return B

    def QV_matrix(self, k: int | None = None) -> np.ndarray:
        """View of Q v_1 .. Q v_k."""
        k = self.k if k is None else k
        return self._QV[:, :min(k, self._nv)]

    @property
    def _short_u(self) -> bool:
        """True when U is the side with fewer rows (m <= n), the side that a
        reorthogonalized step always orthogonalizes."""
        return self.A.rows <= self.A.cols

    def _reorth(self, on_u: bool, coupling: float, x_sq: float) -> bool:
        """Whether a step orthogonalizes its new u (``on_u``) or v, the
        unnormalized vector x with squared weighted norm ``x_sq``, against its
        side.

        The short side is always orthogonalized.  On the long side the
        recurrences beta_{j+1} u_{j+1} = A Q v_j - alpha_j u_j and
        alpha_{j+1} v_{j+1} = A' R^{-1} u_{j+1} - beta_{j+1} v_j carry the
        inner products with earlier vectors over from the previous vector,
        times coupling / ||x|| (alpha_j / beta_{j+1} for u, beta_{j+1} /
        alpha_{j+1} for v), while the orthogonalized short side and the
        rounding of the step add at most about LONG_SIDE_EPS times the
        largest alpha/beta: the omega-recurrence of Larsen's PROPACK with
        the short side at rounding level (Simon and Zha, SISC 21(6), 2000).
        It reads the weighted norm that the step formed for ``_cgs2``, and it
        grows like eps cond(B_k).  The long side's estimate for the new vector
        is kept for the next step.
        """
        if not self.reorthogonalize:
            return False
        if on_u == self._short_u:
            return True
        norm = np.sqrt(max(x_sq, 0.0))
        rounding = LONG_SIDE_EPS * self._largest_scalar
        drift = (coupling * self._drift + rounding) / norm if norm else np.inf
        reorth = drift > LONG_SIDE_ORTH_TOL
        self._drift = LONG_SIDE_EPS if reorth else drift
        return reorth

    @property
    def _largest_scalar(self) -> float:
        """The largest alpha or beta so far (there is no beta before step 1)."""
        return max(max(self.alphas), max(self.betas, default=0.0))

    @property
    def breakdown_tol(self) -> float:
        return BREAKDOWN_RTOL * self._largest_scalar


def _weighted_norm_sq(v, Mv, weight: str) -> float:
    return _clamped_norm_sq(float(np.dot(v, Mv)), weight)


def _clamped_norm_sq(s: float, weight: str, tol: float = 0.0) -> float:
    """The squared norm s = x' M x in the weight M (named ``weight``), at least 0.

    A negative s whose square root is at most ``tol`` is rounding at
    breakdown, where x has collapsed to rounding noise, and reads as 0.  Any
    other negative s means M is not positive definite, and raises
    ``ConditioningError``.
    """
    if s < 0:
        if np.sqrt(-s) > tol:
            raise ConditioningError(f"{weight} is not positive definite (a weighted "
                                    f"squared norm came out {s:.3e})")
        s = 0.0
    return s


def _operator_scale(A: LinearOperator, R: LinearOperator, Q: LinearOperator) -> float:
    """||A' R^{-1} y||_Q / ||y||_{R^{-1}} for a fixed pseudo-random y.

    This is what alpha_1 would be for b = y, so it has the units of alpha_1
    but does not depend on the data: a yardstick for the breakdown test at
    initialization, before any alpha or beta is known.  It is 0 (only an
    exact zero then breaks down) when R^{-1} gives y no positive norm.
    """
    y = np.random.default_rng(0).standard_normal(A.rows)
    Rinv_y = R.solve(y)
    y_sq = _weighted_norm_sq(y, Rinv_y, "R")
    if y_sq <= 0.0:
        return 0.0
    w = A.apply_adjoint(Rinv_y)
    return float(np.sqrt(_weighted_norm_sq(w, Q.apply(w), "Q") / y_sq))


def gengk_init(A: LinearOperator, R: LinearOperator, Q: LinearOperator, b,
               max_steps: int, reorthogonalize: bool = False) -> GenGKFactorization:
    """Initialize the factorization (beta_1, u_1, alpha_1, v_1) with room for
    ``max_steps`` steps."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != A.rows:
        raise DegenerateInputError(f"b has length {b.size}, expected {A.rows}")
    # before the bases are allocated, so that its temporaries add nothing to
    # the peak memory of initialization
    scale = _operator_scale(A, R, Q)
    fact = GenGKFactorization(A=A, R=R, Q=Q, b=b, beta1=0.0,
                              max_steps=max_steps, reorthogonalize=reorthogonalize)
    Rinv_b = R.solve(b)
    fact.beta1, Rinv_b, _ = _append_u(fact, b, Rinv_b, float(np.dot(b, Rinv_b)),
                                      0.0, False)
    if fact.beta1 == 0.0:
        raise DegenerateInputError("b = 0: gen-GK iteration undefined")
    w = A.apply_adjoint(Rinv_b / fact.beta1)
    Qw = Q.apply(w)
    fact.alphas.append(_append_v(fact, w, Qw, float(np.dot(w, Qw)),
                                 BREAKDOWN_RTOL * scale, False)[0])
    if fact.alphas[0] == 0.0:
        fact.breakdown = 0
    return fact


def _cgs2(W, x, Mx, norm_sq: float, next_Mx):
    """Orthogonalize x against the columns of W in the M inner product.

    Block classical Gram-Schmidt with the DGKS criterion (Daniel, Gragg,
    Kaufman and Stewart, 1976): one pass, and a second only when the first
    shrinks the weighted norm by more than 1/sqrt(2), that is when
    x'Mx < x0'Mx0 / 2 afterwards; two passes are always enough ("twice is
    enough": Giraud, Langou and Rozloznik, 2005).  Each pass takes its
    coefficients c = W' (M x) from the carried ``Mx`` = M x, so M W is never
    needed, and then ``next_Mx(x, Mx, c)`` gives M x for the updated x:
    either Mx - (M W) c from a cached M W, or a fresh product with M.
    ``norm_sq`` is x'Mx for the x given, which the caller has formed.

    Returns ``(x, Mx, x'Mx, passes)``: the squared weighted norm is the one
    the criterion computed last, unclamped (``norm_sq`` when W has no columns).
    A reorthogonalized step calls it with the filled columns of the side
    with fewer rows, and with those of the other side only when that side's
    drift estimate calls for it (no columns otherwise).
    """
    passes = 0
    if not W.shape[1]:
        return x, Mx, norm_sq, passes
    while passes < 2:
        c = W.T @ Mx
        if not c.any():
            break
        # not in place: an operator's solve or apply may hand back its input
        x = x - W @ c
        Mx = next_Mx(x, Mx, c)
        passes += 1
        norm0_sq, norm_sq = norm_sq, float(np.dot(x, Mx))
        if norm_sq >= 0.5 * norm0_sq:
            break
    return x, Mx, norm_sq, passes


def _append_u(fact: GenGKFactorization, u, Rinv_u, u_sq: float, tol: float,
              reorth: bool):
    """Store u / ||u||_{R^{-1}} as the next U column, after orthogonalizing u
    against the filled ones when ``reorth`` is set; ``u_sq`` is u' R^{-1} u.

    Returns ``(norm, R^{-1} u, passes)``; a norm at most ``tol`` stores
    nothing and is returned as 0.0.
    """
    R, U = fact.R, fact._U[:, :fact._nu if reorth else 0]
    u, Rinv_u, u_sq, passes = _cgs2(U, u, Rinv_u, u_sq, lambda x, Mx, c: R.solve(x))
    norm = np.sqrt(_clamped_norm_sq(u_sq, "R", tol))
    if norm <= tol:
        return 0.0, Rinv_u, passes
    np.divide(u, norm, out=fact._U[:, fact._nu])
    fact._nu += 1
    return norm, Rinv_u, passes


def _append_v(fact: GenGKFactorization, v, Qv, v_sq: float, tol: float,
              reorth: bool):
    """Store v / ||v||_Q and Q v / ||v||_Q as the next V and Q V columns, as
    ``_append_u`` does for u.  Returns ``(norm, passes)``."""
    n = fact._nv if reorth else 0
    V, QV = fact._V[:, :n], fact._QV[:, :n]
    v, Qv, v_sq, passes = _cgs2(V, v, Qv, v_sq, lambda x, Mx, c: Mx - QV @ c)
    norm = np.sqrt(_clamped_norm_sq(v_sq, "Q", tol))
    if norm <= tol:
        return 0.0, passes
    np.divide(v, norm, out=fact._V[:, fact._nv])
    np.divide(Qv, norm, out=fact._QV[:, fact._nv])
    fact._nv += 1
    return norm, passes


def gengk_step(fact: GenGKFactorization) -> GenGKFactorization:
    """Extend the factorization by one step (in place; the state is returned).

    Appends u_{i+1}, beta_{i+1} and, unless breakdown occurs, v_{i+1},
    alpha_{i+1}.  Breakdown is a benign termination, not a failure.  With
    reorthogonalization the new vector of the side with fewer rows is
    orthogonalized against its side, and that of the other side when its
    drift estimate exceeds LONG_SIDE_ORTH_TOL (``GenGKFactorization._reorth``).
    Each new vector's weighted norm is formed once, for both.
    """
    if fact.breakdown is not None:
        raise RuntimeError("cannot step a broken-down factorization")
    k = fact.k
    if k >= fact.max_steps:
        raise RuntimeError(f"cannot step past the {fact.max_steps} steps the "
                           f"factorization was allocated for")
    u = fact.A.apply(fact._QV[:, k]) - fact.alphas[k] * fact._U[:, k]
    Rinv_u = fact.R.solve(u)
    u_sq = float(np.dot(u, Rinv_u))
    beta, Rinv_u, passes = _append_u(fact, u, Rinv_u, u_sq, fact.breakdown_tol,
                                     fact._reorth(True, fact.alphas[k], u_sq))
    fact.betas.append(beta)
    fact.reorth_passes.append(passes)
    if beta == 0.0:
        fact.breakdown = k + 1
        return fact
    # the apply hands back a fresh vector (its input is a temporary), so the
    # recurrence's subtraction can go in place
    v = fact.A.apply_adjoint(Rinv_u / beta)
    v -= beta * fact._V[:, k]
    Qv = fact.Q.apply(v)
    v_sq = float(np.dot(v, Qv))
    alpha, passes = _append_v(fact, v, Qv, v_sq, fact.breakdown_tol,
                              fact._reorth(False, beta, v_sq))
    fact.alphas.append(alpha)
    fact.reorth_passes[-1] += passes
    if alpha == 0.0:
        fact.breakdown = k + 1
    return fact


def _prefix_relations(fact: GenGKFactorization) -> dict:
    """Relation residuals and Gram deviations of every prefix of the factorization.

    Entry i - 1 of each array is what ``krylov_basis_span_check`` reports for
    the first i steps.  A step's Gram entries and residual columns never
    change later, so running maxima of the Gram deviations and running sums
    of squares of the residual columns give every prefix at once.
    """
    k, nu, nv = fact.k, fact._nu, fact._nv
    U = fact._U[:, :nu]
    RinvU = fact.R.solve_mat(U)
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
    first i steps, as ``krylov_basis_span_check`` would for them, and the
    Gram-Schmidt passes that step i ran (0 without reorthogonalization).
    """
    rel = _prefix_relations(fact) if fact.k else {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "alpha", "beta", "orth_U", "orth_V", "rec_resid",
                         "reorth_passes"])
        for i in range(fact.k):
            writer.writerow([
                i + 1,
                repr(float(fact.alphas[i])),
                repr(float(fact.betas[i])),
                repr(float(rel["orth_U"][i])),
                repr(float(rel["orth_V"][i])),
                repr(float(max(rel["resid_AQV"][i], rel["resid_AtRinvU"][i]))),
                fact.reorth_passes[i],
            ])
