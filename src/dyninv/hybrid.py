"""Simultaneous hybrid solver.

Projects the change-of-variables problem onto the gen-GK subspace, solves the
small regularized bidiagonal least-squares problem, selects the regularization
parameter automatically per iteration (weighted GCV, which is plain GCV at
weight 1, a fixed value, or the truth-based optimal parameter), and recovers
the reconstruction by undoing the change of variables: s_k = mu + Q V_k z_k.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ParameterError
from . import gengk as gk
from .linop import LinearOperator
from .priorcov import PriorModel

# lambda search window relative to the largest singular value of B_k
LAMBDA_LO_FACTOR = 1e-12
LAMBDA_HI_FACTOR = 1e3
LAMBDA_GRID_POINTS = 200
# zoom rounds after the grid; each one narrows the log-lambda spacing by
# (LAMBDA_ZOOM_POINTS - 1) / 2, so 14 rounds of 17 points take the grid's
# spacing of 0.17 down to about 4e-14
LAMBDA_ZOOM_ROUNDS = 14
LAMBDA_ZOOM_POINTS = 17


# ----------------------------------------------------------------------
# Regularization strategies
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fixed:
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("fixed regularization parameter must be >= 0")


@dataclass(frozen=True)
class WGCV:
    """Weighted GCV with a constant weight in (0, 1]; w = 1 is plain GCV."""

    w: float = 0.8

    def __post_init__(self):
        if not (0 < self.w <= 1):
            raise ParameterError("WGCV weight must lie in (0, 1]")


@dataclass(frozen=True)
class Optimal:
    """Benchmark strategy: minimize the 2-norm error against a known truth."""

    s_true: np.ndarray


# ----------------------------------------------------------------------
# Projected problem
# ----------------------------------------------------------------------

@dataclass
class ProjectedProblem:
    """SVD view of the (k+1) x k bidiagonal, reused across lambda values.

    ``solve``, ``misfit`` and ``gcv`` take one lambda or an array of them and
    share one set of filter factors, so lambda = 0 means the same truncated
    (minimum-norm) solution in all three.
    """

    B: np.ndarray
    beta1: float
    U: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)
    Vt: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)  # components of beta1*e1 in the left singular basis

    def __post_init__(self):
        self.U, self.s, self.Vt = sla.svd(self.B, full_matrices=True)
        self.c = self.beta1 * self.U[0, :]
        s = self.s
        self._s2 = s ** 2
        self._c_head = self.c[: s.size]
        self._c_tail_sq = float(np.sum(self.c[s.size:] ** 2))
        # singular values kept by the unregularized (lambda = 0) solution
        cutoff = s[0] * np.finfo(float).eps * max(self.B.shape) if s.size else 0.0
        self._kept = s > cutoff
        self._c_over_s = np.divide(self._c_head, s, out=np.zeros_like(s), where=s > 0)

    @property
    def k(self) -> int:
        return self.B.shape[1]

    def _filters(self, lam):
        """Filter factors (phi, 1 - phi) of each lambda, one row per lambda.

        phi = s^2 / (s^2 + lam^2) and 1 - phi = lam^2 / (s^2 + lam^2), each
        formed without cancellation; at lam = 0, phi is 1 on the kept
        singular values and 0 on the dropped ones.
        """
        lam2 = np.square(np.asarray(lam, dtype=float))[..., None]
        zero = lam2 == 0
        if not zero.any():
            denom = self._s2 + lam2
            return self._s2 / denom, lam2 / denom
        denom = self._s2 + np.where(zero, 1.0, lam2)
        phi = np.where(zero, self._kept, self._s2 / denom)
        return phi, np.where(zero, ~self._kept, lam2 / denom)

    def coefficients(self, lam) -> np.ndarray:
        """Coefficients f of z(lam) = Vt' f, one row per lambda."""
        return self._filters(lam)[0] * self._c_over_s

    def solve(self, lam: float) -> np.ndarray:
        """Tikhonov solution of min ||B z - beta1 e1||^2 + lam^2 ||z||^2.

        At lam = 0 this is the minimum-norm solution on the singular values
        above s_max * eps * max(B.shape).
        """
        return self.Vt.T @ self.coefficients(lam)

    def _residual_sq(self, psi):
        return ((psi * self._c_head) ** 2).sum(axis=-1) + self._c_tail_sq

    def misfit(self, lam):
        """||B z(lam) - beta1 e1||_2 for one lambda or an array of them."""
        return np.sqrt(self._residual_sq(self._filters(lam)[1]))

    def gcv(self, lam, w: float = 1.0):
        """(Weighted) GCV value of the projected problem, for one lambda or
        an array of them."""
        phi, psi = self._filters(lam)
        denom = (self.k + 1) - w * phi.sum(axis=-1)
        return self.k * self._residual_sq(psi) / denom ** 2


class OptimalError:
    """The error ||mu + Q V_k z(lam) - s_true|| of the Optimal strategy,
    evaluated without forming an n-vector per lambda.

    With r0 = mu - s_true, G = (Q V)'(Q V) and g = (Q V)' r0, a projected
    problem with z(lam) = Vt' f(lam) has
    err(lam)^2 = ||r0||^2 + 2 h' f + f' M f, where M = Vt G Vt' and h = Vt g.
    G and g grow by one column per gen-GK step at O(n) cost per entry.
    """

    def __init__(self, r0, max_steps: int):
        self.r0 = np.asarray(r0, dtype=float).ravel()
        self.r0_sq = float(self.r0 @ self.r0)
        self.G = np.empty((max_steps, max_steps))
        self.g = np.empty(max_steps)
        self.k = 0

    def extend(self, QV: np.ndarray) -> None:
        """Bring G and g up to the columns of ``QV``, whose first ``self.k``
        columns are the ones already seen."""
        k0, k = self.k, QV.shape[1]
        new = QV[:, k0:k]
        self.G[:k, k0:k] = QV.T @ new
        self.G[k0:k, :k0] = self.G[:k0, k0:k].T
        self.g[k0:k] = new.T @ self.r0
        self.k = k

    def objective(self, proj: ProjectedProblem):
        """err(lam) for ``proj``, for one lambda or an array of them."""
        k = proj.k
        if k > self.k:
            raise ParameterError(f"OptimalError holds {self.k} columns of Q V, "
                                 f"the projected problem needs {k}")
        M = proj.Vt @ self.G[:k, :k] @ proj.Vt.T
        h2 = 2.0 * (proj.Vt @ self.g[:k])

        def err(lam):
            F = proj.coefficients(lam)
            sq = self.r0_sq + (F * (h2 + F @ M)).sum(axis=-1)
            return np.sqrt(np.maximum(sq, 0.0))

        return err


# ----------------------------------------------------------------------
# Lambda selection
# ----------------------------------------------------------------------

def minimize_over_lambda(f, s_max: float) -> float:
    """Minimize ``f`` over lambda in [1e-12 s_max, 1e3 s_max] by log-grid zoom.

    ``f`` takes an array of lambdas and returns one value per lambda.  Each
    round evaluates it once, on a log grid: first LAMBDA_GRID_POINTS points
    over the whole window, then LAMBDA_ZOOM_POINTS points between the two
    neighbours of the previous round's minimizer.  The result is the best
    lambda seen; ties resolve to the smallest minimizing lambda.
    """
    if s_max <= 0:
        return 0.0
    a, b = np.log(LAMBDA_LO_FACTOR * s_max), np.log(LAMBDA_HI_FACTOR * s_max)
    n = LAMBDA_GRID_POINTS
    best_lam, best_val = 0.0, np.inf
    for _ in range(1 + LAMBDA_ZOOM_ROUNDS):
        x = np.linspace(a, b, n)
        vals = f(np.exp(x))
        i = int(np.argmin(vals))  # argmin returns the first (smallest-lambda) minimizer
        # <= moves an equal value to the smaller lambda a later round found
        if vals[i] <= best_val:
            best_lam, best_val = float(np.exp(x[i])), vals[i]
        a, b = x[max(i - 1, 0)], x[min(i + 1, n - 1)]
        n = LAMBDA_ZOOM_POINTS
    return best_lam


def select_lambda(strategy, proj: ProjectedProblem,
                  error: OptimalError | None = None) -> float:
    """Pick the iteration's regularization parameter under a strategy.

    Optimal needs ``error``, an ``OptimalError`` that holds at least the
    ``proj.k`` columns of Q V_k.
    """
    if isinstance(strategy, Fixed):
        return strategy.lam
    s_max = proj.s[0] if proj.s.size else 0.0
    if isinstance(strategy, WGCV):
        return minimize_over_lambda(lambda l: proj.gcv(l, strategy.w), s_max)
    if isinstance(strategy, Optimal):
        if error is None:
            raise ParameterError("Optimal strategy requires an OptimalError")
        return minimize_over_lambda(error.objective(proj), s_max)
    raise ParameterError(f"unknown regularization strategy {strategy!r}")


# ----------------------------------------------------------------------
# Full solver
# ----------------------------------------------------------------------

# consecutive flat or stagnant iterations that stop a WGCV solve
FLAT_PATIENCE = 3


@dataclass
class SolverOptions:
    max_iter: int = 100
    reorthogonalize: bool = False
    # stop when the GCV value changes by less than gcv_flat_tol (relative to
    # the first value) or the selected lambda stagnates within lam_stag_tol,
    # for FLAT_PATIENCE consecutive iterations
    gcv_flat_tol: float = 1e-6
    lam_stag_tol: float = 0.01
    error_mask: np.ndarray | None = None


CONVERGENCE_COLUMNS = ["iter", "lambda", "data_misfit", "solution_Qnorm",
                       "gcv_value", "rel_error", "wall_time_s", "op_time_s"]


@dataclass(frozen=True)
class Iteration:
    """What one solver iteration chose and measured."""

    lam: float
    misfit: float              # ||B_k z - beta1 e1||
    qnorm: float               # ||z|| = ||x||_Q
    gcv: float                 # (weighted) GCV value at lam
    rel_error: float | None    # against s_true; None without a truth
    wall_s: float              # the whole iteration
    step_s: float              # gengk_step, plus initialization on the first


@dataclass
class SolverResult:
    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    lam: float
    history: list              # one Iteration per iteration
    stop_reason: str
    factorization: gk.GenGKFactorization

    @property
    def iterations(self) -> int:
        return len(self.history)

    def convergence_rows(self):
        """Yield one row of ``CONVERGENCE_COLUMNS`` per iteration, floats in
        full precision and missing values blank."""
        for i, it in enumerate(self.history, 1):
            yield [i] + ["" if v is None else repr(float(v))
                         for v in (it.lam, it.misfit, it.qnorm, it.gcv,
                                   it.rel_error, it.wall_s, it.step_s)]

    def write_convergence_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CONVERGENCE_COLUMNS)
            writer.writerows(self.convergence_rows())


def relative_error(s, s_true, mask=None) -> float:
    s = np.asarray(s, dtype=float).ravel()
    s_true = np.asarray(s_true, dtype=float).ravel()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        s, s_true = s[mask], s_true[mask]
    return float(np.linalg.norm(s - s_true) / np.linalg.norm(s_true))


def _gcv_flat(history: list, opts: SolverOptions) -> bool:
    """True when each of the last FLAT_PATIENCE iterations left the GCV value
    flat (relative to the first iteration's) or lambda stagnant."""
    if len(history) <= FLAT_PATIENCE:
        return False
    g_ref = abs(history[0].gcv) if history[0].gcv != 0 else 1.0

    def quiet(prev: Iteration, now: Iteration) -> bool:
        flat = abs(now.gcv - prev.gcv) / g_ref < opts.gcv_flat_tol
        stag = prev.lam > 0 and abs(now.lam - prev.lam) / prev.lam < opts.lam_stag_tol
        return flat or stag

    recent = history[-FLAT_PATIENCE - 1:]
    return all(quiet(prev, now) for prev, now in zip(recent, recent[1:]))


def genhybr_solve(A: LinearOperator, R: LinearOperator, prior: PriorModel, d,
                  strategy, options: SolverOptions | None = None,
                  s_true=None) -> SolverResult:
    """Simultaneous genHyBR: gen-GK on b = d - A mu plus projected regularization.

    Stops on max iterations, gen-GK breakdown, or GCV flatness / lambda
    stagnation (WGCV only).
    """
    opts = options or SolverOptions()
    d = np.asarray(d, dtype=float).ravel()
    mu = prior.mean
    Q = prior.Q
    b = d - A.apply(mu)

    t0 = time.perf_counter()
    # the loop below always takes at least one step
    max_steps = max(opts.max_iter, 1)
    fact = gk.gengk_init(A, R, Q, b, max_steps,
                         reorthogonalize=opts.reorthogonalize)
    init_time = time.perf_counter() - t0
    error = None
    if isinstance(strategy, Optimal):
        error = OptimalError(mu - np.asarray(strategy.s_true, dtype=float).ravel(),
                             max_steps)

    history = []
    # alpha_1 = 0 at initialization ends the solve before its first step
    stop_reason = "breakdown" if fact.breakdown is not None else None
    z = np.zeros(0)
    lam = strategy.lam if isinstance(strategy, Fixed) else 0.0

    while stop_reason is None:
        t_it = time.perf_counter()
        gk.gengk_step(fact)
        step_s = time.perf_counter() - t_it + (init_time if fact.k == 1 else 0.0)
        k = fact.k

        proj = ProjectedProblem(fact.bidiagonal(k).to_dense(), fact.beta1)
        QV = fact.QV_matrix(k)
        if error is not None:
            error.extend(QV)
        lam = select_lambda(strategy, proj, error)
        z = proj.solve(lam)
        history.append(Iteration(
            lam=lam, misfit=proj.misfit(lam),
            qnorm=float(np.linalg.norm(z)),  # ||x||_Q equals ||z|| in the gen-GK basis
            gcv=proj.gcv(lam, strategy.w if isinstance(strategy, WGCV) else 1.0),
            rel_error=(None if s_true is None
                       else relative_error(mu + QV @ z, s_true, opts.error_mask)),
            wall_s=time.perf_counter() - t_it, step_s=step_s))

        if fact.breakdown is not None:
            stop_reason = "breakdown"
        elif isinstance(strategy, WGCV) and _gcv_flat(history, opts):
            stop_reason = "gcv-flat"
        elif k >= opts.max_iter:
            stop_reason = "max-iter"

    if z.size:
        x = fact.V_matrix() @ z
        s = mu + fact.QV_matrix() @ z
    else:
        x = np.zeros(A.cols)
        s = mu.copy()

    return SolverResult(s=s, x=x, z=z, lam=lam, history=history,
                        stop_reason=stop_reason, factorization=fact)
