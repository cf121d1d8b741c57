"""Simultaneous hybrid solver.

Projects the change-of-variables problem onto the gen-GK subspace, solves the
small regularized bidiagonal least-squares problem, selects the regularization
parameter automatically per iteration (GCV, weighted GCV, a fixed value, or
the truth-based optimal parameter), and recovers the reconstruction by undoing
the change of variables: s_k = mu + Q V_k z_k.
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
class GCV:
    pass


@dataclass(frozen=True)
class WGCV:
    """Weighted GCV with a constant weight in (0, 1]; w = 1 reduces to GCV."""

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
    """SVD view of the (k+1) x k bidiagonal, reused across lambda values."""

    B: np.ndarray
    beta1: float
    U: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)
    Vt: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)  # components of beta1*e1 in the left singular basis

    def __post_init__(self):
        self.U, self.s, self.Vt = sla.svd(self.B, full_matrices=True)
        self.c = self.beta1 * self.U[0, :]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    def solve(self, lam: float) -> np.ndarray:
        """Tikhonov solution of min ||B z - beta1 e1||^2 + lam^2 ||z||^2."""
        s = self.s
        if lam == 0.0:
            # minimum-norm solution on the nonzero singular values
            nz = s > s[0] * np.finfo(float).eps * max(self.B.shape) if s.size else s
            f = np.zeros_like(s)
            f[nz] = self.c[: s.size][nz] / s[nz]
        else:
            f = s * self.c[: s.size] / (s ** 2 + lam ** 2)
        return self.Vt.T @ f

    def misfit(self, lam: float) -> float:
        """||B z(lam) - beta1 e1||_2."""
        s = self.s
        filt = lam ** 2 / (s ** 2 + lam ** 2) if lam > 0 else np.where(s > 0, 0.0, 1.0)
        r2 = np.sum((filt * self.c[: s.size]) ** 2) + np.sum(self.c[s.size:] ** 2)
        return np.sqrt(max(r2, 0.0))

    def gcv(self, lam: float, w: float = 1.0) -> float:
        """(Weighted) GCV value of the projected problem."""
        s, k = self.s, self.k
        phi = s ** 2 / (s ** 2 + lam ** 2) if lam > 0 else (s > 0).astype(float)
        num = k * (np.sum(((1.0 - phi) * self.c[: s.size]) ** 2)
                   + np.sum(self.c[s.size:] ** 2))
        denom = (k + 1) - w * np.sum(phi)
        return num / denom ** 2


# ----------------------------------------------------------------------
# Lambda selection
# ----------------------------------------------------------------------

def _golden_refine(f, lo: float, hi: float, iters: int = 80) -> float:
    # golden-section minimization on log-lambda
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(np.exp(d))
    return np.exp(0.5 * (a + b))


def minimize_over_lambda(f, s_max: float, grid_points: int = LAMBDA_GRID_POINTS) -> float:
    """Log-grid scan over [1e-12 s_max, 1e3 s_max] plus golden-section refinement.

    Ties resolve to the smallest minimizing lambda.
    """
    if s_max <= 0:
        return 0.0
    lo, hi = LAMBDA_LO_FACTOR * s_max, LAMBDA_HI_FACTOR * s_max
    grid = np.logspace(np.log10(lo), np.log10(hi), grid_points)
    vals = np.array([f(l) for l in grid])
    i = int(np.argmin(vals))  # argmin returns the first (smallest-lambda) minimizer
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid_points - 1)]
    lam = _golden_refine(f, a, b)
    return lam if f(lam) <= vals[i] else grid[i]


def select_lambda(strategy, proj: ProjectedProblem, QV=None, mu=None) -> float:
    """Pick the iteration's regularization parameter under a strategy.

    Optimal needs ``QV`` (the matrix Q V_k) so candidate reconstructions
    mu + QV z(lam) can be formed cheaply; ``mu`` defaults to zero.
    """
    if isinstance(strategy, Fixed):
        return strategy.lam
    s_max = proj.s[0] if proj.s.size else 0.0
    if isinstance(strategy, GCV):
        return minimize_over_lambda(proj.gcv, s_max)
    if isinstance(strategy, WGCV):
        return minimize_over_lambda(lambda l: proj.gcv(l, strategy.w), s_max)
    if isinstance(strategy, Optimal):
        s_true = np.asarray(strategy.s_true, dtype=float).ravel()
        if QV is None:
            raise ParameterError("Optimal strategy requires QV")
        if mu is None:
            mu = np.zeros(QV.shape[0])

        def err(lam):
            return np.linalg.norm(mu + QV @ proj.solve(lam) - s_true)

        return minimize_over_lambda(err, s_max)
    raise ParameterError(f"unknown regularization strategy {strategy!r}")


# ----------------------------------------------------------------------
# Full solver
# ----------------------------------------------------------------------

@dataclass
class SolverOptions:
    max_iter: int = 100
    reorthogonalize: bool = False
    # stop when the GCV value changes by less than gcv_flat_tol (relative to
    # the first value) or the selected lambda stagnates within lam_stag_tol,
    # for flat_patience consecutive iterations
    gcv_flat_tol: float = 1e-6
    lam_stag_tol: float = 0.01
    flat_patience: int = 3
    misfit_tol: float | None = None
    error_mask: np.ndarray | None = None


CONVERGENCE_COLUMNS = ["iter", "lambda", "data_misfit", "solution_Qnorm",
                       "gcv_value", "rel_error", "wall_time_s", "op_time_s"]


@dataclass
class SolverResult:
    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    lam: float
    lambda_history: list
    residual_history: list
    gcv_history: list
    rel_error_history: list
    stop_reason: str
    iterations: int
    factorization: gk.GenGKFactorization
    wall_times: list = field(default_factory=list)
    op_times: list = field(default_factory=list)

    def convergence_rows(self, truth_present: bool | None = None):
        """Yield one row of ``CONVERGENCE_COLUMNS`` per iteration, floats in
        full precision and missing values blank."""
        if truth_present is None:
            truth_present = bool(self.rel_error_history)
        for i in range(self.iterations):
            rel = (repr(float(self.rel_error_history[i]))
                   if truth_present and i < len(self.rel_error_history) else "")
            yield [
                i + 1,
                repr(float(self.lambda_history[i])),
                repr(float(self.residual_history[i][0])),
                repr(float(self.residual_history[i][1])),
                repr(float(self.gcv_history[i]))
                if self.gcv_history[i] is not None else "",
                rel,
                repr(float(self.wall_times[i])) if i < len(self.wall_times) else "",
                repr(float(self.op_times[i])) if i < len(self.op_times) else "",
            ]

    def write_convergence_csv(self, path, truth_present: bool | None = None) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CONVERGENCE_COLUMNS)
            writer.writerows(self.convergence_rows(truth_present))


def relative_error(s, s_true, mask=None) -> float:
    s = np.asarray(s, dtype=float).ravel()
    s_true = np.asarray(s_true, dtype=float).ravel()
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        s, s_true = s[mask], s_true[mask]
    return float(np.linalg.norm(s - s_true) / np.linalg.norm(s_true))


def genhybr_solve(A: LinearOperator, R: LinearOperator, prior: PriorModel, d,
                  strategy, options: SolverOptions | None = None,
                  s_true=None) -> SolverResult:
    """Simultaneous genHyBR: gen-GK on b = d - A mu plus projected regularization.

    Stops on max iterations, gen-GK breakdown, GCV flatness / lambda
    stagnation (GCV-family strategies only), or an optional misfit tolerance.
    """
    opts = options or SolverOptions()
    d = np.asarray(d, dtype=float).ravel()
    mu = prior.mean
    Q = prior.Q
    b = d - A.apply(mu)

    t0 = time.perf_counter()
    # the loop below always takes at least one step
    fact = gk.gengk_init(A, R, Q, b, max(opts.max_iter, 1),
                         reorthogonalize=opts.reorthogonalize)
    init_time = time.perf_counter() - t0

    lambdas, residuals, gcvs, rel_errs = [], [], [], []
    wall_times, op_times = [], []
    stop_reason = None
    flat_count = 0
    z = np.zeros(0)
    lam = strategy.lam if isinstance(strategy, Fixed) else 0.0
    gcv_like = isinstance(strategy, (GCV, WGCV))

    while True:
        if fact.breakdown is not None:  # alpha_1 = 0 at initialization
            stop_reason = "breakdown"
            break
        t_it = time.perf_counter()
        t_op = time.perf_counter()
        gk.gengk_step(fact)
        op_time = time.perf_counter() - t_op + (init_time if fact.k == 1 else 0.0)
        k = fact.k

        proj = ProjectedProblem(fact.bidiagonal(k).to_dense(), fact.beta1)
        QV = fact.QV_matrix(k)
        lam = select_lambda(strategy, proj, QV, mu)
        z = proj.solve(lam)
        gval = proj.gcv(lam, strategy.w if isinstance(strategy, WGCV) else 1.0)
        misfit = proj.misfit(lam)
        qnorm = float(np.linalg.norm(z))  # ||x||_Q equals ||z|| in the gen-GK basis

        lambdas.append(lam)
        residuals.append((misfit, qnorm))
        gcvs.append(gval)
        if s_true is not None:
            rel_errs.append(relative_error(mu + QV @ z, s_true, opts.error_mask))
        wall_times.append(time.perf_counter() - t_it)
        op_times.append(op_time)

        if fact.breakdown is not None:
            stop_reason = "breakdown"
            break
        if opts.misfit_tol is not None and misfit <= opts.misfit_tol * fact.beta1:
            stop_reason = "tolerance"
            break
        if gcv_like and len(gcvs) >= 2:
            g_prev, g_now = gcvs[-2], gcvs[-1]
            g_ref = gcvs[0] if gcvs[0] != 0 else 1.0
            lam_prev = lambdas[-2]
            flat = abs(g_now - g_prev) / abs(g_ref) < opts.gcv_flat_tol
            stag = lam_prev > 0 and abs(lam - lam_prev) / lam_prev < opts.lam_stag_tol
            flat_count = flat_count + 1 if (flat or stag) else 0
            if flat_count >= opts.flat_patience:
                stop_reason = "gcv-flat"
                break
        if k >= opts.max_iter:
            stop_reason = "max-iter"
            break

    if z.size:
        x = fact.V_matrix() @ z
        s = mu + fact.QV_matrix() @ z
    else:
        x = np.zeros(A.cols)
        s = mu.copy()

    return SolverResult(
        s=s, x=x, z=z, lam=lam,
        lambda_history=lambdas, residual_history=residuals,
        gcv_history=gcvs, rel_error_history=rel_errs,
        stop_reason=stop_reason or "max-iter",
        iterations=len(lambdas), factorization=fact,
        wall_times=wall_times, op_times=op_times,
    )
