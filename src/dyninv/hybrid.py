"""Simultaneous hybrid solver.

Projects the change-of-variables problem onto the gen-GK subspace, solves the
small regularized bidiagonal least-squares problem, selects the regularization
parameter automatically per iteration (weighted GCV, which is plain GCV at
weight 1, a fixed value, or the truth-based optimal parameter), and recovers
the reconstruction by undoing the change of variables: s_k = mu + Q V_k z_k.
Given a truth, one Gram matrix of Q V_k (``TruthError``) gives the masked
error at every lambda: Optimal minimizes it, and ``rel_error`` reports it.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from . import gengk as gk
from .linop import LinearOperator
from .priorcov import PriorModel

# lambda search window relative to the largest singular value of B_k
LAMBDA_LO_FACTOR = 1e-12
LAMBDA_HI_FACTOR = 1e3
LAMBDA_GRID_POINTS = 200
# at most this many zoom rounds follow the grid; a round over the bracket of
# the previous minimum narrows the log-lambda spacing by
# (LAMBDA_ZOOM_POINTS - 1) / 2, so 14 such rounds of 17 points take the
# grid's spacing of 0.17 down to about 4e-14.  Near a smooth minimum a round
# spans only LAMBDA_VERTEX_MARGIN times the step between the last two
# parabola vertices on either side of the newer one, which converges
# superlinearly.  The search stops early at the first round (the grid
# included) whose values all lie within LAMBDA_FLAT_RTOL of its minimum:
# later rounds could only move lambda inside a cell where the objective is
# flat to rounding.  A narrowed round spans only part of the bracket, so a
# flat one is followed by one round over the whole bracket, and the search
# stops there unless that round finds a value lower by more than
# LAMBDA_FLAT_RTOL.
LAMBDA_ZOOM_ROUNDS = 14
LAMBDA_ZOOM_POINTS = 17
LAMBDA_VERTEX_MARGIN = 4.0
LAMBDA_FLAT_RTOL = 16 * np.finfo(float).eps
# point indices of a grid and of a zoom round, as np.linspace spaces them
_GRID_STEPS = np.arange(LAMBDA_GRID_POINTS, dtype=float)
_ZOOM_STEPS = np.arange(LAMBDA_ZOOM_POINTS, dtype=float)


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

class Fit(NamedTuple):
    """What ``ProjectedProblem.fit`` gives for one lambda, or for an array
    of them (one row or entry per lambda)."""

    f: np.ndarray         # coefficients of z(lam) = Vt' f
    misfit: np.ndarray    # ||B z(lam) - beta1 e1||_2
    gcv: np.ndarray       # the (weighted) GCV value


@dataclass
class ProjectedProblem:
    """SVD view of the (k+1) x k bidiagonal, reused across lambda values.

    ``fit`` gives the coefficients, the misfit and the GCV value from one
    filter evaluation, so lambda = 0 means the same truncated (minimum-norm)
    solution in all three.  The Tikhonov solution of
    min ||B z - beta1 e1||^2 + lam^2 ||z||^2 is z = Vt' f.
    """

    B: np.ndarray
    beta1: float
    s: np.ndarray = field(init=False)
    Vt: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)  # components of beta1*e1 in the left singular basis

    def __post_init__(self):
        U, self.s, self.Vt = np.linalg.svd(self.B, full_matrices=True)
        self.c = self.beta1 * U[0, :]
        s = self.s
        self._s2 = s ** 2
        self._c2_head = self.c[: s.size] ** 2
        self._c_tail_sq = float(np.sum(self.c[s.size:] ** 2))
        # singular values kept by the unregularized (lambda = 0) solution
        cutoff = s[0] * np.finfo(float).eps * max(self.B.shape) if s.size else 0.0
        self._kept = s > cutoff
        self._dropped = ~self._kept
        self._c_over_s = np.divide(self.c[: s.size], s, out=np.zeros_like(s),
                                   where=s > 0)
        self._sc = s * self.c[: s.size]

    @classmethod
    def of(cls, fact: gk.GenGKFactorization) -> ProjectedProblem:
        """The projected problem of ``fact``'s newest B_k, with one SVD per k.

        The factorization keeps the last one built and returns it while its
        k is current.  That is exact: steps and restarts only append to the
        factorization, so B_k never changes after its step.
        """
        proj = fact._projected
        if proj is None or proj.k != fact.k:
            proj = fact._projected = cls(fact.bidiagonal(), fact.beta1)
        return proj

    @property
    def k(self) -> int:
        return self.B.shape[1]

    def fit(self, lam, w: float = 1.0) -> Fit:
        """Coefficients f of z(lam) = Vt' f, the misfit and the (weighted) GCV
        value from one filter evaluation, for one lambda or an array of them.

        The filters phi = s^2 / (s^2 + lam^2), in f = phi c / s
        = s c / (s^2 + lam^2), and psi = 1 - phi = lam^2 / (s^2 + lam^2) are
        formed without cancellation.  At lam = 0 the solution is the
        minimum-norm one on the singular values above s_max * eps *
        max(B.shape): phi is 1 on the kept singular values and psi 1 on the
        dropped ones.  A lambda search passes positive lambdas only, which
        skip that branch.
        """
        lam2 = np.square(np.asarray(lam, dtype=float))[..., None]
        if lam2.all():
            denom = self._s2 + lam2
            psi, f = lam2 / denom, self._sc / denom
        else:
            zero = lam2 == 0
            denom = self._s2 + np.where(zero, 1.0, lam2)
            psi = np.where(zero, self._dropped, lam2 / denom)
            f = np.where(zero, self._kept * self._c_over_s, self._sc / denom)
        res_sq = self._residual_sq(psi)
        return Fit(f, np.sqrt(res_sq), self._gcv(psi, res_sq, w))

    def _residual_sq(self, psi):
        return psi ** 2 @ self._c2_head + self._c_tail_sq

    def _gcv(self, psi, res_sq, w):
        # the trace term sum(phi) is k - sum(psi), at lam = 0 too
        denom = (self.k + 1) - w * (self.k - psi.sum(axis=-1))
        return self.k * res_sq / denom ** 2


class TruthError:
    """The error ||P (mu + Q V_k z(lam) - s_true)|| of a solve with a known
    truth, evaluated without forming an n-vector per lambda.

    P is the 0/1 diagonal of ``mask``, or the identity without one.  With
    r0 = P (mu - s_true), G = (Q V)' P (Q V) and g = (Q V)' r0, a projected
    problem with z(lam) = Vt' f(lam) has
    err(lam)^2 = ||r0||^2 + 2 h' f + f' M f, where M = Vt G Vt' and h = Vt g.
    G and g grow by one column per gen-GK step at O(n) cost per entry.
    """

    def __init__(self, mu, s_true, max_steps: int, mask=None):
        s_true = np.asarray(s_true, dtype=float).ravel()
        self.r0 = np.asarray(mu, dtype=float).ravel() - s_true
        self.mask = None if mask is None else np.asarray(mask, dtype=bool).ravel()
        if self.mask is not None:
            self.r0 *= self.mask
            s_true = s_true[self.mask]
        self.r0_sq = float(self.r0 @ self.r0)
        self.true_norm = np.linalg.norm(s_true)  # ||P s_true||; numpy float: x/0 = inf
        self.G = np.empty((max_steps, max_steps))
        self.g = np.empty(max_steps)
        self.k = 0

    def extend(self, QV: np.ndarray) -> None:
        """Bring G and g up to the columns of ``QV``, whose first ``self.k``
        columns are the ones already seen."""
        k0, k = self.k, QV.shape[1]
        new = QV[:, k0:k]
        if self.mask is not None:
            new = new * self.mask[:, None]  # P new; P is idempotent
        self.G[:k, k0:k] = QV.T @ new
        self.G[k0:k, :k0] = self.G[:k0, k0:k].T
        self.g[k0:k] = new.T @ self.r0
        self.k = k

    def objective(self, proj: ProjectedProblem) -> _ProjectedError:
        """err for ``proj``: called on an array of positive lambdas (a search
        round), or ``at`` the coefficients f of one lambda."""
        k = proj.k
        if k > self.k:
            raise ParameterError(f"TruthError holds {self.k} columns of Q V, "
                                 f"the projected problem needs {k}")
        return _ProjectedError(proj, self.r0_sq, proj.Vt @ self.G[:k, :k] @ proj.Vt.T,
                               2.0 * (proj.Vt @ self.g[:k]))


@dataclass(frozen=True)
class _ProjectedError:
    """The truth error of one projected problem, err(lam)^2 =
    ||r0||^2 + 2 h' f + f' M f, where h2 = 2 h."""

    proj: ProjectedProblem
    r0_sq: float
    M: np.ndarray
    h2: np.ndarray

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return self.at(self.proj.fit(lam).f)

    def at(self, F: np.ndarray):
        """err for coefficients f of z = Vt' f, one row per lambda."""
        sq = self.r0_sq + (F * (self.h2 + F @ self.M)).sum(axis=-1)
        return np.sqrt(np.maximum(sq, 0.0))


# ----------------------------------------------------------------------
# Lambda selection
# ----------------------------------------------------------------------

def minimize_over_lambda(f, s_max: float) -> float:
    """Minimize ``f`` over lambda in [1e-12 s_max, 1e3 s_max] by log-grid zoom.

    ``f`` takes an array of positive lambdas and returns one value per
    lambda.  Each round evaluates it once, on a log grid: first
    LAMBDA_GRID_POINTS points over the whole window, then LAMBDA_ZOOM_POINTS
    points per zoom round.  A zoom round spans the bracket that the best
    point of the previous round and its two neighbours give, or, once two
    successive rounds have given parabola vertices through their best three
    points, only LAMBDA_VERTEX_MARGIN times the distance between those
    vertices on either side of the newer one.  A narrowed round whose minimum
    lies on its own edge missed the minimizer, and the next round spans what
    is left of the bracket on that side.  The search stops after the first
    round over the whole bracket (the grid included) whose values all lie
    within LAMBDA_FLAT_RTOL of that round's minimum, at a zoom round whose
    minimum is an end of the window, or after LAMBDA_ZOOM_ROUNDS zoom
    rounds.  A flat narrowed round is followed by a round over the whole
    bracket, which ends the search too unless it finds a value lower than
    the flat round's minimum by more than LAMBDA_FLAT_RTOL.
    The result is the best lambda seen; ties resolve to the smallest
    minimizing lambda.
    """
    if s_max <= 0:
        return 0.0
    lo, hi = np.log(LAMBDA_LO_FACTOR * s_max), np.log(LAMBDA_HI_FACTOR * s_max)
    a, b = lo, hi          # the round's span
    br_a, br_b = lo, hi    # bracket of the minimizer
    steps = _GRID_STEPS
    best_lam, best_val = 0.0, np.inf
    vertex = None          # the previous round's parabola vertex
    narrowed = False       # the round spans less than the bracket
    confirm = None         # best value of a flat narrowed round, to confirm
    for zoom in range(1 + LAMBDA_ZOOM_ROUNDS):
        n = steps.size
        x = steps * ((b - a) / (n - 1)) + a
        x[-1] = b  # the exact endpoint, as np.linspace sets it
        lam = np.exp(x)
        vals = f(lam)
        i = int(np.argmin(vals))  # argmin returns the first (smallest-lambda) minimizer
        # <= moves an equal value to the smaller lambda a later round found
        if vals[i] <= best_val:
            best_lam, best_val = float(lam[i]), vals[i]
        tol = LAMBDA_FLAT_RTOL * abs(vals[i])
        if confirm is not None and vals[i] >= confirm - tol:
            break  # nothing in the whole bracket is lower
        confirm = None
        if vals.max() - vals[i] <= tol:
            if not narrowed:
                break
            # flat only in the part of the bracket that the round spans
            a, b, vertex, narrowed, confirm = br_a, br_b, None, False, vals[i]
        elif i == 0 or i == n - 1:
            if zoom and x[i] in (lo, hi):
                break  # the minimum is an end of the window
            # the minimizer lies between the bracket's end on this side and
            # the edge point's neighbour
            br_a, br_b = (br_a, x[1]) if i == 0 else (x[-2], br_b)
            a, b, vertex, narrowed = br_a, br_b, None, False
        else:
            a, b = br_a, br_b = x[i - 1], x[i + 1]
            # vertex of the parabola through the best point and its
            # neighbours; vals[i - 1] > vals[i] <= vals[i + 1], so it lies
            # within half a step of x[i]
            fl, f0, fr = vals[i - 1], vals[i], vals[i + 1]
            new_vertex = x[i] + 0.5 * (x[i + 1] - x[i]) * (fl - fr) / (fl - 2.0 * f0 + fr)
            if vertex is not None:
                half = LAMBDA_VERTEX_MARGIN * abs(new_vertex - vertex)
                a, b = max(new_vertex - half, br_a), min(new_vertex + half, br_b)
                narrowed = a > br_a or b < br_b
            vertex = new_vertex
        steps = _ZOOM_STEPS
    return best_lam


def select_lambda(strategy, proj: ProjectedProblem, error=None) -> float:
    """Pick the iteration's regularization parameter under a strategy.

    Optimal needs ``error``, the truth error of ``proj`` as a function of
    lambda (``TruthError.objective``), and minimizes it.
    """
    if isinstance(strategy, Fixed):
        return strategy.lam
    s_max = proj.s[0] if proj.s.size else 0.0
    if isinstance(strategy, WGCV):
        return minimize_over_lambda(lambda l: proj.fit(l, strategy.w).gcv, s_max)
    if isinstance(strategy, Optimal):
        if error is None:
            raise ParameterError("Optimal strategy requires its error objective")
        return minimize_over_lambda(error, s_max)
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
    # entries of s that rel_error and the Optimal search count; None counts all
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
    rel_error: float | None    # against the truth on error_mask; None without one
    wall_s: float              # the whole iteration
    step_s: float              # gengk_step, plus initialization on the first


@dataclass
class SolverResult:
    s: np.ndarray
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
    stagnation (WGCV only).  Under Optimal, s_true must be None or its truth.
    """
    opts = options or SolverOptions()
    if isinstance(strategy, Optimal):
        if s_true is not None and not np.array_equal(s_true, strategy.s_true):
            raise ParameterError("s_true differs from the Optimal strategy's truth")
        s_true = strategy.s_true
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
    error = None if s_true is None else TruthError(mu, s_true, max_steps,
                                                   opts.error_mask)
    err = None

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

        proj = ProjectedProblem.of(fact)
        if error is not None:
            error.extend(fact.QV_matrix(k))
            err = error.objective(proj)
        lam = select_lambda(strategy, proj, err)
        f, misfit, gcv = proj.fit(lam, strategy.w if isinstance(strategy, WGCV) else 1.0)
        z = proj.Vt.T @ f
        history.append(Iteration(
            lam=lam, misfit=misfit,
            qnorm=float(np.linalg.norm(z)),  # ||x||_Q equals ||z|| in the gen-GK basis
            gcv=gcv,
            rel_error=None if err is None else float(err.at(f) / error.true_norm),
            wall_s=time.perf_counter() - t_it, step_s=step_s))

        if fact.breakdown is not None:
            stop_reason = "breakdown"
        elif isinstance(strategy, WGCV) and _gcv_flat(history, opts):
            stop_reason = "gcv-flat"
        elif k >= opts.max_iter:
            stop_reason = "max-iter"

    s = mu + fact.QV_matrix() @ z if z.size else mu.copy()
    return SolverResult(s=s, lam=lam, history=history,
                        stop_reason=stop_reason, factorization=fact)
