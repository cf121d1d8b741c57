"""Prior covariance construction.

Builds spatial/temporal/space-time covariance operators from stationary
kernels evaluated on point sets, plus the structured temporal models
(random-walk "minij" covariance, finite-difference smoothness prior, and the
Tikhonov-in-space / smoothness-in-time Kronecker form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.special as special
from scipy.spatial.distance import cdist

from .errors import ParameterError
from .linop import DenseOperator, KroneckerOperator, ScaledIdentityOperator, LinearOperator

DEFAULT_NUGGET = 1e-10
# Above this smoothness the kernel is numerically Gaussian; switch to the limit.
GAUSSIAN_LIMIT_NU = 1e4


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MaternKernel:
    """Matern correlation kernel with smoothness ``nu`` and length scale ``ell``."""

    nu: float
    ell: float

    def __post_init__(self):
        if self.nu <= 0 or self.ell <= 0:
            raise ParameterError("Matern kernel requires nu > 0 and ell > 0")

    def __call__(self, r):
        return matern_eval(self, r)


@dataclass(frozen=True)
class GammaExpKernel:
    """gamma-exponential kernel exp(-(r/ell)^gamma), 0 < gamma <= 2."""

    gamma: float
    ell: float

    def __post_init__(self):
        if not (0 < self.gamma <= 2):
            raise ParameterError("gamma-exponential kernel requires gamma in (0, 2]")
        if self.ell <= 0:
            raise ParameterError("gamma-exponential kernel requires ell > 0")

    def __call__(self, r):
        return gamma_exp_eval(self, r)


def _matern_half_integer(p: int, z):
    # C = exp(-z) * (p! / (2p)!) * sum_i (p+i)!/(i!(p-i)!) (2z)^(p-i), z = sqrt(2 nu) r / ell
    acc = np.zeros_like(z)
    for i in range(p + 1):
        coeff = math.factorial(p + i) / (math.factorial(i) * math.factorial(p - i))
        acc += coeff * (2.0 * z) ** (p - i)
    return np.exp(-z) * (math.factorial(p) / math.factorial(2 * p)) * acc


def matern_eval(kernel: MaternKernel, r):
    """Evaluate the Matern correlation at distance(s) ``r >= 0``.

    Half-integer smoothness uses the exact exponential-times-polynomial
    closed form; other values use modified-Bessel evaluation in log space;
    very large ``nu`` uses the Gaussian limit exp(-r^2 / (2 ell^2)).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ParameterError("distances must be nonnegative")
    nu, ell = kernel.nu, kernel.ell
    scalar = r.ndim == 0
    r = np.atleast_1d(r)

    if nu >= GAUSSIAN_LIMIT_NU:
        out = np.exp(-(r ** 2) / (2.0 * ell ** 2))
    else:
        z = np.sqrt(2.0 * nu) * r / ell
        two_nu = 2.0 * nu
        if abs(two_nu - round(two_nu)) < 1e-12 and round(two_nu) % 2 == 1:
            p = int(round(nu - 0.5))
            out = _matern_half_integer(p, z)
        else:
            out = np.ones_like(z)
            pos = z > 0
            zp = z[pos]
            # log-space product avoids overflow of K_nu for small z / large nu
            log_c = ((1.0 - nu) * np.log(2.0) - special.gammaln(nu)
                     + nu * np.log(zp) + np.log(special.kve(nu, zp)) - zp)
            out[pos] = np.exp(log_c)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def gamma_exp_eval(kernel: GammaExpKernel, r):
    """Evaluate exp(-(r/ell)^gamma) at distance(s) ``r >= 0``."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ParameterError("distances must be nonnegative")
    out = np.exp(-((r / kernel.ell) ** kernel.gamma))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# Point sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointSet:
    """Spatial locations or scalar times, one row per point."""

    coordinates: np.ndarray

    @staticmethod
    def from_coords(coords) -> "PointSet":
        P = np.asarray(coords, dtype=float)
        if P.ndim == 1:
            P = P[:, None]
        if P.size == 0:
            raise ParameterError("point set must be nonempty")
        return PointSet(P)

    @staticmethod
    def regular_grid_2d(nx: int, ny: int) -> "PointSet":
        """Unit-square grid of nx*ny points, column-stacked to match vec order."""
        xs = np.linspace(0.0, 1.0, nx)
        ys = np.linspace(0.0, 1.0, ny)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        # column j of the image varies fastest in y: index = ix*ny + iy
        coords = np.column_stack([X.T.ravel(), Y.T.ravel()])
        return PointSet(coords)

    def __len__(self):
        return self.coordinates.shape[0]


# ----------------------------------------------------------------------
# Covariance builders
# ----------------------------------------------------------------------

def build_kernel_matrix(kernel, points: PointSet, nugget: float = DEFAULT_NUGGET) -> DenseOperator:
    """Dense SPD kernel matrix K_ij = kernel(||p_i - p_j||) + nugget on the diagonal."""
    if nugget < 0:
        raise ParameterError("nugget must be nonnegative")
    P = points.coordinates
    D = cdist(P, P)
    M = kernel(D.ravel()).reshape(D.shape)
    M = 0.5 * (M + M.T)
    M[np.diag_indices_from(M)] += nugget
    op = DenseOperator(M)
    op._factor()
    return op


def build_minij_prior(n_t: int):
    """Random-walk temporal covariance: Q_t[i,j] = min{i+1, j+1} and its tridiagonal inverse."""
    if n_t < 1:
        raise ParameterError("n_t must be >= 1")
    idx = np.arange(1, n_t + 1)
    Q = np.minimum.outer(idx, idx).astype(float)
    Qinv = np.zeros((n_t, n_t))
    np.fill_diagonal(Qinv, 2.0)
    Qinv[-1, -1] = 1.0
    ii = np.arange(n_t - 1)
    Qinv[ii, ii + 1] = -1.0
    Qinv[ii + 1, ii] = -1.0
    return DenseOperator(Q), DenseOperator(Qinv)


def build_fd_temporal(t, gamma: float):
    """Finite-difference temporal smoothness prior.

    Returns ``L_t`` (forward differences scaled by 1/dt) and the dense SPD
    covariance ``Q_t = (L_t.T L_t + gamma I)^{-1}``.
    """
    t = np.asarray(t, dtype=float).ravel()
    if t.size < 2:
        raise ParameterError("need at least two time points")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ParameterError("time points must be strictly increasing")
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    n_t = t.size
    L = np.zeros((n_t - 1, n_t))
    inv_dt = 1.0 / dt
    L[np.arange(n_t - 1), np.arange(n_t - 1)] = inv_dt
    L[np.arange(n_t - 1), np.arange(1, n_t)] = -inv_dt
    Q = sla.inv(L.T @ L + gamma * np.eye(n_t))
    Q = 0.5 * (Q + Q.T)
    return DenseOperator(L), DenseOperator(Q)


def build_schmitt_prior(lambda_s: float, lambda_t: float, L_t, n_s: int) -> KroneckerOperator:
    """Temporal-smoothness / spatial-Tikhonov prior as a Kronecker covariance.

    Q = Q_t (x) Q_s with Q_t = (I + (lambda_t/lambda_s)^2 L_t.T L_t)^{-1}
    and Q_s = lambda_s^{-2} I.
    """
    if lambda_s <= 0:
        raise ParameterError("lambda_s must be positive")
    if lambda_t < 0:
        raise ParameterError("lambda_t must be nonnegative")
    L = L_t.to_dense() if isinstance(L_t, LinearOperator) else np.asarray(L_t, dtype=float)
    n_t = L.shape[1]
    Qt = sla.inv(np.eye(n_t) + (lambda_t / lambda_s) ** 2 * (L.T @ L))
    Qt = 0.5 * (Qt + Qt.T)
    return KroneckerOperator(DenseOperator(Qt),
                             ScaledIdentityOperator(lambda_s ** -2, n_s))


@dataclass(frozen=True)
class NonseparableKernel:
    """Space-time kernel base(sqrt(c1 ||dp||^2 + c2 |dt|^2))."""

    base: object
    c1: float = 1.0
    c2: float = 0.0

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ParameterError("nonseparable weights must be nonnegative")


def build_nonseparable_Q(kernel: NonseparableKernel, space_points: PointSet,
                         time_points: PointSet, nugget: float = DEFAULT_NUGGET) -> DenseOperator:
    """Dense SPD space-time covariance on the combined weighted distance.

    Row/column ordering is column-stacked: spatial index varies fastest.
    Desk-scale only; cannot be represented as a Kronecker product.
    """
    P = space_points.coordinates
    T = time_points.coordinates.ravel()
    n_s, n_t = len(space_points), T.size
    Ds2 = cdist(P, P) ** 2
    Dt2 = np.subtract.outer(T, T) ** 2
    # combined distance on the (n_s*n_t) x (n_s*n_t) grid, spatial fastest
    D = np.sqrt(
        kernel.c1 * np.tile(Ds2, (n_t, n_t))
        + kernel.c2 * np.repeat(np.repeat(Dt2, n_s, axis=0), n_s, axis=1)
    )
    M = kernel.base(D.ravel()).reshape(D.shape)
    M = 0.5 * (M + M.T)
    M[np.diag_indices_from(M)] += nugget
    op = DenseOperator(M)
    op._factor()
    return op


def build_product_sum_Q(a0, a1, a2, Qt0, Qs0, Qs1, Qt2):
    """Product-sum covariance a0 Qt0 (x) Qs0 + a1 I_t (x) Qs1 + a2 Qt2 (x) I_s.

    The coefficients have no principled defaults; they are raw configuration.
    """
    from .linop import SumKroneckerOperator, identity
    if min(a0, a1, a2) < 0:
        raise ParameterError("product-sum coefficients must be nonnegative")
    n_t, n_s = Qt0.rows, Qs0.rows
    terms = []
    if a0 > 0:
        terms.append((a0, Qt0, Qs0))
    if a1 > 0:
        terms.append((a1, identity(n_t), Qs1))
    if a2 > 0:
        terms.append((a2, Qt2, identity(n_s)))
    if not terms:
        raise ParameterError("at least one product-sum coefficient must be positive")
    return SumKroneckerOperator(terms)


# ----------------------------------------------------------------------
# Prior model
# ----------------------------------------------------------------------

@dataclass
class PriorModel:
    """Prior mean plus covariance operator (without the lambda^-2 scale).

    The precision scale lambda lives entirely in the solver.
    """

    mean: np.ndarray
    Q: LinearOperator

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        if self.mean.size != self.Q.cols:
            raise ParameterError(
                f"prior mean length {self.mean.size} does not match Q dimension {self.Q.cols}"
            )

    @staticmethod
    def zero_mean(Q: LinearOperator) -> "PriorModel":
        return PriorModel(np.zeros(Q.cols), Q)


def build_temporal_prior(variant: str, *, n_t: int | None = None, t=None,
                         kernel=None, gamma: float = 1e-3,
                         nugget: float = DEFAULT_NUGGET) -> DenseOperator:
    """Dispatch on the temporal-prior variant tag used by the CLI config."""
    if variant == "identity":
        if n_t is None:
            raise ParameterError("identity temporal prior requires n_t")
        return DenseOperator(np.eye(n_t))
    if variant == "minij":
        if n_t is None:
            raise ParameterError("minij temporal prior requires n_t")
        Q, _ = build_minij_prior(n_t)
        return Q
    if variant == "fd":
        if t is None:
            raise ParameterError("finite-difference temporal prior requires time points")
        _, Q = build_fd_temporal(t, gamma)
        return Q
    if variant == "kernel":
        if t is None or kernel is None:
            raise ParameterError("kernel temporal prior requires time points and a kernel")
        return build_kernel_matrix(kernel, PointSet.from_coords(t), nugget)
    raise ParameterError(f"unknown temporal prior variant {variant!r}")
