"""Prior covariance construction.

Every dense kernel covariance comes from ``build_kernel_matrix``: a
stationary kernel, called on distances, evaluated between the points of a
``PointSet``.  Spatial and temporal covariances use spatial or time points;
the nonseparable space-time covariance uses ``PointSet.space_time``, whose
weighted coordinates make the Euclidean distance the combined one.  The
distances are formed in numpy, bit for bit as ``scipy.spatial.distance.cdist``
forms them.  ``scipy.special`` is imported only when a Matern kernel takes
its modified-Bessel branch (a smoothness below ``GAUSSIAN_LIMIT_NU`` that is
not a half-integer), so ``import dyninv`` loads neither module.  The
structured temporal models (random-walk "minij" covariance and
finite-difference smoothness prior) are built directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ParameterError
from .linop import DenseOperator, LinearOperator

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
        """Evaluate the Matern correlation at distance(s) ``r >= 0``.

        Half-integer smoothness uses the exact exponential-times-polynomial
        closed form; other values use modified-Bessel evaluation in log space;
        very large ``nu`` uses the Gaussian limit exp(-r^2 / (2 ell^2)).
        """
        r = _distances(r)
        nu, ell = self.nu, self.ell
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
                # imported here, its only use, so `import dyninv` does not load it
                import scipy.special as special
                out = np.ones_like(z)
                pos = z > 0
                zp = z[pos]
                # log-space product avoids overflow of K_nu for small z / large nu
                log_c = ((1.0 - nu) * np.log(2.0) - special.gammaln(nu)
                         + nu * np.log(zp) + np.log(special.kve(nu, zp)) - zp)
                out[pos] = np.exp(log_c)
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out


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
        """Evaluate exp(-(r/ell)^gamma) at distance(s) ``r >= 0``."""
        out = np.exp(-((_distances(r) / self.ell) ** self.gamma))
        return float(out) if out.ndim == 0 else out


def _distances(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ParameterError("distances must be nonnegative")
    return r


def _matern_half_integer(p: int, z):
    # C = exp(-z) * (p! / (2p)!) * sum_i (p+i)!/(i!(p-i)!) (2z)^(p-i), z = sqrt(2 nu) r / ell
    acc = np.zeros_like(z)
    for i in range(p + 1):
        coeff = math.factorial(p + i) / (math.factorial(i) * math.factorial(p - i))
        acc += coeff * (2.0 * z) ** (p - i)
    return np.exp(-z) * (math.factorial(p) / math.factorial(2 * p)) * acc


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

    @staticmethod
    def space_time(space: "PointSet", times, c1: float = 1.0,
                   c2: float = 0.0) -> "PointSet":
        """Space-time points [sqrt(c1) p, sqrt(c2) t], spatial index fastest.

        The Euclidean distance between two of them is
        sqrt(c1 ||dp||^2 + c2 |dt|^2), so ``build_kernel_matrix`` over this
        set is the nonseparable space-time covariance.  Desk-scale only: it
        cannot be represented as a Kronecker product.
        """
        if c1 < 0 or c2 < 0:
            raise ParameterError("space-time weights c1, c2 must be nonnegative")
        T = np.asarray(times, dtype=float).ravel()
        P = space.coordinates
        return PointSet(np.column_stack([
            np.tile(math.sqrt(c1) * P, (T.size, 1)),
            np.repeat(math.sqrt(c2) * T, len(space))]))

    def __len__(self):
        return self.coordinates.shape[0]


# ----------------------------------------------------------------------
# Covariance builders
# ----------------------------------------------------------------------

def build_kernel_matrix(kernel, points: PointSet, nugget: float = DEFAULT_NUGGET) -> DenseOperator:
    """Dense SPD kernel matrix K_ij = kernel(||p_i - p_j||) + nugget on the diagonal."""
    if nugget < 0:
        raise ParameterError("nugget must be nonnegative")
    n = len(points)
    # sum the squared coordinate differences in coordinate order, as
    # scipy.spatial.distance.cdist does, so the distances keep its bits
    D = np.zeros((n, n))
    sq = np.empty((n, n))
    for x in points.coordinates.T:
        np.subtract.outer(x, x, out=sq)
        sq *= sq
        D += sq
    del sq  # freed before the kernel makes its own n x n temporaries
    np.sqrt(D, out=D)
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

    Returns the dense SPD covariance ``Q_t = (L_t.T L_t + gamma I)^{-1}``,
    with ``L_t`` the forward differences scaled by 1/dt.
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
    return DenseOperator(Q)


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

