"""Matrix-free linear-operator algebra.

Every solver in this package consumes operators only through forward and
adjoint application plus shape queries.  Concrete operator types cover dense
matrices, sparse matrices, diagonals, scaled identities, Kronecker products
and scalings.  A block-diagonal forward model is one sparse matrix
(``scipy.sparse.block_diag``), or a Kronecker product with an identity when
its blocks repeat.

The public methods of :class:`LinearOperator` check shapes (and the
densification budget) once; concrete types implement private hooks only,
one per action, and every hook acts on a block of columns.  A vector is a
one-column block.  Composite operators reach their factors through the
factors' public block methods only, so a wrapper that overrides those
methods sees every application of the factor it wraps.

Vectorization convention: ``vec`` stacks matrix columns, the one wire
convention of the package.  A Kronecker product ``F_1 (x) ... (x) F_n``
lists its factors slowest first and acts on ``x``, the F-order flattening of
a tensor of shape ``(c_n, ..., c_1)``, with ``F_k`` on axis ``n - k``: so
``Q_t (x) Q_s`` maps ``vec(X)``, ``X`` of shape ``(n_s, n_t)``, to
``vec(Q_s @ X @ Q_t.T)``.

Operators are immutable after construction (internal factorization caches
aside) and safe to share across threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import BudgetExceededError, ConditioningError, ParameterError, ShapeError

# Refusal threshold for materializing operators as dense matrices.
DENSIFY_BUDGET = 4096 * 4096


def _check_vec(v, n):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != n:
        raise ShapeError(f"expected vector of length {n}, got shape {v.shape}")
    return v


def _check_mat(M, n):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != n:
        raise ShapeError(f"expected matrix with {n} rows, got shape {M.shape}")
    return M


class LinearOperator:
    """Base class: a real linear map known through its action on blocks.

    The public methods validate their input once and then call a private
    hook; subclasses override hooks only.  ``_matmat``/``_rmatmat`` are
    required and ``_solve_mat`` serves the SPD operators that support
    solves.  ``apply``, ``apply_adjoint`` and ``solve`` call the block hook
    on the vector as a one-column block and return its column.
    ``_diagonal`` defaults to the diagonal of ``to_dense`` and ``_to_dense``
    to applying the operator to the identity.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative operator shape ({rows}, {cols})")
        self._rows = int(rows)
        self._cols = int(cols)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self):
        return (self._rows, self._cols)

    # -- implementation hooks (inputs already validated) -----------------
    def _matmat(self, M):
        raise NotImplementedError

    def _rmatmat(self, M):
        raise NotImplementedError

    def _solve_mat(self, M):
        raise NotImplementedError(f"{type(self).__name__} does not support solve()")

    def _diagonal(self):
        return np.diag(self.to_dense()).copy()

    def _to_dense(self, budget: int):
        return self._matmat(np.eye(self._cols))

    # -- public application ---------------------------------------------
    def apply(self, v):
        """Return ``op @ v``."""
        return self._matmat(_check_vec(v, self._cols)[:, None])[:, 0]

    def apply_adjoint(self, v):
        """Return ``op.T @ v``."""
        return self._rmatmat(_check_vec(v, self._rows)[:, None])[:, 0]

    def apply_mat(self, M):
        """Apply the operator to each column of the 2-D array ``M``."""
        return self._matmat(_check_mat(M, self._cols))

    def apply_adjoint_mat(self, M):
        """Apply the adjoint to each column of the 2-D array ``M``."""
        return self._rmatmat(_check_mat(M, self._rows))

    def solve(self, v):
        """Return ``op^{-1} @ v`` for SPD operators that support it."""
        return self._solve_mat(_check_vec(v, self._cols)[:, None])[:, 0]

    def solve_mat(self, M):
        """Solve for each column of the 2-D array ``M``."""
        return self._solve_mat(_check_mat(M, self._cols))

    def diagonal(self):
        """Diagonal of the operator (square operators only)."""
        if self._rows != self._cols:
            raise ShapeError("diagonal() requires a square operator")
        return self._diagonal()

    def to_dense(self, budget: int | None = None):
        """Materialize the operator as a dense array, subject to a budget."""
        limit = DENSIFY_BUDGET if budget is None else budget
        if self._rows * self._cols > limit:
            raise BudgetExceededError(
                f"refusing to densify {self._rows}x{self._cols} "
                f"{type(self).__name__} (budget {limit} entries)"
            )
        return self._to_dense(limit)

    def __repr__(self):
        return f"<{type(self).__name__} {self._rows}x{self._cols}>"


class DenseOperator(LinearOperator):
    """Operator backed by an explicit 2-D array."""

    def __init__(self, entries):
        A = np.atleast_2d(np.asarray(entries, dtype=float))
        if A.ndim != 2:
            raise ShapeError("dense operator requires a 2-D array")
        super().__init__(A.shape[0], A.shape[1])
        self.entries = A
        self._chol = None

    def _matmat(self, M):
        return self.entries @ M

    def _rmatmat(self, M):
        return self.entries.T @ M

    def _factor(self):
        if self._chol is None:
            if self._rows != self._cols:
                raise ShapeError("solve() requires a square operator")
            try:
                self._chol = sla.cho_factor(self.entries)
            except sla.LinAlgError as exc:
                w = sla.eigvalsh(0.5 * (self.entries + self.entries.T))
                raise ConditioningError(
                    f"Cholesky factorization failed (min eigenvalue {w[0]:.3e})",
                    min_eig=w[0],
                ) from exc
        return self._chol

    def _solve_mat(self, M):
        return sla.cho_solve(self._factor(), M)

    def _diagonal(self):
        return np.diag(self.entries).copy()

    def _to_dense(self, budget):
        return self.entries.copy()


class SparseOperator(LinearOperator):
    """Operator backed by a scipy sparse matrix (e.g. ray-trace systems)."""

    def __init__(self, matrix):
        M = sp.csr_matrix(matrix)
        super().__init__(M.shape[0], M.shape[1])
        self.matrix = M

    def _matmat(self, M):
        return np.asarray(self.matrix @ M)

    def _rmatmat(self, M):
        return np.asarray(self.matrix.T @ M)

    def _to_dense(self, budget):
        return self.matrix.toarray()


class DiagonalOperator(LinearOperator):
    """Diagonal operator; used for diagonal noise covariances."""

    def __init__(self, diag):
        d = np.asarray(diag, dtype=float).ravel()
        super().__init__(d.size, d.size)
        self.diag = d

    def _matmat(self, M):
        return self.diag[:, None] * M

    _rmatmat = _matmat

    def _solve_mat(self, M):
        return M / self.diag[:, None]

    def _diagonal(self):
        return self.diag.copy()

    def _to_dense(self, budget):
        return np.diag(self.diag)


class ScaledIdentityOperator(DiagonalOperator):
    """sigma^2 * I of a given dimension."""

    def __init__(self, scale: float, n: int):
        if scale <= 0:
            raise ParameterError("scaled identity covariance requires scale > 0")
        super().__init__(np.full(n, float(scale)))
        self.scale = float(scale)


class KroneckerOperator(LinearOperator):
    """Kronecker product ``factors[0] (x) factors[1] (x) ...``, slowest first.

    A ``KroneckerOperator`` argument contributes its own factors, so nested
    and flat constructions build the same operator.  An action calls each
    factor's block method once, fastest first, on the flat F-order block
    viewed as ``(c, -1)``; reading the row-major result back flat moves that
    axis last, and after the slowest factor gives the result in C order.
    """

    def __init__(self, *factors: LinearOperator):
        self.factors = tuple(g for f in factors for g in
                             (f.factors if isinstance(f, KroneckerOperator) else (f,)))
        if len(self.factors) < 2:
            raise ParameterError("a Kronecker product needs at least two factors")
        super().__init__(math.prod(f.rows for f in self.factors),
                         math.prod(f.cols for f in self.factors))

    @property
    def left(self) -> LinearOperator:
        """The slowest factor."""
        return self.factors[0]

    @functools.cached_property
    def right(self) -> LinearOperator:
        """The product of the other factors, or the other factor itself."""
        return self.factors[1] if len(self.factors) == 2 else KroneckerOperator(*self.factors[1:])

    def _act(self, M, method, side, n_out):
        if M.size == 0 or n_out == 0:
            return np.zeros((n_out, M.shape[1]))
        x = M.reshape(-1, order="F")
        for f in reversed(self.factors):
            x = getattr(f, method)(x.reshape(getattr(f, side), -1, order="F")).reshape(-1)
        return x.reshape(n_out, -1)

    def _matmat(self, M):
        return self._act(M, "apply_mat", "cols", self._rows)

    def _rmatmat(self, M):
        return self._act(M, "apply_adjoint_mat", "rows", self._cols)

    def _solve_mat(self, M):
        return self._act(M, "solve_mat", "cols", self._cols)

    def _fold(self, part, kron):
        # a right fold, as nested products associate; a left fold changes bits
        return functools.reduce(lambda acc, f: kron(part(f), acc),
                                self.factors[-2::-1], part(self.factors[-1]))

    def _diagonal(self):
        return self._fold(lambda f: f.diagonal(), lambda a, b: np.outer(a, b).ravel())

    def _to_dense(self, budget):
        return self._fold(lambda f: f.to_dense(budget), np.kron)


class ScaledOperator(LinearOperator):
    """alpha * op."""

    def __init__(self, alpha: float, base: LinearOperator):
        super().__init__(base.rows, base.cols)
        self.alpha = float(alpha)
        self.base = base

    def _matmat(self, M):
        return self.alpha * self.base.apply_mat(M)

    def _rmatmat(self, M):
        return self.alpha * self.base.apply_adjoint_mat(M)

    def _diagonal(self):
        return self.alpha * self.base.diagonal()


def aslinearoperator(x) -> LinearOperator:
    """Wrap an ndarray or sparse matrix; pass LinearOperators through."""
    if isinstance(x, LinearOperator):
        return x
    if sp.issparse(x):
        return SparseOperator(x)
    return DenseOperator(np.asarray(x, dtype=float))
