import functools

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from dyninv import decoupled, linop, problems
from dyninv.errors import BudgetExceededError, ParameterError, ShapeError
from dyninv.linop import (DenseOperator, DiagonalOperator, KroneckerOperator,
                          LinearOperator, ScaledIdentityOperator, ScaledOperator,
                          SparseOperator, aslinearoperator)
from dyninv.priorcov import PriorModel

from conftest import random_spd


def test_dense_apply_column_extraction():
    op = DenseOperator([[1, 2], [3, 4]])
    npt.assert_allclose(op.apply([1, 0]), [1, 3])
    npt.assert_allclose(op.apply_adjoint([1, 0]), [1, 2])


def test_scaled_identity_apply():
    op = ScaledIdentityOperator(4.0, 3)
    npt.assert_allclose(op.apply([1, 2, 3]), [4, 8, 12])
    npt.assert_allclose(op.to_dense(), 4.0 * np.eye(3))
    npt.assert_allclose(ScaledIdentityOperator(2.0, 2).to_dense(), 2.0 * np.eye(2))


def test_kronecker_matvec_example():
    # Kron([[1,0],[0,2]], [[2,1],[1,2]]) applied to vec(I_2) = (1,0,0,1)
    Qt = DenseOperator([[1, 0], [0, 2]])
    Qs = DenseOperator([[2, 1], [1, 2]])
    K = KroneckerOperator(Qt, Qs)
    v = np.array([1.0, 0.0, 0.0, 1.0])
    npt.assert_allclose(K.apply(v), [2, 1, 2, 4])
    # adjoint agrees with the dense Kronecker product transpose
    dense = np.kron(Qt.entries, Qs.entries)
    w = np.array([2.0, 1.0, 2.0, 4.0])
    npt.assert_allclose(K.apply_adjoint(w), dense.T @ w)


def test_kronecker_to_dense_example():
    K = KroneckerOperator(DenseOperator([[1, 1], [0, 1]]), DenseOperator([[2]]))
    npt.assert_allclose(K.to_dense(), [[2, 2], [0, 2]])


def test_kron_matvec_identity_and_scalar():
    x = np.arange(4.0)
    I2 = ScaledIdentityOperator(1.0, 2)
    npt.assert_allclose(KroneckerOperator(I2, I2).apply(x), x)
    Qs = np.array([[1.0, 2.0], [3.0, 4.0]])
    K = KroneckerOperator(DenseOperator([[3.0]]), DenseOperator(Qs))
    npt.assert_allclose(K.apply([1.0, 1.0]), 3.0 * Qs @ [1.0, 1.0])


def test_kronecker_agreement_random(rng):
    # 2, 3 and 4 rectangular factors, on a vector and on a 4-column block
    for n_factors in (2, 2, 3, 3, 4):
        mats = [rng.standard_normal(shape)
                for shape in rng.integers(2, 6 if n_factors > 2 else 9, size=(n_factors, 2))]
        K = KroneckerOperator(*map(DenseOperator, mats))
        dense = functools.reduce(np.kron, mats)
        assert len(K.factors) == n_factors
        npt.assert_allclose(K.to_dense(), dense, rtol=1e-14, atol=1e-14)
        for p in (1, 4):
            X = rng.standard_normal((K.cols, p))
            Y = rng.standard_normal((K.rows, p))
            npt.assert_allclose(K.apply_mat(X), dense @ X, rtol=1e-12, atol=1e-12)
            npt.assert_allclose(K.apply_adjoint_mat(Y), dense.T @ Y, rtol=1e-12, atol=1e-12)
        x = rng.standard_normal(K.cols)
        y = rng.standard_normal(K.rows)
        npt.assert_allclose(K.apply(x), dense @ x, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(K.apply_adjoint(y), dense.T @ y, rtol=1e-12, atol=1e-12)


def test_kronecker_solve_and_diagonal(rng):
    # two and three SPD factors
    for sizes in ((3, 4), (2, 3, 4)):
        mats = [random_spd(rng, n) for n in sizes]
        K = KroneckerOperator(*map(DenseOperator, mats))
        dense = functools.reduce(np.kron, mats)
        x = rng.standard_normal(K.cols)
        npt.assert_allclose(K.solve(dense @ x), x, rtol=1e-9, atol=1e-10)
        npt.assert_allclose(K.diagonal(), np.diag(dense), rtol=1e-13)


def test_nested_and_flat_kronecker_are_one_operator(rng):
    # a Kronecker factor contributes its own factors, slowest first; left and
    # right split off the slowest factor as the decoupled solver does
    Qt, Qx, Qy = (DenseOperator(random_spd(rng, n)) for n in (2, 3, 4))
    flat = KroneckerOperator(Qt, Qx, Qy)
    assert flat.factors == (Qt, Qx, Qy)
    x = rng.standard_normal(flat.cols)
    X = rng.standard_normal((flat.cols, 4))
    for op in (KroneckerOperator(Qt, KroneckerOperator(Qx, Qy)),
               KroneckerOperator(KroneckerOperator(Qt, Qx), Qy),
               KroneckerOperator(flat)):
        assert op.factors == flat.factors and op.shape == flat.shape
        for action in (lambda K: K.apply(x), lambda K: K.apply_mat(X),
                       lambda K: K.apply_adjoint_mat(X), lambda K: K.solve(x),
                       lambda K: K.solve_mat(X), lambda K: K.diagonal(),
                       lambda K: K.to_dense()):
            assert np.array_equal(action(op), action(flat))
    assert flat.left is Qt
    assert isinstance(flat.right, KroneckerOperator) and flat.right.factors == (Qx, Qy)
    assert KroneckerOperator(Qx, Qy).right is Qy

    inst = problems.gen_dynamic_deblur(5, 4, 3, seed=1)
    prior = PriorModel.zero_mean(flat)
    At, As, _, _, Qt_split, Qs_split = decoupled.kronecker_factors(inst, prior)
    assert At is inst.A.factors[0] and As.factors == inst.A.factors[1:]
    assert Qt_split is Qt and Qs_split.factors == (Qx, Qy)
    for factors in ((), (Qt,)):
        with pytest.raises(ParameterError):
            KroneckerOperator(*factors)


def test_kronecker_vector_action_copies_nothing(rng):
    # on one column each factor acts on a view of the input or of the output
    # of the factor before it, and the result is a view of the last output
    seen = []

    class Recording(DenseOperator):
        def _matmat(self, M):
            seen.append((M, super()._matmat(M)))
            return seen[-1][1]

    K = KroneckerOperator(*(Recording(rng.standard_normal((n, n + 1))) for n in (2, 3, 4)))
    v = rng.standard_normal((K.cols, 1))
    y = K.apply_mat(v)
    assert len(seen) == 3 and np.shares_memory(seen[0][0], v)
    for (_, before), (M, _) in zip(seen, seen[1:]):
        assert np.shares_memory(M, before)
    assert np.shares_memory(y, seen[-1][1])
    npt.assert_allclose(y, K.to_dense() @ v, rtol=1e-12, atol=1e-12)


def test_block_diag_equals_kron_with_identity(rng):
    # repeated blocks: one sparse block-diagonal matrix or identity (x) block
    B = rng.standard_normal((3, 4))
    n_t = 5
    bd = SparseOperator(sp.block_diag([B] * n_t, format="csr"))
    K = KroneckerOperator(ScaledIdentityOperator(1.0, n_t), DenseOperator(B))
    x = rng.standard_normal(4 * n_t)
    npt.assert_allclose(bd.apply(x), K.apply(x), rtol=1e-13, atol=1e-13)


def every_operator_type(rng):
    """One operator of each concrete type, square and rectangular."""
    n_t, n_s = 3, 4

    def dense(m, n):
        return DenseOperator(rng.standard_normal((m, n)))

    return [
        dense(5, 7),
        SparseOperator(sp.block_diag([rng.standard_normal((2, 3)),
                                      rng.standard_normal((4, 3))], format="csr")),
        DiagonalOperator(rng.random(6) + 0.1),
        ScaledIdentityOperator(2.5, 6),
        KroneckerOperator(dense(n_t, n_t), dense(n_s, n_s)),
        # the deblur workloads' shapes: A_t (x) (T_x (x) T_y), and A_s scaled
        KroneckerOperator(dense(2, 3), KroneckerOperator(dense(3, 2), dense(4, 3))),
        # flat, three factors of different types
        KroneckerOperator(SparseOperator(sp.random(3, 2, density=0.5, random_state=rng)),
                          dense(2, 3), DiagonalOperator(rng.random(2) + 0.1)),
        ScaledOperator(-1.5, dense(4, 6)),
        ScaledOperator(-1.5, KroneckerOperator(dense(3, 2), dense(2, 4))),
    ]


def spd_operator_types(rng):
    """One operator of each concrete type that supports solve()."""
    return [
        DenseOperator(random_spd(rng, 5)),
        DiagonalOperator(rng.random(6) + 0.1),
        ScaledIdentityOperator(2.5, 6),
        KroneckerOperator(DenseOperator(random_spd(rng, 2)),
                          KroneckerOperator(DenseOperator(random_spd(rng, 3)),
                                            DenseOperator(random_spd(rng, 4)))),
    ]


def test_vector_is_one_column_block(rng):
    # a vector action is column 0 of the block action on that one column, to
    # the bit, and a 3-column block matches the dense matrix
    for op in every_operator_type(rng):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        assert np.array_equal(op.apply(x), op.apply_mat(x[:, None])[:, 0]), op
        assert np.array_equal(op.apply_adjoint(y), op.apply_adjoint_mat(y[:, None])[:, 0]), op
        dense = op.to_dense()
        X = rng.standard_normal((op.cols, 3))
        Y = rng.standard_normal((op.rows, 3))
        npt.assert_allclose(op.apply_mat(X), dense @ X, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(op.apply_adjoint_mat(Y), dense.T @ Y, rtol=1e-12, atol=1e-12)
    for op in spd_operator_types(rng):
        b = rng.standard_normal(op.cols)
        assert np.array_equal(op.solve(b), op.solve_mat(b[:, None])[:, 0]), op
        B = rng.standard_normal((op.cols, 3))
        npt.assert_allclose(op.solve_mat(B), np.linalg.solve(op.to_dense(), B),
                            rtol=1e-10, atol=1e-12)


class CountingOperator(LinearOperator):
    """A dense operator that counts the calls of each block hook."""

    def __init__(self, entries):
        self.op = DenseOperator(entries)
        super().__init__(*self.op.shape)
        self.calls = {"apply": 0, "adjoint": 0, "solve": 0}

    def _matmat(self, M):
        self.calls["apply"] += 1
        return self.op.apply_mat(M)

    def _rmatmat(self, M):
        self.calls["adjoint"] += 1
        return self.op.apply_adjoint_mat(M)

    def _solve_mat(self, M):
        self.calls["solve"] += 1
        return self.op.solve_mat(M)


def test_nested_kronecker_acts_on_a_block_with_one_call_per_factor(rng):
    factors = [CountingOperator(random_spd(rng, n)) for n in (2, 3, 4)]
    K = KroneckerOperator(factors[0], KroneckerOperator(factors[1], factors[2]))
    dense = np.kron(factors[0].op.entries,
                    np.kron(factors[1].op.entries, factors[2].op.entries))
    M = rng.standard_normal((K.cols, 5))
    npt.assert_allclose(K.apply_mat(M), dense @ M, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(K.apply_adjoint_mat(M), dense.T @ M, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(K.solve_mat(M), np.linalg.solve(dense, M), rtol=1e-9, atol=1e-10)
    for f in factors:
        assert f.calls == {"apply": 1, "adjoint": 1, "solve": 1}


def test_operators_have_block_hooks_only():
    # one hook per action: no class of the module keeps a vector path
    classes = [c for c in vars(linop).values()
               if isinstance(c, type) and issubclass(c, LinearOperator)]
    assert KroneckerOperator in classes
    for cls in classes:
        assert not {"_matvec", "_rmatvec", "_solve"} & set(vars(cls)), cls


def test_adjoint_consistency_all_types(rng):
    for op in every_operator_type(rng):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = np.dot(op.apply(x), y)
        rhs = np.dot(x, op.apply_adjoint(y))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y), type(op)


def test_densify_budget_refusal(rng):
    for op in every_operator_type(rng):
        size = op.rows * op.cols
        with pytest.raises(BudgetExceededError):
            op.to_dense(budget=size - 1)
        npt.assert_allclose(op.to_dense(budget=size), op.apply_mat(np.eye(op.cols)),
                            rtol=1e-13, atol=1e-13)


def test_shape_errors(rng):
    op = DenseOperator([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        op.apply([1, 2, 3])
    with pytest.raises(ShapeError):
        op.apply_adjoint([1, 2, 3])
    # every public method checks its input once, whatever the concrete type;
    # a row vector or a 1-D array must not broadcast into a matrix product
    for op in every_operator_type(rng):
        m, n = op.shape
        calls = [(op.apply, np.ones(n + 1)), (op.apply, np.ones((n, 1))),
                 (op.apply_adjoint, np.ones(m + 1)),
                 (op.apply_mat, np.ones((1, 3))), (op.apply_mat, np.ones(n)),
                 (op.apply_adjoint_mat, np.ones((1, 3))),
                 (op.apply_adjoint_mat, np.ones(m)),
                 (op.solve, np.ones(n + 1)),
                 (op.solve_mat, np.ones((1, 3))), (op.solve_mat, np.ones(n))]
        for method, arg in calls:
            with pytest.raises(ShapeError):
                method(arg)
        if m != n:
            with pytest.raises(ShapeError):
                op.diagonal()


def test_aslinearoperator_passthrough(rng):
    M = rng.standard_normal((3, 3))
    assert isinstance(aslinearoperator(M), DenseOperator)
    op = DenseOperator(M)
    assert aslinearoperator(op) is op
