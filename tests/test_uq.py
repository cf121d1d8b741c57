import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import ParameterError
from dyninv import decoupled, gengk, hybrid, oracle, uq
from dyninv.linop import DenseOperator, identity

from conftest import random_problem, random_spd


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


def test_identity_scalar_posterior():
    fact = gengk.gengk(identity(1), identity(1), identity(1), [1.0], k=1)
    approx = uq.build_posterior_approx(fact, identity(1), lam=1.0)
    var = uq.variance_diag(approx)
    npt.assert_allclose(var, [0.5], rtol=1e-14)
    npt.assert_allclose(approx.matvec([1.0]), [0.5], rtol=1e-14)


def test_k0_is_pure_prior(rng):
    Q = DenseOperator(random_spd(rng, 5))
    fact = gengk.GenGKFactorization(A=identity(5), R=identity(5), Q=Q,
                                    b=np.ones(5), beta1=1.0)
    approx = uq.build_posterior_approx(fact, Q, lam=2.0)
    npt.assert_allclose(uq.variance_diag(approx), Q.diagonal() / 4.0, rtol=1e-14)


def test_lam_zero_rejected():
    fact = gengk.gengk(identity(2), identity(2), identity(2), [1.0, 0.0], k=1)
    with pytest.raises(ParameterError):
        uq.build_posterior_approx(fact, identity(2), lam=0.0)


def test_full_rank_matches_dense_posterior(rng):
    m, n = 25, 18
    A, R, Q, b = random_problem(rng, m, n)
    lam = 0.9
    fact = gengk.gengk(*wrap(A, R, Q), b, k=n, reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, DenseOperator(Q), lam)
    var = uq.variance_diag(approx)
    exact = np.diag(oracle.dense_posterior(
        oracle.DenseProblem(A, R, Q, b, lam=lam)))
    npt.assert_allclose(var, exact, rtol=1e-8, atol=1e-10)
    # full matvec agrees too
    v = rng.standard_normal(n)
    exact_full = oracle.dense_posterior(
        oracle.DenseProblem(A, R, Q, b, lam=lam)) @ v
    npt.assert_allclose(approx.matvec(v), exact_full, rtol=1e-7, atol=1e-9)


def test_deflation_bound_and_monotone(rng):
    A, R, Q, b = random_problem(rng, 30, 20)
    lam = 1.1
    Aop, Rop, Qop = wrap(A, R, Q)
    prior_var = np.diag(Q) / lam ** 2
    fact = gengk.gengk(Aop, Rop, Qop, b, k=15, reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, Qop, lam)
    # Ritz values come out in descending order, so truncating the pair list
    # at increasing rank subtracts one PSD rank-one term at a time
    assert np.all(np.diff(approx.thetas) <= 0)
    prev = None
    for r in range(approx.rank + 1):
        var = prior_var - (approx.Z[:, :r] ** 2) @ approx.deltas[:r]
        assert np.all(var <= prior_var + 1e-12)
        if prev is not None:
            assert np.all(var <= prev + 1e-10)
        prev = var
    npt.assert_allclose(prev, uq.variance_diag(approx), rtol=1e-12)


def test_decoupled_variance_diagonal_forward():
    # n_t = 1, diagonal forward model: var_i = 1 / (a_i^2 + lam^2) at lam = 1
    As = DenseOperator(np.diag([1.0, 2.0, 3.0]))
    plan = decoupled.build_plan(np.eye(1), As, np.eye(1), identity(3),
                                np.eye(1), identity(3), np.ones(3))
    facts = {}
    for i in range(plan.n_t):
        op = decoupled.ScaledOperator(plan.sigmas[i], plan.A_s)
        facts[i] = gengk.gengk(op, plan.R_s, plan.Q_s, plan.rhs(i), k=3,
                               reorthogonalize=True)
    var = uq.decoupled_variance_diag(plan, facts, lam=1.0)
    npt.assert_allclose(var[:, 0], [0.5, 0.2, 0.1], rtol=1e-12)


def test_decoupled_variance_zero_rank_prior():
    plan = decoupled.build_plan(np.zeros((2, 2)), identity(3), np.eye(2),
                                identity(3), np.eye(2), identity(3),
                                np.zeros(6))
    var = uq.decoupled_variance_diag(plan, {0: None, 1: None}, lam=2.0)
    npt.assert_allclose(var, np.full((3, 2), 0.25), rtol=1e-12)


def test_decoupled_variance_matches_dense(rng):
    n_s, n_t, m_bar = 6, 3, 6
    At = rng.standard_normal((n_t, n_t))
    As = rng.standard_normal((m_bar, n_s))
    Rt = random_spd(rng, n_t, cond=10)
    Rs = random_spd(rng, m_bar, cond=10)
    Qt = random_spd(rng, n_t, cond=10)
    Qs = random_spd(rng, n_s, cond=10)
    d = rng.standard_normal(m_bar * n_t)
    lam = 0.7
    plan = decoupled.build_plan(At, As, Rt, Rs, Qt, Qs, d)
    facts = {}
    for i in range(plan.n_t):
        if plan.sigma_zero(i):
            facts[i] = None
            continue
        op = decoupled.ScaledOperator(plan.sigmas[i], plan.A_s)
        facts[i] = gengk.gengk(op, plan.R_s, plan.Q_s, plan.rhs(i), k=n_s,
                               reorthogonalize=True)
    var = uq.decoupled_variance_diag(plan, facts, lam)
    exact = np.diag(oracle.dense_posterior(oracle.DenseProblem(
        np.kron(At, As), np.kron(Rt, Rs), np.kron(Qt, Qs), d, lam=lam)))
    npt.assert_allclose(var.reshape(-1, order="F"), exact, rtol=1e-6, atol=1e-9)


def test_decoupled_variance_missing_factorization():
    plan = decoupled.build_plan(np.eye(2), identity(2), np.eye(2), identity(2),
                                np.eye(2), identity(2), np.ones(4))
    with pytest.raises(ParameterError):
        uq.decoupled_variance_diag(plan, {0: None, 1: None}, lam=1.0)


def _restart_instances(rng):
    """(A, R, Q, b) with full-rank A, rank-deficient A, and a block-diagonal
    problem whose b excites one block only, so the first run breaks down
    after half the dimension and a restart must supply the rest."""
    A = rng.standard_normal((12, 12))
    yield A, random_spd(rng, 12), random_spd(rng, 12), rng.standard_normal(12)
    A = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9))
    yield A, random_spd(rng, 6), random_spd(rng, 9), rng.standard_normal(6)
    blocks = [[rng.standard_normal((4, 4)) for _ in range(2)] for _ in range(3)]
    A, R, Q = (np.block([[X, np.zeros((4, 4))], [np.zeros((4, 4)), Y]])
               for X, Y in blocks)
    R, Q = R @ R.T + np.eye(8), Q @ Q.T + np.eye(8)
    yield A, R, Q, np.concatenate([rng.standard_normal(4), np.zeros(4)])


def test_restarted_variance_matches_dense_up_to_twice_the_dimension():
    rng = np.random.default_rng(7)
    lam = 0.7
    for A, R, Q, b in _restart_instances(rng):
        n = A.shape[1]
        reachable = np.linalg.matrix_rank(A)
        exact = np.diag(oracle.dense_posterior(
            oracle.DenseProblem(A, R, Q, b, lam=lam)))
        for rank in range(reachable, 2 * n + 1):
            var, k = uq.restarted_variance_diag(
                DenseOperator(A), DenseOperator(R), DenseOperator(Q), b, lam, rank)
            assert k <= n, (A.shape, rank, k)
            assert np.all(var >= 0), (A.shape, rank, var.min())
            npt.assert_allclose(var, exact, rtol=1e-10, atol=0)
