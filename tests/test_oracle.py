import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import BudgetExceededError, ParameterError
from dyninv import hybrid, oracle
from dyninv.linop import DenseOperator

from conftest import random_problem, run_gengk


def identity_problem(n, d, lam):
    return oracle.DenseProblem(np.eye(n), np.eye(n), np.eye(n), d, lam=lam)


def test_normal_equations_identity():
    d = np.array([2.0, -4.0, 6.0])
    s = oracle.map_normal_equations(identity_problem(3, d, 1.0))
    npt.assert_allclose(s, d / 2.0)


def test_prior_dominated_limit(rng):
    A, R, Q, _ = random_problem(rng, 10, 8)
    mu = rng.standard_normal(8)
    d = rng.standard_normal(10)
    p = oracle.DenseProblem(A, R, Q, d, mu, lam=1e8)
    s = oracle.map_normal_equations(p)
    npt.assert_allclose(s, mu, atol=1e-6)


def test_normal_equations_residual(rng):
    A, R, Q, _ = random_problem(rng, 20, 15)
    d = rng.standard_normal(20)
    lam = 0.9
    p = oracle.DenseProblem(A, R, Q, d, lam=lam)
    s = oracle.map_normal_equations(p)
    Qinv = np.linalg.inv(Q)
    H = A.T @ np.linalg.solve(R, A) + lam ** 2 * Qinv
    rhs = A.T @ np.linalg.solve(R, d)
    assert np.linalg.norm(H @ s - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_three_way_equivalence(rng):
    for trial in range(10):
        m = int(rng.integers(10, 150))
        n = int(rng.integers(10, 200))
        A, R, Q, _ = random_problem(rng, m, n)
        mu = rng.standard_normal(n)
        d = rng.standard_normal(m)
        for lam in (0.1, 1.0, 10.0):
            p = oracle.DenseProblem(A, R, Q, d, mu, lam)
            s1 = oracle.map_normal_equations(p)
            s2 = oracle.map_general_tikhonov(p)
            s3 = oracle.map_sherman_morrison(p)
            ref = np.linalg.norm(s1)
            assert np.linalg.norm(s1 - s2) <= 1e-10 * ref
            assert np.linalg.norm(s1 - s3) <= 1e-10 * ref


def test_sherman_morrison_identity():
    d = np.array([1.0, 5.0])
    s = oracle.map_sherman_morrison(identity_problem(2, d, 1.0))
    npt.assert_allclose(s, d / 2.0)


def test_sherman_morrison_lam0_interpolates(rng):
    # full row rank A, lam = 0: data-consistent minimum-Q-norm solution
    A = rng.standard_normal((6, 12))
    _, R, Q, _ = random_problem(rng, 6, 12)
    d = rng.standard_normal(6)
    p = oracle.DenseProblem(A, R, Q, d, lam=0.0)
    s = oracle.map_sherman_morrison(p)
    assert np.linalg.norm(A @ s - d) <= 1e-10 * np.linalg.norm(d)


def test_dense_posterior(rng):
    d = np.zeros(3)
    G = oracle.dense_posterior(identity_problem(3, d, 2.0))
    npt.assert_allclose(G, np.eye(3) / 5.0)
    # A = 0: pure prior
    _, R, Q, _ = random_problem(rng, 4, 4)
    p = oracle.DenseProblem(np.zeros((4, 4)), R, Q, np.zeros(4), lam=2.0)
    npt.assert_allclose(oracle.dense_posterior(p), Q / 4.0, rtol=1e-10)
    # random instance: symmetric PSD
    A, R, Q, _ = random_problem(rng, 10, 8)
    G = oracle.dense_posterior(oracle.DenseProblem(A, R, Q, np.zeros(10), lam=0.5))
    assert np.max(np.abs(G - G.T)) <= 1e-12
    assert np.linalg.eigvalsh(G)[0] > 0
    with pytest.raises(ParameterError):
        oracle.dense_posterior(identity_problem(2, np.zeros(2), 0.0))


def test_gcv_full_identity_closed_form():
    n = 4
    d = np.array([1.0, -2.0, 0.5, 3.0])
    lam = 0.8
    p = identity_problem(n, d, lam)
    # misfit = ||d||^2 lam^4/(1+lam^2)^2, trace = n - n/(1+lam^2)
    misfit = np.sum(d ** 2) * lam ** 4 / (1 + lam ** 2) ** 2
    trace = n - n / (1 + lam ** 2)
    expected = n * misfit / trace ** 2
    assert oracle.gcv_full(p, lam) == pytest.approx(expected, rel=1e-10)


def test_gcv_full_rejects_nonzero_mean():
    p = oracle.DenseProblem(np.eye(2), np.eye(2), np.eye(2), np.ones(2),
                            mu=np.ones(2))
    with pytest.raises(ParameterError):
        oracle.gcv_full(p, 1.0)


def test_gcv_full_vs_projected_at_full_rank(rng):
    # at k = n with m = n + 1 the projected problem reproduces the full
    # objective (misfit and trace coincide), so the minimizers match
    m, n = 13, 12
    A, R, Q, _ = random_problem(rng, m, n)
    s_true = rng.standard_normal(n)
    d = A @ s_true + 0.05 * rng.standard_normal(m)
    fact = run_gengk(DenseOperator(A), DenseOperator(R), DenseOperator(Q), d,
                     k=n, reorthogonalize=True)
    B = fact.bidiagonal()
    proj = hybrid.ProjectedProblem(B, fact.beta1)
    s_max = proj.s[0]
    grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 200)
    p = oracle.DenseProblem(A, R, Q, d, lam=1.0)
    lam_proj = grid[np.argmin([proj.fit(l).gcv for l in grid])]
    lam_full = grid[np.argmin([oracle.gcv_full(p, l) for l in grid])]
    ratio = grid[1] / grid[0]
    assert lam_full / ratio <= lam_proj <= lam_full * ratio


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        oracle.DenseProblem(np.zeros((3, 3)), np.eye(3), np.eye(3),
                            np.zeros(3), budget=4)
