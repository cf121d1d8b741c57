import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from dyninv.errors import ParameterError
from dyninv import decoupled, gengk, hybrid, oracle, uq
from dyninv.linop import DenseOperator, DiagonalOperator, SparseOperator, identity
from dyninv.priorcov import PriorModel

from conftest import fresh_projections, random_problem, random_spd, run_gengk


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


def posterior_matvec(approx, v):
    """Q v / lam^2 - QV W (deltas * W' QV' v): the approximate covariance times v."""
    v = np.asarray(v, dtype=float)
    QV, W = approx.QV, approx.W
    return (approx.Q.apply(v) / approx.lam ** 2
            - QV @ (W @ (approx.deltas * (W.T @ (QV.T @ v)))))


def test_identity_scalar_posterior():
    fact = run_gengk(identity(1), identity(1), identity(1), [1.0], k=1)
    approx = uq.build_posterior_approx(fact, identity(1), lam=1.0)
    var = uq.variance_diag(approx)
    npt.assert_allclose(var, [0.5], rtol=1e-14)
    npt.assert_allclose(posterior_matvec(approx, [1.0]), [0.5], rtol=1e-14)


def test_k0_is_pure_prior(rng):
    Q = DenseOperator(random_spd(rng, 5))
    fact = gengk.GenGKFactorization(A=identity(5), R=identity(5), Q=Q,
                                    b=np.ones(5), beta1=1.0)
    approx = uq.build_posterior_approx(fact, Q, lam=2.0)
    npt.assert_allclose(uq.variance_diag(approx), Q.diagonal() / 4.0, rtol=1e-14)


def test_lam_zero_rejected():
    fact = run_gengk(identity(2), identity(2), identity(2), [1.0, 0.0], k=1)
    with pytest.raises(ParameterError):
        uq.build_posterior_approx(fact, identity(2), lam=0.0)


def test_full_rank_matches_dense_posterior(rng):
    m, n = 25, 18
    A, R, Q, b = random_problem(rng, m, n)
    lam = 0.9
    fact = run_gengk(*wrap(A, R, Q), b, k=n, reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, DenseOperator(Q), lam)
    var = uq.variance_diag(approx)
    exact = np.diag(oracle.dense_posterior(
        oracle.DenseProblem(A, R, Q, b, lam=lam)))
    npt.assert_allclose(var, exact, rtol=1e-8, atol=1e-10)
    # full matvec agrees too
    v = rng.standard_normal(n)
    exact_full = oracle.dense_posterior(
        oracle.DenseProblem(A, R, Q, b, lam=lam)) @ v
    npt.assert_allclose(posterior_matvec(approx, v), exact_full, rtol=1e-7, atol=1e-9)


def test_deflation_bound_and_monotone(rng):
    A, R, Q, b = random_problem(rng, 30, 20)
    lam = 1.1
    Aop, Rop, Qop = wrap(A, R, Q)
    prior_var = np.diag(Q) / lam ** 2
    fact = run_gengk(Aop, Rop, Qop, b, k=15, reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, Qop, lam)
    # Ritz values come out in descending order, so truncating the pair list
    # at increasing rank subtracts one PSD rank-one term at a time
    assert np.all(np.diff(approx.thetas) <= 0)
    prev = None
    for r in range(approx.rank + 1):
        var = prior_var - ((approx.QV @ approx.W[:, :r]) ** 2) @ approx.deltas[:r]
        assert np.all(var <= prior_var + 1e-12)
        if prev is not None:
            assert np.all(var <= prev + 1e-10)
        prev = var
    npt.assert_allclose(prev, uq.variance_diag(approx), rtol=1e-12)


def _variance(fact, Q, lam):
    return uq.variance_diag(uq.build_posterior_approx(fact, Q, lam))


def _wgcv_solve(rng, opts):
    A, R, Q, b = random_problem(rng, 30, 20)
    Aop, Rop, Qop = wrap(A, R, Q)
    return hybrid.genhybr_solve(Aop, Rop, PriorModel.zero_mean(Qop), b,
                                hybrid.WGCV(), opts), Qop


def test_variance_reuses_the_solves_projected_problem(rng, projected_svds,
                                                      monkeypatch):
    # the solve's last iteration decomposed B_k; the variance takes that SVD
    res, Q = _wgcv_solve(rng, hybrid.SolverOptions(max_iter=12, reorthogonalize=True))
    projected_svds.clear()
    var = _variance(res.factorization, Q, res.lam)
    assert projected_svds == []
    fresh_projections(monkeypatch)
    npt.assert_array_equal(var, _variance(res.factorization, Q, res.lam))
    assert projected_svds == [res.factorization.k]


def test_a_further_step_gets_the_svd_of_its_own_bidiagonal(rng, projected_svds,
                                                            monkeypatch):
    # a GCV-flat stop leaves room in the factorization for one more step
    res, Q = _wgcv_solve(rng, hybrid.SolverOptions(max_iter=12, reorthogonalize=True,
                                                   gcv_flat_tol=1.0))
    assert res.stop_reason == "gcv-flat"
    fact = gengk.gengk_step(res.factorization)
    assert fact.k == res.iterations + 1
    projected_svds.clear()
    proj = hybrid.ProjectedProblem.of(fact)
    assert projected_svds == [fact.k]
    fresh = hybrid.ProjectedProblem(fact.bidiagonal(), fact.beta1)
    for name in ("B", "s", "Vt", "c"):
        npt.assert_array_equal(getattr(proj, name), getattr(fresh, name))
    var = _variance(fact, Q, res.lam)
    assert hybrid.ProjectedProblem.of(fact) is proj
    fresh_projections(monkeypatch)
    npt.assert_array_equal(var, _variance(fact, Q, res.lam))


def test_decoupled_variance_diagonal_forward():
    # n_t = 1, diagonal forward model: var_i = 1 / (a_i^2 + lam^2) at lam = 1
    As = DenseOperator(np.diag([1.0, 2.0, 3.0]))
    plan = decoupled.build_plan(np.eye(1), As, np.eye(1), identity(3),
                                np.eye(1), identity(3), np.ones(3))
    facts = {}
    for i in range(plan.n_t):
        op = decoupled.ScaledOperator(plan.sigmas[i], plan.A_s)
        facts[i] = run_gengk(op, plan.R_s, plan.Q_s, plan.rhs(i), k=3,
                             reorthogonalize=True)
    var = uq.decoupled_variance_diag(plan, facts, lam=1.0)
    npt.assert_allclose(var[:, 0], [0.5, 0.2, 0.1], rtol=1e-12)


def test_decoupled_variance_zero_rank_prior():
    plan = decoupled.build_plan(np.zeros((2, 2)), identity(3), np.eye(2),
                                identity(3), np.eye(2), identity(3),
                                np.zeros(6))
    var = uq.decoupled_variance_diag(plan, {0: None, 1: None}, lam=2.0)
    npt.assert_allclose(var, np.full((3, 2), 0.25), rtol=1e-12)


# A_t square, wide (fewer rows than times: the padded sigma_i are zero) and tall
@pytest.mark.parametrize("n_t, m_t", [pytest.param(3, 3, id="square"),
                                      pytest.param(4, 2, id="wide"),
                                      pytest.param(4, 6, id="tall")])
def test_decoupled_variance_matches_dense(rng, n_t, m_t):
    n_s, m_bar = 6, 6
    At = rng.standard_normal((m_t, n_t))
    As = rng.standard_normal((m_bar, n_s))
    Rt = random_spd(rng, m_t, cond=10)
    Rs = random_spd(rng, m_bar, cond=10)
    Qt = random_spd(rng, n_t, cond=10)
    Qs = random_spd(rng, n_s, cond=10)
    d = rng.standard_normal(m_bar * m_t)
    lam = 0.7
    plan = decoupled.build_plan(At, As, Rt, Rs, Qt, Qs, d)
    facts = {}
    for i in range(plan.n_t):
        if plan.sigma_zero(i):
            facts[i] = None
            continue
        op = decoupled.ScaledOperator(plan.sigmas[i], plan.A_s)
        facts[i] = run_gengk(op, plan.R_s, plan.Q_s, plan.rhs(i), k=n_s,
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


@pytest.mark.parametrize("lam, kept", [(0.5, "all"), (1e3, "some"), (1e9, "none")])
def test_blocked_variance_matches_the_one_shot_downdate(rng, monkeypatch, lam, kept):
    # A = diag(sigma) G with orthonormal rows G and sigma from 1e2 down to
    # 1e-6: the Ritz values at or below 1e-12 lam^2 are dropped, none of them
    # at lam = 0.5, some at lam = 1e3 and all at lam = 1e9
    m, n, k, rows = 40, 1003, 25, 7
    G = np.linalg.qr(rng.standard_normal((n, m)))[0].T
    A = DenseOperator(np.logspace(2, -6, m)[:, None] * G)
    Q = DiagonalOperator(rng.uniform(0.5, 2.0, n))
    fact = run_gengk(A, identity(m), Q, rng.standard_normal(m), k=k,
                     reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, Q, lam)
    k_kept = approx.W.shape[1]
    assert approx.W.shape[0] == k
    assert {"all": k_kept == k, "some": 0 < k_kept < k, "none": k_kept == 0}[kept]
    # blocks of 7 rows, which do not divide n
    monkeypatch.setattr(uq, "BLOCK_BYTES", 8 * max(k_kept, 1) * rows)
    assert n % rows
    var = uq.variance_diag(approx)
    prior = Q.diagonal() / lam ** 2
    if k_kept == 0:
        assert np.array_equal(var, prior)
    one_shot = prior - ((approx.QV @ approx.W) ** 2) @ approx.deltas
    npt.assert_allclose(var, one_shot, rtol=1e-14, atol=0)


def test_variance_needs_no_n_by_k_temporaries():
    # n k 8 bytes = 32 MB of Q V; the variance may allocate a quarter of that
    n, m, k = 200_000, 30, 20
    rng = np.random.default_rng(3)
    A = SparseOperator(sp.random(m, n, density=2e-3, random_state=rng))
    Q = DiagonalOperator(rng.uniform(0.5, 2.0, n))
    fact = run_gengk(A, identity(m), Q, rng.standard_normal(m), k=k,
                     reorthogonalize=True)
    assert fact.k == k
    tracemalloc.start()
    try:
        approx = uq.build_posterior_approx(fact, Q, lam=1.0)
        var = uq.variance_diag(approx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert approx.rank == k
    assert var.shape == (n,)
    assert peak < n * k * 8 / 4, peak
