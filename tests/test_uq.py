import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from dyninv.errors import ParameterError
from dyninv import decoupled, gengk, hybrid, oracle, uq
from dyninv.linop import DenseOperator, DiagonalOperator, SparseOperator, identity
from dyninv.priorcov import PriorModel

from conftest import (block_restart_instance, fresh_projections, random_orthogonal,
                      random_problem, random_spd, run_gengk)


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


def _restart_instances(rng):
    """(A, R, Q, b) with full-rank A; rank-deficient A, also with b = 0 and
    with A' R^{-1} b = 0, so the first breakdown is at initialization; A = 0
    with b = 0; and a
    block-diagonal problem whose b excites one block only, so the Krylov
    space breaks down after half the dimension and a restart must supply the
    rest, as it is and rotated by random orthogonal P1, P2 (A -> P1 A P2,
    R -> P1 R P1', Q -> P2' Q P2, b -> P1 b), which removes its exact zeros."""
    A = rng.standard_normal((12, 12))
    yield A, random_spd(rng, 12), random_spd(rng, 12), rng.standard_normal(12)
    A = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9))
    R, Q = random_spd(rng, 6), random_spd(rng, 9)
    yield A, R, Q, rng.standard_normal(6)
    yield A, R, Q, np.zeros(6)
    yield A, R, Q, R @ np.linalg.svd(A)[0][:, 4]
    yield np.zeros((6, 9)), R, Q, np.zeros(6)
    A, R, Q, b = block_restart_instance(rng)
    yield A, R, Q, b
    for seed in range(20):
        rot = np.random.default_rng(seed)
        P1, P2 = random_orthogonal(rot, 8), random_orthogonal(rot, 8)
        yield P1 @ A @ P2, P1 @ R @ P1.T, P2.T @ Q @ P2, P1 @ b


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


def test_restarted_factorization_keeps_both_bases_orthonormal(monkeypatch):
    # each step reorthogonalizes only the side with fewer rows (U when
    # m <= n), and a restart vector its whole side: the other side must stay
    # orthonormal through every restart, on the rotated instances too
    facts = []
    build = uq.build_posterior_approx

    def capture(fact, Q, lam):
        facts.append(fact)
        return build(fact, Q, lam)

    monkeypatch.setattr(uq, "build_posterior_approx", capture)
    for A, R, Q, b in _restart_instances(np.random.default_rng(7)):
        uq.restarted_variance_diag(DenseOperator(A), DenseOperator(R),
                                   DenseOperator(Q), b, 0.7, 2 * A.shape[1])
    restarted = 0
    for fact in facts:
        B = fact.bidiagonal()
        restarted += np.any(np.diag(B) == 0) or np.any(np.diag(B, -1) == 0)
        report = gengk.krylov_basis_span_check(fact)
        assert report["orth_U"] <= 1e-10 and report["orth_V"] <= 1e-10, report
    # A = 0 with b = 0 returns the prior before any factorization; every
    # rotated instance restarts
    assert len(facts) == 25 and restarted >= 20, restarted


def test_restarted_variance_keeps_a_block_far_below_the_first():
    # the second block's singular values are 1e-7 of the first's, so the
    # restart's Ritz values are below 1e-14 of the largest; at lam of their
    # size the posterior variance there is 0.09 to 0.71 of the prior
    A, R, Q, b = block_restart_instance(np.random.default_rng(7))
    A[4:, 4:] *= 1e-7
    lam = 1e-7
    exact = np.diag(oracle.dense_posterior(oracle.DenseProblem(A, R, Q, b, lam=lam)))
    var, k = uq.restarted_variance_diag(
        DenseOperator(A), DenseOperator(R), DenseOperator(Q), b, lam, 8)
    assert k == 8
    npt.assert_allclose(var[4:], exact[4:], rtol=1e-10, atol=0)
    # in the first block the posterior variance is 1e-14 of the prior, so the
    # downdate keeps its accuracy relative to the prior only
    prior = np.diag(Q) / lam ** 2
    assert np.all(np.abs(var - exact)[:4] <= 1e-12 * prior[:4])


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
