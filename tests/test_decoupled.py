import threading

import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import ConditioningError, ParameterError, ShapeError
from dyninv import decoupled, hybrid, oracle, problems, uq
from dyninv.linop import DenseOperator, KroneckerOperator, ScaledIdentityOperator
from dyninv.priorcov import PriorModel

from conftest import fresh_projections, random_spd


def kron_instance(rng, n_s=9, n_t=3, m_bar=None, m_t=None):
    m_bar = n_s if m_bar is None else m_bar
    m_t = n_t if m_t is None else m_t
    At = rng.standard_normal((m_t, n_t))
    As = rng.standard_normal((m_bar, n_s))
    Rt = random_spd(rng, m_t, cond=10)
    Rs = random_spd(rng, m_bar, cond=10)
    Qt = random_spd(rng, n_t, cond=10)
    Qs = random_spd(rng, n_s, cond=10)
    d = rng.standard_normal(m_bar * m_t)
    return At, As, Rt, Rs, Qt, Qs, d


def test_kronecker_factors_rebuild_the_operators(rng):
    inst = problems.gen_dynamic_deblur(5, 4, 4, seed=0)
    Q = KroneckerOperator(DenseOperator(random_spd(rng, 4)),
                          DenseOperator(random_spd(rng, 20)))
    At, As, Rt, Rs, Qt, Qs = decoupled.kronecker_factors(
        inst, PriorModel.zero_mean(Q))
    npt.assert_array_equal(np.kron(At.to_dense(), As.to_dense()), inst.A.to_dense())
    npt.assert_array_equal(np.kron(Rt, Rs.to_dense()), inst.R.to_dense())
    npt.assert_array_equal(np.kron(Qt.to_dense(), Qs.to_dense()), Q.to_dense())


def test_plan_identity_factors(rng):
    I3 = ScaledIdentityOperator(1.0, 3)
    plan = decoupled.build_plan(np.eye(2), I3, np.eye(2), I3, np.eye(2), I3, np.zeros(6))
    npt.assert_allclose(plan.sigmas, [1.0, 1.0])
    npt.assert_allclose(np.abs(plan.Ut), np.eye(2), atol=1e-14)
    npt.assert_allclose(np.abs(plan.T), np.eye(2), atol=1e-14)
    # the temporal map factors the temporal prior: T' T = Q_t
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=3, n_t=4)
    T = decoupled.build_plan(At, As, Rt, Rs, Qt, Qs, d).T
    npt.assert_allclose(T.T @ T, Qt, rtol=1e-13)


@pytest.mark.parametrize("name", ["Q_t", "R_t"])
def test_plan_rejects_a_factor_that_is_not_spd(name):
    spd = {"Q_t": np.eye(2), "R_t": np.eye(2)}
    spd[name] = np.diag([1.0, -1.0])
    I2 = ScaledIdentityOperator(1.0, 2)
    with pytest.raises(ConditioningError, match=f"^{name} is not positive definite"):
        decoupled.build_plan(np.eye(2), I2, spd["R_t"], I2, spd["Q_t"], I2, np.zeros(4))


def test_plan_zero_sigma_detection():
    I2 = ScaledIdentityOperator(1.0, 2)
    plan = decoupled.build_plan(np.diag([2.0, 0.0]), I2, np.eye(2), I2, np.eye(2), I2,
                                np.zeros(4))
    npt.assert_allclose(plan.sigmas, [2.0, 0.0])
    assert not plan.sigma_zero(0)
    assert plan.sigma_zero(1)


def test_subproblem_zero_sigma_skipped():
    I2 = ScaledIdentityOperator(1.0, 2)
    plan = decoupled.build_plan(np.diag([2.0, 0.0]), I2, np.eye(2), I2, np.eye(2), I2,
                                np.ones(4))
    assert decoupled.solve_subproblem(plan, 1, hybrid.Fixed(1.0)) is None
    res = decoupled.decoupled_solve(np.diag([2.0, 0.0]), I2, np.eye(2), I2, np.eye(2), I2,
                                    np.ones(4), hybrid.Fixed(1.0))
    npt.assert_array_equal(res.S[:, 1], np.zeros(2))


def test_single_time_identity_tikhonov():
    d = np.array([3.0, -1.0, 2.0])
    I3 = ScaledIdentityOperator(1.0, 3)
    res = decoupled.decoupled_solve(np.eye(1), I3, np.eye(1), I3, np.eye(1), I3, d,
                                    hybrid.Fixed(1.0))
    npt.assert_allclose(res.s, d / 2.0, rtol=1e-12)


def test_recombine_identities(rng):
    I4 = ScaledIdentityOperator(1.0, 4)
    plan = decoupled.build_plan(np.eye(3), I4, np.eye(3), I4, np.eye(3), I4, np.zeros(12))
    Z = rng.standard_normal((4, 3))
    # recombine undoes the (identity) transforms up to the SVD's sign freedom
    S = decoupled.recombine(plan, Z @ plan.T.T)
    npt.assert_allclose(S, Z, atol=1e-12)


# A_t square, wide (fewer rows than times: the padded sigma_i are zero) and tall
@pytest.mark.parametrize("m_t", [pytest.param(3, id="square"), pytest.param(2, id="wide"),
                                 pytest.param(6, id="tall")])
def test_equivalence_with_oracle_and_simultaneous(rng, m_t):
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=9, n_t=3, m_bar=7, m_t=m_t)
    lam = 0.8
    res = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d,
                                    hybrid.Fixed(lam),
                                    hybrid.SolverOptions(max_iter=100,
                                                         reorthogonalize=True))
    A = np.kron(At, As)
    R = np.kron(Rt, Rs)
    Q = np.kron(Qt, Qs)
    expected = oracle.map_normal_equations(
        oracle.DenseProblem(A, R, Q, d, lam=lam))
    ref = np.linalg.norm(expected)
    assert np.linalg.norm(res.s - expected) <= 1e-8 * ref

    prior = PriorModel.zero_mean(
        KroneckerOperator(DenseOperator(Qt), DenseOperator(Qs)))
    sim = hybrid.genhybr_solve(
        KroneckerOperator(DenseOperator(At), DenseOperator(As)),
        KroneckerOperator(DenseOperator(Rt), DenseOperator(Rs)),
        prior, d, hybrid.Fixed(lam),
        hybrid.SolverOptions(max_iter=100, reorthogonalize=True))
    assert np.linalg.norm(res.s - sim.s) <= 1e-8 * ref


def test_nonzero_prior_mean(rng):
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=6, n_t=2)
    mu = rng.standard_normal(12)
    lam = 1.3
    res = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d,
                                    hybrid.Fixed(lam),
                                    hybrid.SolverOptions(max_iter=60,
                                                         reorthogonalize=True),
                                    mu=mu)
    expected = oracle.map_normal_equations(oracle.DenseProblem(
        np.kron(At, As), np.kron(Rt, Rs), np.kron(Qt, Qs), d, mu, lam))
    assert np.linalg.norm(res.s - expected) <= 1e-8 * np.linalg.norm(expected)


def test_threads_match_serial(rng):
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=6, n_t=4)
    opts = hybrid.SolverOptions(max_iter=30, reorthogonalize=True)
    serial = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d,
                                       hybrid.Fixed(1.0), opts, threads=1)
    parallel = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d,
                                         hybrid.Fixed(1.0), opts, threads=4)
    npt.assert_array_equal(serial.s, parallel.s)


def test_subproblems_run_on_the_calling_thread(rng, monkeypatch):
    # threads is accepted and ignored: every subproblem runs in turn here
    solve = decoupled.solve_subproblem
    callers = []

    def recording(*args, **kwargs):
        callers.append(threading.get_ident())
        return solve(*args, **kwargs)

    monkeypatch.setattr(decoupled, "solve_subproblem", recording)
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=6, n_t=4)
    decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d, hybrid.Fixed(1.0),
                              hybrid.SolverOptions(max_iter=30), threads=4)
    assert callers == [threading.get_ident()] * 4


def test_zero_temporal_singular_value_end_to_end():
    # a zero row of A_t gives one sigma_i = 0: its subproblem is skipped, and
    # the reconstruction and the variance still match the dense oracles
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(np.random.default_rng(5), n_s=8, n_t=4)
    At[2] = 0.0
    lam = 0.8
    res = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d, hybrid.Fixed(lam),
                                    hybrid.SolverOptions(max_iter=8,
                                                         reorthogonalize=True))
    plan = decoupled.build_plan(At, As, Rt, Rs, Qt, Qs, d)
    zero = [i for i in range(plan.n_t) if plan.sigma_zero(i)]
    assert len(zero) == 1
    assert [i for i, r in enumerate(res.sub_results) if r is None] == zero

    p = oracle.DenseProblem(np.kron(At, As), np.kron(Rt, Rs), np.kron(Qt, Qs), d,
                            lam=lam)
    expected = oracle.map_normal_equations(p)
    assert np.linalg.norm(res.s - expected) <= 1e-8 * np.linalg.norm(expected)

    facts = {i: None if r is None else r.factorization
             for i, r in enumerate(res.sub_results)}
    var = uq.decoupled_variance_diag(plan, facts, lam).reshape(-1, order="F")
    exact = np.diag(oracle.dense_posterior(p))
    assert np.max(np.abs(var - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_variance_reuses_every_subproblems_projected_problem(rng, projected_svds,
                                                            monkeypatch):
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=8, n_t=4, m_bar=6)
    res = decoupled.decoupled_solve(
        At, As, Rt, Rs, Qt, Qs, d, hybrid.WGCV(),
        hybrid.SolverOptions(max_iter=6, reorthogonalize=True), per_time_lambda=True)
    facts = {i: r.factorization for i, r in enumerate(res.sub_results)}
    assert len(facts) == 4 and all(f is not None for f in facts.values())
    plan = decoupled.build_plan(At, As, Rt, Rs, Qt, Qs, d)
    projected_svds.clear()
    var = uq.decoupled_variance_diag(plan, facts, 1.0)
    assert projected_svds == []
    fresh_projections(monkeypatch)
    npt.assert_array_equal(var, uq.decoupled_variance_diag(plan, facts, 1.0))
    assert projected_svds == [f.k for f in facts.values()]


def test_shared_lambda_requires_fixed_strategy(rng):
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=4, n_t=2)
    with pytest.raises(ParameterError):
        decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d, hybrid.WGCV(1.0))
    # per-time selection is allowed explicitly
    res = decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d, hybrid.WGCV(1.0),
                                    per_time_lambda=True)
    assert len(res.per_time_lambda) == 2


def test_optimal_strategy_is_rejected(rng):
    # the truth is a space-time s; the subproblem unknowns are transformed
    # coefficients, so no subproblem has a truth to select against
    At, As, Rt, Rs, Qt, Qs, d = kron_instance(rng, n_s=4, n_t=2)
    with pytest.raises(ParameterError, match="no truth"):
        decoupled.decoupled_solve(At, As, Rt, Rs, Qt, Qs, d,
                                  hybrid.Optimal(np.zeros(8)),
                                  per_time_lambda=True)


def test_shape_validation(rng):
    I3, I4 = ScaledIdentityOperator(1.0, 3), ScaledIdentityOperator(1.0, 4)
    with pytest.raises(ShapeError):
        decoupled.build_plan(np.eye(3), I4, np.eye(2), I4, np.eye(3), I4, np.zeros(12))
    # a non-square Q_t or R_t is a shape error, not numpy's broadcast error
    with pytest.raises(ShapeError):
        decoupled.build_plan(np.eye(2), I3, np.eye(2), I3, np.ones((2, 3)), I3, np.zeros(6))
    with pytest.raises(ShapeError):
        decoupled.build_plan(np.eye(2), I3, np.ones((2, 3)), I3, np.eye(2), I3, np.zeros(6))
    plan = decoupled.build_plan(np.eye(2), I3, np.eye(2), I3, np.eye(2), I3, np.zeros(6))
    with pytest.raises(ShapeError):
        decoupled.recombine(plan, np.zeros((4, 2)))
    with pytest.raises(ParameterError):
        decoupled.solve_subproblem(plan, 5, hybrid.Fixed(1.0))
