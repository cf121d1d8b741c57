import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import ParameterError
from dyninv import gengk, hybrid, oracle
from dyninv.linop import DenseOperator, identity
from dyninv.priorcov import PriorModel

from conftest import random_problem


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


# ----------------------------------------------------------------------
# Projected problem
# ----------------------------------------------------------------------

def test_projected_tikhonov_scalar():
    B = np.array([[1.0], [0.0]])
    z = hybrid.ProjectedProblem(B, beta1=5.0).solve(2.0)
    npt.assert_allclose(z, [1.0])  # (1 + 4) z = 5


def test_projected_tikhonov_large_lambda():
    B = np.array([[1.0], [0.5]])
    z = hybrid.ProjectedProblem(B, beta1=1.0).solve(1e8)
    assert np.linalg.norm(z) < 1e-14


def test_projected_matches_dense_normal_equations(rng):
    A = np.diag([1.0, 2.0])
    b = np.array([1.0, 1.0])
    lam = 1.0
    fact = gengk.gengk(DenseOperator(A), identity(2), identity(2), b, k=2,
                       reorthogonalize=True)
    B = fact.bidiagonal().to_dense()
    z = hybrid.ProjectedProblem(B, fact.beta1).solve(lam)
    s = fact.QV_matrix() @ z
    expected = np.linalg.solve(A.T @ A + lam ** 2 * np.eye(2), A.T @ b)
    npt.assert_allclose(s, expected, rtol=1e-12)


def test_projected_gcv_analytic():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    # G = 1 * 25 * (1/2)^2 / (2 - 1/2)^2 = 6.25 / 2.25
    assert proj.gcv(1.0) == pytest.approx(6.25 / 2.25, rel=1e-12)
    assert proj.gcv(1.0) == pytest.approx(2.7778, abs=1e-4)


def test_projected_gcv_large_lambda_limit():
    B = np.array([[1.0, 0.0], [0.7, 2.0], [0.0, 0.3]])
    k, beta1 = 2, 3.0
    G = hybrid.ProjectedProblem(B, beta1).gcv(1e10)
    assert G == pytest.approx(k * beta1 ** 2 / (k + 1) ** 2, rel=1e-6)


def test_projected_wgcv():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    assert proj.gcv(1.0, w=0.5) == pytest.approx(6.25 / 3.0625, rel=1e-12)
    assert proj.gcv(1.0, w=0.5) == pytest.approx(2.0408, abs=1e-4)
    with pytest.raises(ParameterError):
        hybrid.WGCV(1.5)


def test_wgcv_w1_equals_gcv(rng):
    for _ in range(10):
        k = int(rng.integers(1, 8))
        B = rng.standard_normal((k + 1, k))
        beta1 = float(rng.random() + 0.5)
        lam = float(10 ** rng.uniform(-3, 2))
        proj = hybrid.ProjectedProblem(B, beta1)
        assert proj.gcv(lam, w=1.0) == pytest.approx(
            proj.gcv(lam), abs=1e-14, rel=1e-14)


# ----------------------------------------------------------------------
# Lambda selection
# ----------------------------------------------------------------------

def test_select_lambda_fixed():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    assert hybrid.select_lambda(hybrid.Fixed(3.0), proj) == 3.0


def test_select_lambda_gcv_monotone_case():
    # G(lam) = 25 lam^4 / (1 + 2 lam^2)^2 increases in lam: minimizer at the
    # lower end of the search bracket
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    lam = hybrid.select_lambda(hybrid.GCV(), proj)
    assert lam <= 1e-11


def test_golden_matches_fine_grid(rng):
    for _ in range(5):
        k = int(rng.integers(2, 10))
        B = rng.standard_normal((k + 1, k))
        proj = hybrid.ProjectedProblem(B, 1.0)
        s_max = proj.s[0]
        lam = hybrid.minimize_over_lambda(proj.gcv, s_max)
        grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 2000)
        lam_grid = grid[np.argmin([proj.gcv(l) for l in grid])]
        # within one cell of the fine grid
        ratio = grid[1] / grid[0]
        assert lam_grid / ratio <= lam <= lam_grid * ratio


def test_select_lambda_optimal_self_consistent(rng):
    A, R, Q, b = random_problem(rng, 20, 15)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = gengk.gengk(Aop, Rop, Qop, b, k=15, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(fact.k).to_dense(), fact.beta1)
    QV = fact.QV_matrix(fact.k)
    s_target = QV @ proj.solve(1.0)
    lam = hybrid.select_lambda(hybrid.Optimal(s_target), proj, QV=QV,
                               mu=np.zeros(QV.shape[0]))
    err = np.linalg.norm(QV @ proj.solve(lam) - s_target)
    assert err <= 1e-6 * np.linalg.norm(s_target)


# ----------------------------------------------------------------------
# Full solver
# ----------------------------------------------------------------------

def test_genhybr_identity_tikhonov():
    n = 5
    d = np.arange(1.0, n + 1)
    prior = PriorModel.zero_mean(identity(n))
    res = hybrid.genhybr_solve(identity(n), identity(n), prior, d,
                               hybrid.Fixed(1.0))
    npt.assert_allclose(res.s, d / 2.0, rtol=1e-12)
    assert res.stop_reason == "breakdown"


def test_genhybr_matches_dense_oracle(rng):
    m, n_s, n_t = 30, 8, 4
    n = n_s * n_t
    A, R, Q, _ = random_problem(rng, m, n)
    mu = rng.standard_normal(n)
    d = rng.standard_normal(m)
    lam = 0.7
    prior = PriorModel(mu, DenseOperator(Q), n_s, n_t)
    res = hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R), prior, d,
                               hybrid.Fixed(lam),
                               hybrid.SolverOptions(max_iter=200,
                                                    reorthogonalize=True))
    expected = oracle.map_normal_equations(
        oracle.DenseProblem(A, R, Q, d, mu, lam))
    assert np.linalg.norm(res.s - expected) <= 1e-8 * np.linalg.norm(expected)


def test_shift_invariance(rng):
    # one factorization serves all lambda values
    A, R, Q, b = random_problem(rng, 25, 20)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = gengk.gengk(Aop, Rop, Qop, b, k=10, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal().to_dense(), fact.beta1)
    prior = PriorModel.zero_mean(Qop)
    for lam in (0.3, 3.0):
        z = proj.solve(lam)
        s_shared = fact.QV_matrix() @ z
        res = hybrid.genhybr_solve(Aop, Rop, prior, b, hybrid.Fixed(lam),
                                   hybrid.SolverOptions(max_iter=10,
                                                        reorthogonalize=True))
        npt.assert_allclose(res.s, s_shared, rtol=1e-10, atol=1e-12)


def test_monotone_data_fit(rng):
    A, R, Q, b = random_problem(rng, 30, 25)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = gengk.gengk_init(Aop, Rop, Qop, b, max_steps=12, reorthogonalize=True)
    misfits = []
    for _ in range(12):
        gengk.gengk_step(fact)
        if fact.breakdown is not None:
            break
        proj = hybrid.ProjectedProblem(fact.bidiagonal().to_dense(), fact.beta1)
        misfits.append(proj.misfit(0.0))
    assert np.all(np.diff(misfits) <= 1e-10)


def test_gcv_flat_stopping(rng):
    A, R, Q, _ = random_problem(rng, 60, 40)
    s_true = rng.standard_normal(40)
    d = A @ s_true + 0.01 * rng.standard_normal(60)
    prior = PriorModel.zero_mean(DenseOperator(Q))
    res = hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R), prior, d,
                               hybrid.WGCV(0.8),
                               hybrid.SolverOptions(max_iter=60))
    assert res.stop_reason in ("gcv-flat", "breakdown", "max-iter")
    assert len(res.lambda_history) == res.iterations


def test_convergence_csv(tmp_path, rng):
    A, R, Q, _ = random_problem(rng, 20, 15)
    s_true = rng.standard_normal(15)
    d = A @ s_true
    prior = PriorModel.zero_mean(DenseOperator(Q))
    res = hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R), prior, d,
                               hybrid.Fixed(0.5),
                               hybrid.SolverOptions(max_iter=5), s_true=s_true)
    path = tmp_path / "conv.csv"
    res.write_convergence_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["iter", "lambda", "data_misfit", "solution_Qnorm",
                          "gcv_value", "rel_error"]
    assert len(lines) == res.iterations + 1
    # full round-trip precision
    assert float(lines[1].split(",")[1]) == res.lambda_history[0]


def test_relative_error_masked():
    s = np.array([1.0, 2.0, 100.0])
    s_true = np.array([1.0, 2.0, 0.0])
    mask = np.array([True, True, False])
    assert hybrid.relative_error(s, s_true, mask) == 0.0
