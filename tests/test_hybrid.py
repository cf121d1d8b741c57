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


def test_lambda_zero_misfit_and_gcv_agree_with_solve():
    # s_2 = 1e-17 lies below the cutoff s_1 eps max(B.shape), so solve(0)
    # drops it; misfit(0) and gcv(0) must treat it as unfitted too
    B = np.array([[1.0, 0.0], [0.0, 1e-17], [0.0, 0.0]])
    c = np.array([1.0, 1.0, 0.5])
    beta1 = np.linalg.norm(c)
    # Householder reflector with H e1 = c / beta1: beta1 e1 then has the
    # components c in the left singular basis H of H B
    u = c / beta1 - np.eye(3)[0]
    H = np.eye(3) - 2.0 * np.outer(u, u) / (u @ u)
    proj = hybrid.ProjectedProblem(H @ B, beta1)
    z = proj.solve(0.0)
    npt.assert_allclose(np.abs(z), [1.0, 0.0], atol=1e-12)
    resid = np.linalg.norm(H @ B @ z - beta1 * np.eye(3)[0])
    assert resid == pytest.approx(np.sqrt(1.0 + 0.25), rel=1e-12)
    assert proj.misfit(0.0) == pytest.approx(resid, rel=1e-12)
    # one fitted singular value: G = k * r^2 / (k + 1 - 1)^2
    assert proj.gcv(0.0) == pytest.approx(2 * resid ** 2 / 4.0, rel=1e-12)


def test_array_gcv_and_misfit_match_scalar_loop(rng):
    for _ in range(5):
        k = int(rng.integers(1, 12))
        proj = hybrid.ProjectedProblem(rng.standard_normal((k + 1, k)),
                                       float(rng.random() + 0.5))
        s_max = proj.s[0]
        grid = np.concatenate([[0.0], np.logspace(np.log10(1e-12 * s_max),
                                                  np.log10(1e3 * s_max), 200)])
        for w in (1.0, 0.8):
            npt.assert_allclose(proj.gcv(grid, w), [proj.gcv(l, w) for l in grid],
                                rtol=1e-14, atol=0)
        npt.assert_allclose(proj.misfit(grid), [proj.misfit(l) for l in grid],
                            rtol=1e-14, atol=0)
        npt.assert_allclose(proj.coefficients(grid),
                            [proj.coefficients(l) for l in grid], rtol=1e-14, atol=0)


def _optimal_setup(rng):
    A, R, Q, b = random_problem(rng, 20, 15)
    fact = gengk.gengk(*wrap(A, R, Q), b, k=15, reorthogonalize=True)
    mu = rng.standard_normal(15)
    s_true = rng.standard_normal(15)
    return fact, mu, s_true


def test_optimal_error_matches_direct_evaluation(rng):
    fact, mu, s_true = _optimal_setup(rng)
    error = hybrid.OptimalError(mu - s_true, fact.k)
    for k in range(1, fact.k + 1):
        QV = fact.QV_matrix(k)
        error.extend(QV)  # one column at a time, as the solver does
        proj = hybrid.ProjectedProblem(fact.bidiagonal(k).to_dense(), fact.beta1)
        grid = np.logspace(np.log10(1e-12 * proj.s[0]), np.log10(1e3 * proj.s[0]),
                           200)
        direct = [np.linalg.norm(mu + QV @ proj.solve(l) - s_true) for l in grid]
        npt.assert_allclose(error.objective(proj)(grid), direct, rtol=1e-10)


def test_optimal_selection_matches_direct_closure(rng):
    fact, mu, s_true = _optimal_setup(rng)
    QV = fact.QV_matrix()
    error = hybrid.OptimalError(mu - s_true, fact.k)
    error.extend(QV)
    for k in (1, 4, 9, fact.k):
        proj = hybrid.ProjectedProblem(fact.bidiagonal(k).to_dense(), fact.beta1)

        def direct(lam):
            # the error as the solver evaluated it before the Gram identity:
            # one reconstruction per lambda
            return np.linalg.norm(mu + QV[:, :k] @ proj.solve(lam) - s_true)

        def oracle_closure(lam):
            lam = np.asarray(lam, dtype=float)
            if lam.ndim:
                return np.array([direct(l) for l in lam])
            return direct(lam)

        s_max = proj.s[0]
        lam_gram = hybrid.select_lambda(hybrid.Optimal(s_true), proj, error=error)
        lam_direct = hybrid.minimize_over_lambda(oracle_closure, s_max)
        # compare errors, not lambdas: the error can be flat in lambda
        assert direct(lam_gram) == pytest.approx(direct(lam_direct), rel=1e-12)


def test_optimal_requires_error():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    with pytest.raises(ParameterError):
        hybrid.select_lambda(hybrid.Optimal(np.zeros(1)), proj)


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
    lam = hybrid.select_lambda(hybrid.WGCV(1.0), proj)
    assert lam <= 1e-11


def test_search_matches_fine_grid(rng):
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


def golden_section_lambda(f, s_max):
    """Reference search: the same 200-point grid, then 80 golden-section steps
    on log-lambda between the neighbours of the grid minimizer, kept only if
    the refined lambda does no worse than the grid point."""
    if s_max <= 0:
        return 0.0
    grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 200)
    vals = f(grid)
    i = int(np.argmin(vals))

    def g(x):
        return f(np.array([np.exp(x)]))[0]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(grid[max(i - 1, 0)]), np.log(grid[min(i + 1, grid.size - 1)])
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(80):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
    x = 0.5 * (a + b)
    return np.exp(x) if g(x) <= vals[i] else grid[i]


@pytest.mark.parametrize("seed", range(4))
def test_search_does_no_worse_than_golden_section(seed, monkeypatch):
    # every selection of seeded GCV, WGCV and Optimal solves, re-run through
    # the golden-section reference on the same objective
    rng = np.random.default_rng(seed)
    A, R, Q, _ = random_problem(rng, 60, 40)
    s_true = rng.standard_normal(40)
    d = A @ s_true + 0.01 * rng.standard_normal(60)
    prior = PriorModel.zero_mean(DenseOperator(Q))
    selections = []
    search = hybrid.minimize_over_lambda

    def recorded(f, s_max):
        lam = search(f, s_max)
        selections.append((f, s_max, lam))
        return lam

    monkeypatch.setattr(hybrid, "minimize_over_lambda", recorded)
    for strategy in (hybrid.WGCV(1.0), hybrid.WGCV(0.8), hybrid.Optimal(s_true)):
        hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R), prior, d,
                             strategy, hybrid.SolverOptions(max_iter=40))
    assert len(selections) > 40
    for f, s_max, lam in selections:
        ref = golden_section_lambda(f, s_max)
        assert f(np.array([lam]))[0] <= f(np.array([ref]))[0] * (1 + 1e-12)


@pytest.mark.parametrize("f, s_max, expected", [
    (np.ones_like, 2.0, 2e-12),
    (lambda lam: lam, 2.0, 2e-12),
    (lambda lam: -lam, 2.0, 2e3),
    # flat on [e^-2, e^2]: ties resolve to the plateau's left edge
    (lambda lam: np.maximum(np.abs(np.log(lam)), 2.0), 1.0, np.exp(-2.0)),
    (np.ones_like, 0.0, 0.0),
], ids=["constant", "increasing", "decreasing", "plateau", "s_max-zero"])
def test_search_edge_cases(f, s_max, expected):
    assert hybrid.minimize_over_lambda(f, s_max) == pytest.approx(
        expected, rel=1e-12, abs=0)


def test_select_lambda_optimal_self_consistent(rng):
    A, R, Q, b = random_problem(rng, 20, 15)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = gengk.gengk(Aop, Rop, Qop, b, k=15, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(fact.k).to_dense(), fact.beta1)
    QV = fact.QV_matrix(fact.k)
    s_target = QV @ proj.solve(1.0)
    error = hybrid.OptimalError(-s_target, fact.k)  # mu = 0
    error.extend(QV)
    lam = hybrid.select_lambda(hybrid.Optimal(s_target), proj, error=error)
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


def test_genhybr_scaled_data_gives_scaled_reconstruction():
    # the solve is linear in d: data in other units must take the same
    # iterations and give the reconstruction in those units
    rng = np.random.default_rng(0)
    A = DenseOperator(rng.standard_normal((12, 12)))
    d = rng.standard_normal(12)
    prior = PriorModel.zero_mean(identity(12))
    opts = hybrid.SolverOptions(max_iter=12, reorthogonalize=True)
    ref = hybrid.genhybr_solve(A, identity(12), prior, d, hybrid.Fixed(1e-8), opts)
    for scale in (1e-13, 1e13, 1e15):
        res = hybrid.genhybr_solve(A, identity(12), prior, scale * d,
                                   hybrid.Fixed(1e-8), opts)
        assert res.iterations == ref.iterations
        npt.assert_allclose(res.s, scale * ref.s, rtol=1e-10)


def test_genhybr_matches_dense_oracle(rng):
    m, n_s, n_t = 30, 8, 4
    n = n_s * n_t
    A, R, Q, _ = random_problem(rng, m, n)
    mu = rng.standard_normal(n)
    d = rng.standard_normal(m)
    lam = 0.7
    prior = PriorModel(mu, DenseOperator(Q))
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
    assert len(res.history) == res.iterations


@pytest.mark.parametrize("seed, wgcv_iters, gcv_iters",
                         [(0, 59, 59), (1, 51, 10), (2, 45, 6), (3, 59, 7)])
def test_gcv_flat_stop_fires_on_the_first_run_of_three(seed, wgcv_iters, gcv_iters):
    # the stop is re-derived from the recorded gcv and lambda values: the
    # last three iterations are flat or stagnant, and no earlier three are
    rng = np.random.default_rng(seed)
    A, R, Q, _ = random_problem(rng, 60, 40)
    s_true = rng.standard_normal(40)
    d = A @ s_true + 0.01 * rng.standard_normal(60)
    prior = PriorModel.zero_mean(DenseOperator(Q))
    opts = hybrid.SolverOptions(max_iter=60)
    for strategy, iters in ((hybrid.WGCV(0.8), wgcv_iters), (hybrid.WGCV(1.0), gcv_iters)):
        res = hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R), prior, d,
                                   strategy, opts)
        assert (res.stop_reason, res.iterations) == ("gcv-flat", iters)
        gcv = [it.gcv for it in res.history]
        lam = [it.lam for it in res.history]
        g_ref = abs(gcv[0]) if gcv[0] != 0 else 1.0
        flat = [abs(gcv[i] - gcv[i - 1]) / g_ref < opts.gcv_flat_tol
                or (lam[i - 1] > 0
                    and abs(lam[i] - lam[i - 1]) / lam[i - 1] < opts.lam_stag_tol)
                for i in range(1, iters)]
        runs = [all(flat[i - 3:i]) for i in range(3, len(flat) + 1)]
        assert runs[-1] and not any(runs[:-1])


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
    assert float(lines[1].split(",")[1]) == res.history[0].lam


def test_relative_error_masked():
    s = np.array([1.0, 2.0, 100.0])
    s_true = np.array([1.0, 2.0, 0.0])
    mask = np.array([True, True, False])
    assert hybrid.relative_error(s, s_true, mask) == 0.0
