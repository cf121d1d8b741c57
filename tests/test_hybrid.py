import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import ConditioningError, ParameterError
from dyninv import gengk, hybrid, oracle, problems
from dyninv import priorcov as pc
from dyninv.linop import DenseOperator, DiagonalOperator, KroneckerOperator, identity
from dyninv.priorcov import PriorModel

from conftest import random_orthogonal, random_problem, run_gengk, tikhonov


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


# ----------------------------------------------------------------------
# Projected problem
# ----------------------------------------------------------------------

def test_projected_tikhonov_scalar():
    B = np.array([[1.0], [0.0]])
    z = tikhonov(hybrid.ProjectedProblem(B, beta1=5.0), 2.0)
    npt.assert_allclose(z, [1.0])  # (1 + 4) z = 5


def test_projected_tikhonov_large_lambda():
    B = np.array([[1.0], [0.5]])
    z = tikhonov(hybrid.ProjectedProblem(B, beta1=1.0), 1e8)
    assert np.linalg.norm(z) < 1e-14


def test_projected_matches_dense_normal_equations(rng):
    A = np.diag([1.0, 2.0])
    b = np.array([1.0, 1.0])
    lam = 1.0
    fact = run_gengk(DenseOperator(A), identity(2), identity(2), b, k=2,
                     reorthogonalize=True)
    B = fact.bidiagonal()
    z = tikhonov(hybrid.ProjectedProblem(B, fact.beta1), lam)
    s = fact.QV_matrix() @ z
    expected = np.linalg.solve(A.T @ A + lam ** 2 * np.eye(2), A.T @ b)
    npt.assert_allclose(s, expected, rtol=1e-12)


def test_projected_gcv_analytic():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    # G = 1 * 25 * (1/2)^2 / (2 - 1/2)^2 = 6.25 / 2.25
    assert proj.fit(1.0).gcv == pytest.approx(6.25 / 2.25, rel=1e-12)
    assert proj.fit(1.0).gcv == pytest.approx(2.7778, abs=1e-4)


def test_projected_gcv_large_lambda_limit():
    B = np.array([[1.0, 0.0], [0.7, 2.0], [0.0, 0.3]])
    k, beta1 = 2, 3.0
    G = hybrid.ProjectedProblem(B, beta1).fit(1e10).gcv
    assert G == pytest.approx(k * beta1 ** 2 / (k + 1) ** 2, rel=1e-6)


def test_projected_wgcv():
    proj = hybrid.ProjectedProblem(np.array([[1.0], [0.0]]), 5.0)
    assert proj.fit(1.0, w=0.5).gcv == pytest.approx(6.25 / 3.0625, rel=1e-12)
    assert proj.fit(1.0, w=0.5).gcv == pytest.approx(2.0408, abs=1e-4)
    with pytest.raises(ParameterError):
        hybrid.WGCV(1.5)


def test_wgcv_w1_equals_gcv(rng):
    for _ in range(10):
        k = int(rng.integers(1, 8))
        B = rng.standard_normal((k + 1, k))
        beta1 = float(rng.random() + 0.5)
        lam = float(10 ** rng.uniform(-3, 2))
        proj = hybrid.ProjectedProblem(B, beta1)
        assert proj.fit(lam, w=1.0).gcv == pytest.approx(
            proj.fit(lam).gcv, abs=1e-14, rel=1e-14)


def _rank_deficient_bidiagonal():
    """(H B, beta1): s_2 = 1e-17 lies below the lambda = 0 cutoff
    s_1 eps max(B.shape), and beta1 e1 has the components c = (1, 1, 0.5) in
    the left singular basis H."""
    B = np.array([[1.0, 0.0], [0.0, 1e-17], [0.0, 0.0]])
    c = np.array([1.0, 1.0, 0.5])
    beta1 = np.linalg.norm(c)
    # Householder reflector with H e1 = c / beta1
    u = c / beta1 - np.eye(3)[0]
    H = np.eye(3) - 2.0 * np.outer(u, u) / (u @ u)
    return H @ B, beta1


def test_lambda_zero_misfit_and_gcv_agree_with_solve():
    # z(0) drops s_2 = 1e-17; the misfit and GCV value at 0 must treat it as
    # unfitted too
    HB, beta1 = _rank_deficient_bidiagonal()
    proj = hybrid.ProjectedProblem(HB, beta1)
    z = tikhonov(proj, 0.0)
    npt.assert_allclose(np.abs(z), [1.0, 0.0], atol=1e-12)
    resid = np.linalg.norm(HB @ z - beta1 * np.eye(3)[0])
    assert resid == pytest.approx(np.sqrt(1.0 + 0.25), rel=1e-12)
    assert proj.fit(0.0).misfit == pytest.approx(resid, rel=1e-12)
    # one fitted singular value: G = k * r^2 / (k + 1 - 1)^2
    assert proj.fit(0.0).gcv == pytest.approx(2 * resid ** 2 / 4.0, rel=1e-12)


def _filter_reference(proj, lam, w):
    """GCV and misfit written out from both filters, each formed directly:
    phi = s^2 / (s^2 + lam^2) in the trace and psi = lam^2 / (s^2 + lam^2) in
    the residual; at lam = 0, phi is 1 on the singular values above
    s_max eps max(B.shape) and psi is 1 - phi."""
    s, c, k = proj.s, proj.c, proj.k
    kept = s > s[0] * np.finfo(float).eps * max(proj.B.shape)
    gcv, misfit = [], []
    for l in lam:
        if l == 0:
            phi = kept.astype(float)
            psi = 1.0 - phi
        else:
            phi = s ** 2 / (s ** 2 + l ** 2)
            psi = l ** 2 / (s ** 2 + l ** 2)
        r2 = np.sum((psi * c[:k]) ** 2) + np.sum(c[k:] ** 2)
        misfit.append(np.sqrt(r2))
        gcv.append(k * r2 / (k + 1 - w * np.sum(phi)) ** 2)
    return np.array(gcv), np.array(misfit)


def test_gcv_and_misfit_match_the_two_filter_formula(rng):
    # gcv and misfit use psi alone, with sum(phi) = k - sum(psi)
    cases = [(rng.standard_normal((k + 1, k)), float(rng.random() + 0.5))
             for k in (1, 2, 5, 12, 40, 81)]
    cases.append(_rank_deficient_bidiagonal())
    # beta1 e1 in the range of B: the residual at lam = 0 is exactly zero
    cases.append((np.array([[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]]), 3.0))
    for B, beta1 in cases:
        proj = hybrid.ProjectedProblem(B, beta1)
        s_max = proj.s[0]
        lam = np.concatenate([[0.0], np.logspace(np.log10(1e-12 * s_max),
                                                 np.log10(1e3 * s_max), 200)])
        for w in (1.0, 0.8):
            gcv, misfit = _filter_reference(proj, lam, w)
            for got, ref in ((proj.fit(lam, w).gcv, gcv), (proj.fit(lam).misfit, misfit)):
                # relative, or absolute where the reference is zero
                scale = np.where(ref == 0, 1.0, np.abs(ref))
                assert np.max(np.abs(got - ref) / scale) <= 1e-13


def test_array_gcv_and_misfit_match_scalar_loop(rng):
    # the array holds lambda = 0, so fit takes its zero-lambda branch on it,
    # and the positive lambdas one at a time take the branch without it
    for _ in range(5):
        k = int(rng.integers(1, 12))
        proj = hybrid.ProjectedProblem(rng.standard_normal((k + 1, k)),
                                       float(rng.random() + 0.5))
        s_max = proj.s[0]
        grid = np.concatenate([[0.0], np.logspace(np.log10(1e-12 * s_max),
                                                  np.log10(1e3 * s_max), 200)])
        for w in (1.0, 0.8):
            npt.assert_allclose(proj.fit(grid, w).gcv, [proj.fit(l, w).gcv for l in grid],
                                rtol=1e-14, atol=0)
        npt.assert_allclose(proj.fit(grid).misfit, [proj.fit(l).misfit for l in grid],
                            rtol=1e-14, atol=0)
        npt.assert_allclose(proj.fit(grid).f,
                            [proj.fit(l).f for l in grid], rtol=1e-14, atol=0)


def _optimal_setup(rng):
    A, R, Q, b = random_problem(rng, 20, 15)
    fact = run_gengk(*wrap(A, R, Q), b, k=15, reorthogonalize=True)
    mu = rng.standard_normal(15)
    s_true = rng.standard_normal(15)
    return fact, mu, s_true


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_optimal_error_matches_direct_evaluation(rng, masked):
    fact, mu, s_true = _optimal_setup(rng)
    mask = rng.random(s_true.size) < 0.5 if masked else None
    keep = slice(None) if mask is None else mask
    error = hybrid.TruthError(mu, s_true, fact.k, mask)
    for k in range(1, fact.k + 1):
        QV = fact.QV_matrix(k)
        error.extend(QV)  # one column at a time, as the solver does
        proj = hybrid.ProjectedProblem(fact.bidiagonal(k), fact.beta1)
        grid = np.logspace(np.log10(1e-12 * proj.s[0]), np.log10(1e3 * proj.s[0]),
                           200)
        direct = [np.linalg.norm((mu + QV @ tikhonov(proj, l) - s_true)[keep])
                  for l in grid]
        npt.assert_allclose(error.objective(proj)(grid), direct, rtol=1e-10)


def test_optimal_selection_matches_direct_closure(rng):
    fact, mu, s_true = _optimal_setup(rng)
    QV = fact.QV_matrix()
    error = hybrid.TruthError(mu, s_true, fact.k)
    error.extend(QV)
    for k in (1, 4, 9, fact.k):
        proj = hybrid.ProjectedProblem(fact.bidiagonal(k), fact.beta1)

        def direct(lam):
            # the error as the solver evaluated it before the Gram identity:
            # one reconstruction per lambda
            return np.linalg.norm(mu + QV[:, :k] @ tikhonov(proj, lam) - s_true)

        def oracle_closure(lam):
            lam = np.asarray(lam, dtype=float)
            if lam.ndim:
                return np.array([direct(l) for l in lam])
            return direct(lam)

        s_max = proj.s[0]
        lam_gram = hybrid.select_lambda(hybrid.Optimal(s_true), proj,
                                        error=error.objective(proj))
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
        lam = hybrid.minimize_over_lambda(lambda l: proj.fit(l).gcv, s_max)
        grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 2000)
        lam_grid = grid[np.argmin([proj.fit(l).gcv for l in grid])]
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


@pytest.mark.parametrize("f, s_max, calls", [
    # flat on the grid: no zoom round can improve on it
    (np.ones_like, 2.0, 1),
    # the plateau's left edge needs every round to reach 1e-12 in lambda
    (lambda lam: np.maximum(np.abs(np.log(lam)), 2.0), 1.0,
     1 + hybrid.LAMBDA_ZOOM_ROUNDS),
], ids=["constant", "plateau"])
def test_search_stops_at_the_first_flat_round(f, s_max, calls):
    counted = []

    def counting(lam):
        counted.append(lam.size)
        return f(lam)

    hybrid.minimize_over_lambda(counting, s_max)
    assert len(counted) == calls


def _counting(f, counted):
    def counting(lam):
        counted.append(lam.size)
        return f(lam)
    return counting


@pytest.mark.parametrize("f, end", [
    (lambda lam: 1.0 / (1.0 + lam), 2e3),       # falls towards lambda_max
    (lambda lam: np.log1p(lam), 2e-12),          # rises towards lambda_min
], ids=["falling", "rising"])
def test_search_stops_at_a_window_end_it_finds_again(f, end):
    # the grid puts the minimum on the window's end, and the first zoom
    # round, between that end and its neighbour, puts it there again
    counted = []
    lam = hybrid.minimize_over_lambda(_counting(f, counted), 2.0)
    assert lam == pytest.approx(end, rel=1e-12, abs=0)
    assert counted == [hybrid.LAMBDA_GRID_POINTS, hybrid.LAMBDA_ZOOM_POINTS]


def test_search_converges_superlinearly_at_a_smooth_minimum():
    # GCV of these random bidiagonals with decaying alphas and betas has an
    # interior minimum; zoom rounds that only shrink the neighbour bracket
    # by 8 reach the flat round after 8 or 9 of them
    rng = np.random.default_rng(0)
    for _ in range(12):
        k = int(rng.integers(5, 40))
        B = np.zeros((k + 1, k))
        B[np.arange(k), np.arange(k)] = rng.uniform(0.5, 1.5, k) * np.logspace(0, -3, k)
        B[np.arange(1, k + 1), np.arange(k)] = rng.uniform(0.5, 1.5, k) * np.logspace(0, -3, k)
        proj = hybrid.ProjectedProblem(B, 1.0)
        s_max = proj.s[0]
        counted = []
        lam = hybrid.minimize_over_lambda(_counting(lambda l: proj.fit(l).gcv, counted), s_max)
        assert 1e-12 * s_max < lam < 1e3 * s_max
        assert len(counted) <= 1 + 6
        ref = golden_section_lambda(lambda l: proj.fit(l).gcv, s_max)
        assert proj.fit(lam).gcv <= proj.fit(ref).gcv * (1 + 1e-12)


@pytest.mark.parametrize("c", [0.3, -2.0, 1.7])
def test_search_ends_at_the_vertex_of_an_exact_parabola(c):
    # two successive parabola vertices of (log lam - c)^2 agree to the last
    # bit, so the next round has zero width: every point is the vertex, the
    # round is flat, and the round over the whole bracket that confirms it
    # ends the search.
    # Treating the zero width as "no narrowing" instead keeps zooming the
    # bracket to the round cap (15 calls each).
    counted = []
    lam = hybrid.minimize_over_lambda(_counting(lambda l: (np.log(l) - c) ** 2, counted),
                                      1.0)
    assert len(counted) <= 5
    assert abs(np.log(lam) - c) <= 1e-12


def test_search_confirms_a_flat_narrowed_round_over_the_whole_bracket():
    # a parabola in log-lambda gives the grid and the first zoom round the
    # same vertex c, so the next round is narrowed to nothing around c and is
    # flat; the deeper minimum, a narrow dip between two points of the first
    # zoom round, lies elsewhere in the bracket
    lo, hi = np.log(hybrid.LAMBDA_LO_FACTOR), np.log(hybrid.LAMBDA_HI_FACTOR)
    step = (hi - lo) / (hybrid.LAMBDA_GRID_POINTS - 1)
    c = lo + 150.3 * step
    zoom = np.linspace(lo + 149 * step, lo + 151 * step, hybrid.LAMBDA_ZOOM_POINTS)
    d = zoom[np.argmin(np.abs(zoom - c))] + 0.5 * (zoom[1] - zoom[0])

    def f(lam):
        x = np.log(lam)
        return (x - c) ** 2 - np.exp(-((x - d) / 1e-3) ** 2)

    lam = hybrid.minimize_over_lambda(f, 1.0)
    assert abs(np.log(lam) - d) < 1e-6
    assert f(np.array([lam]))[0] <= f(np.array([np.exp(d)]))[0] * (1 - 1e-12)


def test_select_lambda_optimal_self_consistent(rng):
    A, R, Q, b = random_problem(rng, 20, 15)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = run_gengk(Aop, Rop, Qop, b, k=15, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(fact.k), fact.beta1)
    QV = fact.QV_matrix(fact.k)
    s_target = QV @ tikhonov(proj, 1.0)
    error = hybrid.TruthError(np.zeros(QV.shape[0]), s_target, fact.k)
    error.extend(QV)
    lam = hybrid.select_lambda(hybrid.Optimal(s_target), proj,
                               error=error.objective(proj))
    err = np.linalg.norm(QV @ tikhonov(proj, lam) - s_target)
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


@pytest.mark.parametrize("weight", ["Q", "R"])
def test_non_spd_weight_raises(weight):
    # a weighted squared norm well below zero is no rounding at breakdown:
    # the solve must refuse, not stop with a finite s
    rng = np.random.default_rng(0)
    n = 12
    A = DenseOperator(rng.standard_normal((n, n)))
    d = rng.standard_normal(n)
    # a dense Q with one negative eigenvalue, or a diagonal R with one entry -1
    q, r = np.logspace(0, -2, n), np.ones(n)
    if weight == "Q":
        q[-1] = -q[-1]
    else:
        r[3] = -1.0
    U = random_orthogonal(rng, n)
    Q, R = DenseOperator((U * q) @ U.T), DiagonalOperator(r)
    with pytest.raises(ConditioningError, match=f"^{weight} is not positive definite"):
        hybrid.genhybr_solve(A, R, PriorModel.zero_mean(Q), d, hybrid.WGCV(),
                             hybrid.SolverOptions(max_iter=10, reorthogonalize=True))


def test_shift_invariance(rng):
    # one factorization serves all lambda values
    A, R, Q, b = random_problem(rng, 25, 20)
    Aop, Rop, Qop = wrap(A, R, Q)
    fact = run_gengk(Aop, Rop, Qop, b, k=10, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(), fact.beta1)
    prior = PriorModel.zero_mean(Qop)
    for lam in (0.3, 3.0):
        z = tikhonov(proj, lam)
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
        proj = hybrid.ProjectedProblem(fact.bidiagonal(), fact.beta1)
        misfits.append(proj.fit(0.0).misfit)
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


def _space_time_prior(nx, n_t, mean):
    pts = pc.PointSet.from_coords((np.arange(nx) + 0.5) / nx)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(1.5, 0.1), pts)
    Qt, _ = pc.build_minij_prior(n_t)
    Q = KroneckerOperator(Qt, KroneckerOperator(Qx, Qx))
    return PriorModel(np.full(Q.cols, mean), Q)


@pytest.mark.parametrize("kind, strategy", [("deblur", "optimal"),
                                            ("deblur", "fixed"),
                                            ("tomography", "optimal")])
def test_rel_error_matches_the_reconstruction_at_every_iteration(kind, strategy):
    if kind == "deblur":
        inst = problems.gen_dynamic_deblur(8, 8, 3, seed=1)
        prior, mask = _space_time_prior(8, 3, 0.1), None
    else:
        inst = problems.gen_ray_tomography(8, 8, 3, rays_per_time=5, seed=1)
        prior = _space_time_prior(8, 3, 0.0)
        mask = np.tile(inst.meta["mask"], 3)
        assert not mask.all()
    chosen = (hybrid.Optimal(inst.s_true) if strategy == "optimal"
              else hybrid.Fixed(0.5))
    res = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d, chosen,
                               hybrid.SolverOptions(max_iter=12, error_mask=mask),
                               s_true=inst.s_true)
    fact = res.factorization
    for i, it in enumerate(res.history, 1):
        z = tikhonov(hybrid.ProjectedProblem(fact.bidiagonal(i), fact.beta1), it.lam)
        direct = hybrid.relative_error(prior.mean + fact.QV_matrix(i) @ z,
                                       inst.s_true, mask)
        assert it.rel_error == pytest.approx(direct, rel=1e-10)


def test_a_solve_has_one_truth(rng):
    A, R, Q, _ = random_problem(rng, 20, 15)
    truth = rng.standard_normal(15)
    args = (DenseOperator(A), DenseOperator(R), PriorModel.zero_mean(DenseOperator(Q)),
            A @ truth, hybrid.Optimal(truth), hybrid.SolverOptions(max_iter=4))
    with pytest.raises(ParameterError):
        hybrid.genhybr_solve(*args, s_true=truth + 1.0)
    res = hybrid.genhybr_solve(*args, s_true=truth)
    assert [it.rel_error for it in res.history] == [
        it.rel_error for it in hybrid.genhybr_solve(*args).history]


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
