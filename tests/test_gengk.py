import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import DegenerateInputError
from dyninv import gengk
from dyninv.linop import DenseOperator, ScaledIdentityOperator, identity

from conftest import random_orthogonal, random_problem, random_spd, run_gengk


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


def test_init_identity_operators():
    A = identity(2)
    fact = gengk.gengk_init(A, identity(2), identity(2), [3.0, 4.0], max_steps=0)
    assert fact.beta1 == pytest.approx(5.0)
    # u_1 beta_1 = b, so u_1 = [0.6, 0.8]
    assert gengk.krylov_basis_span_check(fact)["resid_b"] <= 1e-15
    assert fact.alphas[0] == pytest.approx(1.0)
    npt.assert_allclose(fact.QV_matrix(1)[:, 0], [0.6, 0.8])


def test_init_weighted_norm():
    fact = gengk.gengk_init(identity(2), ScaledIdentityOperator(4.0, 2),
                            identity(2), [2.0, 0.0], max_steps=0)
    assert fact.beta1 == pytest.approx(1.0)
    # u_1 beta_1 = b, so u_1 = [2, 0]
    assert gengk.krylov_basis_span_check(fact)["resid_b"] <= 1e-15


def test_init_breakdown_b_orthogonal_to_range():
    A = DenseOperator([[1.0, 0.0], [0.0, 0.0]])
    fact = gengk.gengk_init(A, identity(2), identity(2), [0.0, 1.0], max_steps=0)
    assert fact.breakdown == 0
    assert fact.alphas == [0.0]


def test_init_breakdown_b_orthogonal_to_range_up_to_rounding():
    # b is a left singular vector of a zero singular value: A' b is rounding
    # noise (alpha_1 ~ 1e-15), which must not start a Krylov space
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 10))
    b = np.linalg.svd(A)[0][:, 8]
    fact = run_gengk(DenseOperator(A), identity(12), identity(10), b, k=10,
                     reorthogonalize=True)
    assert fact.k == 0
    assert fact.breakdown == 0


def test_init_zero_b_rejected():
    with pytest.raises(DegenerateInputError):
        gengk.gengk_init(identity(2), identity(2), identity(2), [0.0, 0.0],
                         max_steps=0)


def test_identity_exhaustion():
    fact = gengk.gengk_init(identity(2), identity(2), identity(2), [3.0, 4.0],
                            max_steps=1)
    gengk.gengk_step(fact)
    assert fact.breakdown is not None
    assert fact.betas[-1] == 0.0


def test_small_dense_relations():
    A = DenseOperator(np.diag([1.0, 2.0]))
    fact = run_gengk(A, identity(2), identity(2), [1.0, 1.0], k=2)
    report = gengk.krylov_basis_span_check(fact)
    for key in ("resid_b", "resid_AQV", "resid_AtRinvU"):
        assert report[key] <= 1e-13, (key, report)
    assert report["orth_U"] <= 1e-13
    assert report["orth_V"] <= 1e-13


def test_random_weighted_orthogonality(rng):
    A, R, Q, b = random_problem(rng, 20, 30)
    fact = run_gengk(*wrap(A, R, Q), b, k=10, reorthogonalize=True)
    report = gengk.krylov_basis_span_check(fact)
    assert report["orth_U"] <= 1e-10
    assert report["orth_V"] <= 1e-10
    # well conditioned: one Gram-Schmidt pass suffices for each new u, the
    # side with fewer rows (m < n), and v's drift estimate stays far below
    # LONG_SIDE_ORTH_TOL, so v takes none
    assert fact.reorth_passes == [1] * fact.k


def test_relations_without_reorthogonalization(rng):
    A, R, Q, b = random_problem(rng, 40, 50, cond=1e4)
    fact = run_gengk(*wrap(A, R, Q), b, k=25, reorthogonalize=False)
    report = gengk.krylov_basis_span_check(fact)
    # recurrences hold even when orthogonality degrades
    assert report["resid_b"] <= 1e-10
    assert report["resid_AQV"] <= 1e-10
    assert report["resid_AtRinvU"] <= 1e-10


def test_matches_standard_golub_kahan(rng):
    # with R = Q = I the weighted iteration is plain Golub-Kahan on (A, b)
    A = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    fact = run_gengk(DenseOperator(A), identity(15), identity(12), b, k=8,
                     reorthogonalize=True)

    # reference bidiagonalization
    beta = np.linalg.norm(b)
    u = b / beta
    alphas, betas, us, vs = [], [], [u], []
    w = A.T @ u
    alphas.append(np.linalg.norm(w))
    vs.append(w / alphas[0])
    for i in range(8):
        u_new = A @ vs[i] - alphas[i] * us[i]
        for uj in us:  # reorthogonalize to match
            u_new -= (uj @ u_new) * uj
        betas.append(np.linalg.norm(u_new))
        us.append(u_new / betas[-1])
        v_new = A.T @ us[-1] - betas[-1] * vs[i]
        for vj in vs:
            v_new -= (vj @ v_new) * vj
        alphas.append(np.linalg.norm(v_new))
        vs.append(v_new / alphas[-1])

    npt.assert_allclose(fact.alphas, alphas, rtol=1e-12)
    npt.assert_allclose(fact.betas, betas, rtol=1e-12)


def test_scalars_nonnegative(rng):
    A, R, Q, b = random_problem(rng, 25, 18)
    fact = run_gengk(*wrap(A, R, Q), b, k=12)
    assert all(a >= 0 for a in fact.alphas)
    assert all(be >= 0 for be in fact.betas)


def test_k0_span_check():
    fact = gengk.gengk_init(identity(3), identity(3), identity(3), [1.0, 0.0, 0.0],
                            max_steps=0)
    report = gengk.krylov_basis_span_check(fact)
    assert report["resid_b"] == pytest.approx(0.0, abs=1e-15)


def test_post_breakdown_relations_hold(rng):
    # rank-2 operator forces an early breakdown; relations still hold truncated
    A = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 8))
    b = A @ rng.standard_normal(8)
    fact = run_gengk(DenseOperator(A), identity(10), identity(8), b, k=6,
                     reorthogonalize=True)
    assert fact.breakdown is not None
    report = gengk.krylov_basis_span_check(fact)
    assert report["resid_AQV"] <= 1e-10
    assert report["resid_AtRinvU"] <= 1e-10


def test_bidiagonal_dense_structure():
    fact = gengk.GenGKFactorization(A=identity(2), R=identity(2), Q=identity(2),
                                    b=np.ones(2), beta1=1.0, alphas=[1.0, 2.0, 5.0],
                                    betas=[3.0, 4.0])
    npt.assert_array_equal(fact.bidiagonal(), [[1, 0], [3, 2], [0, 4]])
    npt.assert_array_equal(fact.bidiagonal(1), [[1], [3]])
    assert fact.bidiagonal(0).shape == (1, 0)


def test_breakdown_tol_before_and_after_the_first_beta(rng):
    # right after initialization there is alpha_1 and no beta yet
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = gengk.gengk_init(*(DenseOperator(M) for M in (A, R, Q)), b, 3)
    assert fact.betas == []
    assert fact.breakdown_tol == gengk.BREAKDOWN_RTOL * max(fact.alphas)
    gengk.gengk_step(fact)
    assert fact.breakdown_tol == gengk.BREAKDOWN_RTOL * max(fact.alphas + fact.betas)


def test_diagnostics_csv(tmp_path, rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = run_gengk(*wrap(A, R, Q), b, k=5, reorthogonalize=True)
    path = tmp_path / "diag.csv"
    gengk.dump_diagnostics_csv(fact, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["iter", "alpha", "beta", "orth_U", "orth_V",
                                   "rec_resid", "reorth_passes"]
    assert len(lines) == fact.k + 1
    assert [int(line.split(",")[6]) for line in lines[1:]] == fact.reorth_passes


def test_diagnostics_rows_report_each_prefix(tmp_path, rng):
    A, R, Q, b = random_problem(rng, 40, 50, cond=1e4)
    ops = wrap(A, R, Q)
    fact = run_gengk(*ops, b, k=25, reorthogonalize=False)
    path = tmp_path / "diag.csv"
    gengk.dump_diagnostics_csv(fact, path)
    rows = path.read_text().strip().splitlines()[1:]
    assert len(rows) == fact.k
    for i, row in enumerate(rows, start=1):
        orth_u, orth_v, rec = (float(x) for x in row.split(",")[3:6])
        report = gengk.krylov_basis_span_check(run_gengk(*ops, b, k=i))
        npt.assert_allclose(
            [orth_u, orth_v, rec],
            [report["orth_U"], report["orth_V"],
             max(report["resid_AQV"], report["resid_AtRinvU"])],
            rtol=1e-8, atol=1e-14)


def test_basis_accessors_are_views(rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = run_gengk(*wrap(A, R, Q), b, k=4, reorthogonalize=True)
    assert np.shares_memory(fact.QV_matrix(), fact.QV_matrix(2))
    assert fact.QV_matrix().shape == (10, 4)


def test_stepping_past_max_steps_raises(rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = gengk.gengk_init(*wrap(A, R, Q), b, max_steps=2)
    gengk.gengk_step(fact)
    gengk.gengk_step(fact)
    with pytest.raises(RuntimeError):
        gengk.gengk_step(fact)
    assert fact.k == 2


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_breakdown_step_independent_of_units(seed):
    # the breakdown test compares alpha/beta with operator-scale numbers only,
    # so rescaling b (or A) must not move the step at which it fires
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    steps = {}
    for b_scale, A_scale in [(1.0, 1.0), (1e-13, 1.0), (1e13, 1.0), (1e15, 1.0),
                             (1.0, 1e-13), (1.0, 1e13)]:
        fact = run_gengk(DenseOperator(A_scale * A), identity(12), identity(12),
                         b_scale * b, k=20, reorthogonalize=True)
        steps[(b_scale, A_scale)] = fact.breakdown
    assert set(steps.values()) == {12}, steps


def test_init_allocates_three_basis_blocks(rng):
    # U (m rows), V and Q V (n rows), each with max_steps + 1 columns: the
    # factorization keeps no R^{-1} U block
    m, n, steps = 2000, 500, 20
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    tracemalloc.start()
    try:
        gengk.gengk_init(A, ScaledIdentityOperator(2.0, m), identity(n), b,
                         max_steps=steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (m + 2 * n) * (steps + 1) * 8 + 64 * 1024


def test_relations_dense_weight_full_reorthogonalization(rng):
    # a dense, non-diagonal SPD R exercises the R^{-1} u recomputed after
    # each Gram-Schmidt pass, all the way to an exhausted Krylov space
    A, R, Q, b = random_problem(rng, 20, 15)
    fact = run_gengk(*wrap(A, R, Q), b, k=15, reorthogonalize=True)
    assert fact.k == 15
    report = gengk.krylov_basis_span_check(fact)
    assert report["orth_U"] <= 1e-12
    assert report["resid_AtRinvU"] <= 1e-12
    # m > n, so each step orthogonalizes v (u's drift estimate stays below
    # LONG_SIDE_ORTH_TOL), in one pass until v_16,
    # which lies in the span of v_1 .. v_15 up to rounding: the first pass
    # removes nearly all of it, so DGKS runs a second
    assert fact.reorth_passes == [1] * 14 + [2]


@pytest.mark.parametrize("m, n", [(20, 30), (30, 20)], ids=["m<n", "m>n"])
def test_a_well_conditioned_step_reorthogonalizes_only_the_side_with_fewer_rows(rng, monkeypatch, m, n):
    A, R, Q, b = random_problem(rng, m, n)
    rows = []  # row count of every basis a vector is orthogonalized against
    cgs2 = gengk._cgs2

    def recording(W, *args):
        if W.shape[1]:
            rows.append(W.shape[0])
        return cgs2(W, *args)

    monkeypatch.setattr(gengk, "_cgs2", recording)
    fact = run_gengk(*wrap(A, R, Q), b, k=10, reorthogonalize=True)
    assert fact.k == 10
    assert rows == [min(m, n)] * fact.k
    report = gengk.krylov_basis_span_check(fact)
    assert report["orth_U"] <= 1e-12 and report["orth_V"] <= 1e-12


def _ill_conditioned_problem(rng, m, n, decades):
    # singular values over the given decades, and weights of condition 1e3
    r = min(m, n)
    A = ((random_orthogonal(rng, m)[:, :r] * np.logspace(0, -decades, r))
         @ random_orthogonal(rng, n)[:r, :])
    return A, random_spd(rng, m, 1e3), random_spd(rng, n, 1e3), rng.standard_normal(m)


@pytest.mark.parametrize("decades", [4, 6, 8])
@pytest.mark.parametrize("m, n", [(120, 200), (200, 120)], ids=["m<n", "m>n"])
def test_both_sides_stay_orthogonal_at_depth(m, n, decades):
    A, R, Q, b = _ill_conditioned_problem(np.random.default_rng(0), m, n, decades)
    long_side = "orth_V" if m <= n else "orth_U"
    fact = run_gengk(*wrap(A, R, Q), b, k=90, reorthogonalize=True)
    assert fact.k == 90
    report = gengk.krylov_basis_span_check(fact)
    assert report["orth_U"] <= 1e-10 and report["orth_V"] <= 1e-10
    # without reorthogonalization the same run loses both bases entirely
    plain = run_gengk(*wrap(A, R, Q), b, k=90)
    assert gengk.krylov_basis_span_check(plain)[long_side] > 0.5


@pytest.mark.parametrize("m, n", [(120, 200), (200, 120)], ids=["m<n", "m>n"])
def test_the_drift_estimate_orthogonalizes_the_long_side(m, n, monkeypatch):
    # over 8 decades the long side's Gram deviation grows like eps cond(B_k)
    # (near 1e7 here) when only the short side is orthogonalized; the drift
    # estimate orthogonalizes some long-side vectors too and keeps it
    # 100 times smaller
    A, R, Q, b = _ill_conditioned_problem(np.random.default_rng(0), m, n, 8)
    long_side = "orth_V" if m <= n else "orth_U"
    fact = run_gengk(*wrap(A, R, Q), b, k=90, reorthogonalize=True)
    assert fact.k < sum(fact.reorth_passes) < 2 * fact.k
    monkeypatch.setattr(gengk, "LONG_SIDE_ORTH_TOL", np.inf)
    one_sided = run_gengk(*wrap(A, R, Q), b, k=90, reorthogonalize=True)
    assert one_sided.reorth_passes == [1] * 90
    assert (gengk.krylov_basis_span_check(one_sided)[long_side]
            > 100 * gengk.krylov_basis_span_check(fact)[long_side])


def _m_orthonormal_block(rng, n, k):
    # M dense SPD and W with W' M W = I, from the Cholesky factor of G' M G
    M = random_spd(rng, n)
    G = rng.standard_normal((n, k))
    L = np.linalg.cholesky(G.T @ M @ G)
    W = np.linalg.solve(L, G.T).T
    return M, W


def test_cgs2_second_pass_when_first_cancels(rng):
    # x is W c plus a 1e-10 component: one pass leaves W' M y at the rounding
    # level of W c, far above that of y itself, so the second pass is needed
    M, W = _m_orthonormal_block(rng, 50, 10)
    x = W @ rng.standard_normal(10) + 1e-10 * rng.standard_normal(50)
    Mx = M @ x
    y, My, y_sq, passes = gengk._cgs2(W, x, Mx, x @ Mx, lambda x, Mx, c: M @ x)
    assert passes == 2
    assert np.max(np.abs(W.T @ My)) / np.sqrt(y_sq) <= 1e-14


def test_cgs2_against_no_columns_returns_its_input(rng):
    M = random_spd(rng, 20)
    x = rng.standard_normal(20)
    Mx = M @ x

    def next_Mx(x, Mx, c):
        raise AssertionError("no pass should run")

    y, My, y_sq, passes = gengk._cgs2(np.empty((20, 0)), x, Mx, 2.5, next_Mx)
    assert y is x and My is Mx and passes == 0
    assert y_sq == 2.5  # the caller's x'Mx, not formed again


def test_cgs2_one_pass_for_a_random_vector(rng):
    M, W = _m_orthonormal_block(rng, 50, 10)
    x = rng.standard_normal(50)
    Mx = M @ x
    y, My, y_sq, passes = gengk._cgs2(W, x, Mx, x @ Mx, lambda x, Mx, c: M @ x)
    assert passes == 1
    # the norm after the pass, not the one before it
    assert y_sq == pytest.approx(y @ My, rel=1e-14)
    assert np.max(np.abs(W.T @ My)) / np.sqrt(y_sq) <= 1e-14

