import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import DegenerateInputError
from dyninv import gengk
from dyninv.linop import DenseOperator, ScaledIdentityOperator, identity

from conftest import random_problem


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


def test_init_identity_operators():
    A = identity(2)
    fact = gengk.gengk_init(A, identity(2), identity(2), [3.0, 4.0], max_steps=0)
    assert fact.beta1 == pytest.approx(5.0)
    npt.assert_allclose(fact.U_matrix()[:, 0], [0.6, 0.8])
    assert fact.alphas[0] == pytest.approx(1.0)
    npt.assert_allclose(fact.V_matrix(1)[:, 0], [0.6, 0.8])


def test_init_weighted_norm():
    fact = gengk.gengk_init(identity(2), ScaledIdentityOperator(4.0, 2),
                            identity(2), [2.0, 0.0], max_steps=0)
    assert fact.beta1 == pytest.approx(1.0)
    npt.assert_allclose(fact.U_matrix()[:, 0], [2.0, 0.0])


def test_init_breakdown_b_orthogonal_to_range():
    A = DenseOperator([[1.0, 0.0], [0.0, 0.0]])
    fact = gengk.gengk_init(A, identity(2), identity(2), [0.0, 1.0], max_steps=0)
    assert fact.breakdown == 0
    assert fact.alphas == [0.0]


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
    fact = gengk.gengk(A, identity(2), identity(2), [1.0, 1.0], k=2)
    report = gengk.krylov_basis_span_check(fact)
    for key in ("resid_b", "resid_AQV", "resid_AtRinvU"):
        assert report[key] <= 1e-13, (key, report)
    assert report["orth_U"] <= 1e-13
    assert report["orth_V"] <= 1e-13


def test_random_weighted_orthogonality(rng):
    A, R, Q, b = random_problem(rng, 20, 30)
    fact = gengk.gengk(*wrap(A, R, Q), b, k=10, reorthogonalize=True)
    report = gengk.krylov_basis_span_check(fact)
    assert report["orth_U"] <= 1e-10
    assert report["orth_V"] <= 1e-10


def test_relations_without_reorthogonalization(rng):
    A, R, Q, b = random_problem(rng, 40, 50, cond=1e4)
    fact = gengk.gengk(*wrap(A, R, Q), b, k=25, reorthogonalize=False)
    report = gengk.krylov_basis_span_check(fact)
    # recurrences hold even when orthogonality degrades
    assert report["resid_b"] <= 1e-10
    assert report["resid_AQV"] <= 1e-10
    assert report["resid_AtRinvU"] <= 1e-10


def test_matches_standard_golub_kahan(rng):
    # with R = Q = I the weighted iteration is plain Golub-Kahan on (A, b)
    A = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    fact = gengk.gengk(DenseOperator(A), identity(15), identity(12), b, k=8,
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
    fact = gengk.gengk(*wrap(A, R, Q), b, k=12)
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
    fact = gengk.gengk(DenseOperator(A), identity(10), identity(8), b, k=6,
                       reorthogonalize=True)
    assert fact.breakdown is not None
    report = gengk.krylov_basis_span_check(fact)
    assert report["resid_AQV"] <= 1e-10
    assert report["resid_AtRinvU"] <= 1e-10


def test_bidiagonal_dense_structure():
    B = gengk.Bidiagonal(np.array([1.0, 2.0]), np.array([3.0, 4.0])).to_dense()
    npt.assert_allclose(B, [[1, 0], [3, 2], [0, 4]])


def test_diagnostics_csv(tmp_path, rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = gengk.gengk(*wrap(A, R, Q), b, k=5, reorthogonalize=True)
    path = tmp_path / "diag.csv"
    gengk.dump_diagnostics_csv(fact, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["iter", "alpha", "beta"]
    assert len(lines) == fact.k + 1


def test_diagnostics_rows_report_each_prefix(tmp_path, rng):
    A, R, Q, b = random_problem(rng, 40, 50, cond=1e4)
    ops = wrap(A, R, Q)
    fact = gengk.gengk(*ops, b, k=25, reorthogonalize=False)
    path = tmp_path / "diag.csv"
    gengk.dump_diagnostics_csv(fact, path)
    rows = path.read_text().strip().splitlines()[1:]
    assert len(rows) == fact.k
    for i, row in enumerate(rows, start=1):
        orth_u, orth_v, rec = (float(x) for x in row.split(",")[3:])
        report = gengk.krylov_basis_span_check(gengk.gengk(*ops, b, k=i))
        npt.assert_allclose(
            [orth_u, orth_v, rec],
            [report["orth_U"], report["orth_V"],
             max(report["resid_AQV"], report["resid_AtRinvU"])],
            rtol=1e-8, atol=1e-14)


def test_basis_accessors_are_views(rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = gengk.gengk(*wrap(A, R, Q), b, k=4, reorthogonalize=True)
    for first, second in [(fact.U_matrix(), fact.U_matrix(2)),
                          (fact.V_matrix(), fact.V_matrix(2)),
                          (fact.QV_matrix(), fact.QV_matrix(2))]:
        assert np.shares_memory(first, second)
    assert fact.U_matrix().shape == (12, 5)
    assert fact.V_matrix().shape == fact.QV_matrix().shape == (10, 4)


def test_stepping_past_max_steps_raises(rng):
    A, R, Q, b = random_problem(rng, 12, 10)
    fact = gengk.gengk_init(*wrap(A, R, Q), b, max_steps=2)
    gengk.gengk_step(fact)
    gengk.gengk_step(fact)
    with pytest.raises(RuntimeError):
        gengk.gengk_step(fact)
    assert fact.k == 2
