import numpy as np
import numpy.testing as npt
import pytest

from dyninv.errors import ParameterError
from dyninv import priorcov as pc


# ----------------------------------------------------------------------
# Kernel evaluation
# ----------------------------------------------------------------------

def test_matern_half_integer_closed_forms():
    k = pc.MaternKernel(0.5, 1.0)
    assert k(1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert k(0.0) == 1.0
    k32 = pc.MaternKernel(1.5, 1.0)
    expected = (1 + np.sqrt(3)) * np.exp(-np.sqrt(3))  # 0.4833577...
    assert k32(1.0) == pytest.approx(expected, abs=1e-15)


def test_matern_exponential_matches_general_bessel():
    # half-integer closed form and the Bessel path agree where both apply
    r = np.linspace(0.01, 3, 50)
    closed = pc.MaternKernel(2.5, 0.7)(r)
    near = pc.MaternKernel(2.5 + 1e-9, 0.7)(r)
    npt.assert_allclose(closed, near, rtol=1e-6)


def test_matern_gaussian_limit():
    r = np.arange(0.0, 3.01, 0.1)
    vals = pc.MaternKernel(100.0, 1.0)(r)
    gauss = np.exp(-r ** 2 / 2.0)
    assert np.max(np.abs(vals - gauss)) <= 1e-2


def test_matern_huge_nu_switches_to_gaussian():
    r = np.array([0.0, 0.5, 1.0])
    vals = pc.MaternKernel(1e5, 2.0)(r)
    npt.assert_allclose(vals, np.exp(-r ** 2 / 8.0), rtol=1e-14)


def test_matern_monotone_decreasing():
    r = np.linspace(0.0, 4.0, 200)
    for nu in (0.5, 1.0, 1.5, 3.5, 10.5):
        vals = pc.MaternKernel(nu, 0.8)(r)
        assert np.all(np.diff(vals) < 0)


def test_matern_parameter_errors():
    with pytest.raises(ParameterError):
        pc.MaternKernel(-1.0, 1.0)
    with pytest.raises(ParameterError):
        pc.MaternKernel(1.0, 0.0)
    with pytest.raises(ParameterError):
        pc.MaternKernel(1.0, 1.0)(-0.1)


def test_gamma_exp_eval():
    assert pc.GammaExpKernel(2.0, 1.0)(1.0) == pytest.approx(np.exp(-1))
    assert pc.GammaExpKernel(1.0, 2.0)(0.0) == 1.0
    assert pc.GammaExpKernel(1.0, 0.5)(1.0) == pytest.approx(np.exp(-2))
    r = np.linspace(0, 3, 100)
    vals = pc.GammaExpKernel(1.3, 0.6)(r)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ParameterError):
        pc.GammaExpKernel(2.5, 1.0)


# ----------------------------------------------------------------------
# Kernel matrices
# ----------------------------------------------------------------------

def test_kernel_matrix_single_point():
    pts = pc.PointSet.from_coords([[0.0]])
    M = pc.build_kernel_matrix(pc.MaternKernel(0.5, 1.0), pts, nugget=0.0)
    npt.assert_allclose(M.to_dense(), [[1.0]])


def test_kernel_matrix_two_points():
    r = 0.7
    pts = pc.PointSet.from_coords([[0.0], [r]])
    M = pc.build_kernel_matrix(pc.MaternKernel(0.5, 1.0), pts, nugget=0.0).to_dense()
    e = np.exp(-r)
    npt.assert_allclose(M, [[1, e], [e, 1]], rtol=1e-14)


def test_kernel_matrix_toeplitz_times():
    pts = pc.PointSet.from_coords([0.0, 0.5, 1.0])
    M = pc.build_kernel_matrix(pc.MaternKernel(0.5, 1.0), pts, nugget=0.0).to_dense()
    npt.assert_allclose(M[0, 1], np.exp(-0.5), rtol=1e-14)
    npt.assert_allclose(M[0, 2], np.exp(-1.0), rtol=1e-14)
    npt.assert_allclose(M, M.T, atol=1e-14)


def test_kernel_matrix_spd(rng):
    pts = pc.PointSet.from_coords(rng.random((60, 2)))
    M = pc.build_kernel_matrix(pc.MaternKernel(2.5, 0.3), pts).to_dense()
    assert np.max(np.abs(M - M.T)) <= 1e-14
    assert np.linalg.eigvalsh(M)[0] > 0


# ----------------------------------------------------------------------
# Temporal priors
# ----------------------------------------------------------------------

def test_minij_prior_small():
    Q, Qinv = pc.build_minij_prior(3)
    npt.assert_allclose(Q.to_dense(), [[1, 1, 1], [1, 2, 2], [1, 2, 3]])
    Q1, Qinv1 = pc.build_minij_prior(1)
    npt.assert_allclose(Q1.to_dense(), [[1]])
    npt.assert_allclose(Qinv1.to_dense(), [[1]])
    Q2, Qinv2 = pc.build_minij_prior(2)
    npt.assert_allclose(Q2.to_dense(), [[1, 1], [1, 2]])
    npt.assert_allclose(Qinv2.to_dense(), [[2, -1], [-1, 1]])


def test_minij_inverse_identity():
    for n_t in (5, 50, 200):
        Q, Qinv = pc.build_minij_prior(n_t)
        prod = Q.to_dense() @ Qinv.to_dense()
        assert np.max(np.abs(prod - np.eye(n_t))) <= 1e-12


def test_fd_temporal():
    # L_t = [[1, -1, 0], [0, 1, -1]] at unit spacing
    Q3 = pc.build_fd_temporal([0.0, 1.0, 2.0], gamma=1.0)
    npt.assert_allclose(Q3.to_dense(), np.linalg.inv(
        [[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]]), rtol=1e-14)
    Q = pc.build_fd_temporal([0.0, 1.0], gamma=1.0)
    npt.assert_allclose(Q.to_dense(), np.array([[2, 1], [1, 2]]) / 3.0, rtol=1e-14)
    # dt = 0.5: L_t = [2, -2], so L_t' L_t + I = [[5, -4], [-4, 5]]
    Q2 = pc.build_fd_temporal([0.0, 0.5], gamma=1.0)
    npt.assert_allclose(Q2.to_dense(), np.linalg.inv([[5.0, -4.0], [-4.0, 5.0]]),
                        rtol=1e-14)
    with pytest.raises(ParameterError):
        pc.build_fd_temporal([0.0, 0.0, 1.0], gamma=1.0)
    with pytest.raises(ParameterError):
        pc.build_fd_temporal([0.0, 1.0], gamma=0.0)


# ----------------------------------------------------------------------
# Nonseparable and product-sum covariances
# ----------------------------------------------------------------------

def test_nonseparable_time_constant():
    # c2 = 0 suppresses temporal distance: blocks repeat the spatial matrix
    base = pc.MaternKernel(0.5, 1.0)
    sp_pts = pc.PointSet.from_coords([[0.0], [0.4]])
    nug = 1e-10
    st_pts = pc.PointSet.space_time(sp_pts, [0.0, 1.0], c1=1.0, c2=0.0)
    M = pc.build_kernel_matrix(base, st_pts, nugget=nug).to_dense()
    Qs = pc.build_kernel_matrix(base, sp_pts, nugget=0.0).to_dense()
    npt.assert_allclose(M - nug * np.eye(4), np.tile(Qs, (2, 2)), atol=1e-14)


def test_nonseparable_pure_temporal():
    base = pc.MaternKernel(0.5, 1.0)
    sp_pts = pc.PointSet.from_coords([[0.3]])
    times = [0.0, 0.5, 1.0]
    st_pts = pc.PointSet.space_time(sp_pts, times, c1=0.0, c2=1.0)
    M = pc.build_kernel_matrix(base, st_pts, nugget=0.0).to_dense()
    Qt = pc.build_kernel_matrix(base, pc.PointSet.from_coords(times),
                                nugget=0.0).to_dense()
    npt.assert_allclose(M, Qt, rtol=1e-14)


def test_nonseparable_entrywise():
    base = pc.MaternKernel(0.5, 2.0)
    c1, c2 = 0.7, 1.9
    sp_pts = pc.PointSet.from_coords([[0.0, 0.0], [0.3, 0.4]])
    st_pts = pc.PointSet.space_time(sp_pts, [0.0, 1.0], c1, c2)
    M = pc.build_kernel_matrix(base, st_pts, nugget=0.0).to_dense()
    # entry ((p2, t1), (p1, t2)): spatial distance 0.5, temporal distance 1
    expected = np.exp(-np.sqrt(c1 * 0.25 + c2 * 1.0) / 2.0)
    npt.assert_allclose(M[1, 2], expected, rtol=1e-14)


def test_space_time_negative_weight_raises():
    sp_pts = pc.PointSet.from_coords([[0.0], [0.4]])
    for c1, c2 in ((-0.5, 0.0), (1.0, -0.5)):
        with pytest.raises(ParameterError):
            pc.PointSet.space_time(sp_pts, [0.0, 1.0], c1, c2)


def test_point_set_normalization():
    grid = pc.PointSet.regular_grid_2d(3, 2)
    assert len(grid) == 6
    # column-stacked ordering: index = ix*ny + iy, y varies fastest
    npt.assert_allclose(grid.coordinates[0], [0.0, 0.0])
    npt.assert_allclose(grid.coordinates[1], [0.0, 1.0])
    npt.assert_allclose(grid.coordinates[2], [0.5, 0.0])


def test_prior_model_validation():
    Q = pc.DenseOperator(np.eye(4))
    with pytest.raises(ParameterError):
        pc.PriorModel(np.zeros(3), Q)
    p = pc.PriorModel.zero_mean(Q)
    assert p.mean.shape == (4,)
