import hashlib

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from dyninv.errors import ParameterError
from dyninv import priorcov as pc, problems
from dyninv.linop import KroneckerOperator, ScaledIdentityOperator, SparseOperator


# ----------------------------------------------------------------------
# Deblurring
# ----------------------------------------------------------------------

def test_blur_rows_normalized():
    T = problems.gaussian_blur_1d(20, 0.07, 3)
    npt.assert_allclose(T.sum(axis=1), np.ones(20), rtol=1e-13)
    assert np.all(T >= 0)
    # banded: entries beyond the bandwidth are zero
    assert T[0, 4] == 0.0
    with pytest.raises(ParameterError):
        problems.gaussian_blur_1d(5, 0.07, 5)


def test_blur_matches_row_loop():
    # reference: entry (i, j) is the kernel at |i - j|, built one row at a time
    for n, sigma, bandwidth, spacing in [(20, 0.07, 3, None), (9, 1.5, 8, 1.0)]:
        h = 1.0 / n if spacing is None else spacing
        offsets = np.arange(n)
        kernel = np.exp(-((offsets * h) ** 2) / (2.0 * sigma ** 2))
        kernel[bandwidth:] = 0.0
        T = np.empty((n, n))
        for i in range(n):
            T[i, :] = kernel[np.abs(offsets - i)]
        T /= T.sum(axis=1, keepdims=True)
        npt.assert_array_equal(problems.gaussian_blur_1d(n, sigma, bandwidth, spacing), T)


def test_deblur_noiseless_data():
    inst = problems.gen_dynamic_deblur(6, 6, 3, noise_level=0.0, seed=1)
    npt.assert_array_equal(inst.d, inst.A.apply(inst.s_true))
    assert inst.noise_sigma == 0.0


def test_deblur_static_single_frame():
    inst = problems.gen_dynamic_deblur(6, 5, 1, noise_level=0.0)
    assert isinstance(inst.A, KroneckerOperator)
    npt.assert_array_equal(inst.A.left.to_dense(), [[1.0]])
    assert inst.d.size == 30


def test_deblur_reproducible():
    a = problems.gen_dynamic_deblur(8, 8, 4, seed=42)
    b = problems.gen_dynamic_deblur(8, 8, 4, seed=42)
    npt.assert_array_equal(a.d, b.d)
    npt.assert_array_equal(a.s_true, b.s_true)


def test_deblur_noise_statistics():
    # empirical noise power within 10% of the R scalar for large m
    inst = problems.gen_dynamic_deblur(32, 32, 12, noise_level=0.05, seed=0)
    eps = inst.d - inst.A.apply(inst.s_true)
    assert eps.size >= 1e4
    emp = np.sum(eps ** 2) / eps.size
    assert abs(emp - inst.noise_sigma ** 2) <= 0.1 * inst.noise_sigma ** 2


# ----------------------------------------------------------------------
# Ray tracing
# ----------------------------------------------------------------------

def test_ray_horizontal_row():
    idx, lens = problems.ray_pixel_lengths(4, 3, (0.0, 1.5), (4.0, 1.5))
    assert set(idx) == {0 * 3 + 1, 1 * 3 + 1, 2 * 3 + 1, 3 * 3 + 1}
    npt.assert_allclose(lens, np.ones(4))


def test_ray_diagonal_unit_pixel():
    idx, lens = problems.ray_pixel_lengths(1, 1, (0.0, 0.0), (1.0, 1.0))
    npt.assert_array_equal(idx, [0])
    npt.assert_allclose(lens, [np.sqrt(2)])


def test_ray_row_sums_equal_chord_length(rng):
    nx, ny = 7, 5
    for _ in range(20):
        p0 = problems._random_boundary_point(rng, nx, ny)
        p1 = problems._random_boundary_point(rng, nx, ny)
        idx, lens = problems.ray_pixel_lengths(nx, ny, p0, p1)
        if lens.size == 0:
            # both endpoints on the same edge: the chord runs along the
            # boundary and crosses no pixel interior
            continue
        assert np.all(lens > 0)
        npt.assert_allclose(lens.sum(), np.hypot(*(p1 - p0)), rtol=1e-10)


def test_ray_matrix_matches_the_coo_route():
    # rows from counts, duplicates summed: the same arrays, dtypes and
    # canonical flag as scipy's COO conversion of the same triplets
    rays = [(np.array([5, 2, 5, 0]), np.array([0.5, 1.0, 0.25, 2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([7, 3]), np.array([1.5, 0.75]))]
    got = problems._ray_matrix(rays, 8)
    rows = np.repeat(np.arange(len(rays)), [idx.size for idx, _ in rays])
    want = sp.csr_matrix((np.concatenate([lens for _, lens in rays]),
                          (rows, np.concatenate([idx for idx, _ in rays]))),
                         shape=(3, 8))
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.has_canonical_format and want.has_canonical_format
    npt.assert_array_equal(got.toarray()[0], [2.0, 0, 1.0, 0, 0, 0.75, 0, 0])


def test_checkerboard_values():
    s = problems.checkerboard_truth(16, 16, 1, base_value=5e-5, cell=8)
    vals = np.unique(s)
    npt.assert_allclose(sorted(vals), [1 / 22000.0, 1 / 18000.0], rtol=1e-12)
    npt.assert_allclose(sorted(vals), [4.545e-5, 5.555e-5], rtol=1e-3)


def test_tomography_instance():
    inst = problems.gen_ray_tomography(12, 12, 3, rays_per_time=[30, 40, 50],
                                       seed=5)
    assert isinstance(inst.A, SparseOperator)
    assert inst.A.rows == 120
    assert inst.A.cols == 144 * 3
    assert inst.meta["mask"].shape == (144,)
    # truth constant in time
    S = inst.s_true.reshape(144, 3, order="F")
    npt.assert_array_equal(S[:, 0], S[:, 1])


# ----------------------------------------------------------------------
# Rotating Gaussians
# ----------------------------------------------------------------------

def test_rotating_truth_periodicity():
    nx, ny, n_t = 16, 16, 8
    frames = problems.rotating_gaussians_truth(nx, ny, n_t).reshape(
        nx * ny, n_t, order="F")
    # one more step would wrap around to the first frame
    full = problems.rotating_gaussians_truth(nx, ny, 2 * n_t).reshape(
        nx * ny, 2 * n_t, order="F")
    npt.assert_allclose(frames[:, 0], full[:, 0])
    npt.assert_allclose(full[:, 0], full[:, 0 + 2 * n_t - 2 * n_t])


def test_centered_bump_projection_angle_invariant():
    nx = ny = 20
    xs = (np.arange(nx) + 0.5) / nx
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    bump = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.1 ** 2))
    v = bump.reshape(-1, order="C")
    P0 = problems.projection_matrix(nx, ny, 0.3, 40)
    P1 = problems.projection_matrix(nx, ny, 1.1, 40)
    s0 = np.asarray(P0 @ v)
    s1 = np.asarray(P1 @ v)
    # total integral is angle-invariant; profiles agree closely on this grid
    npt.assert_allclose(s0.sum(), s1.sum(), rtol=1e-2)
    # the opposite viewing direction sees exactly the same chords, reversed
    P_rev = problems.projection_matrix(nx, ny, 0.3 + np.pi, 40)
    npt.assert_allclose(np.asarray(P_rev @ v)[::-1], s0, rtol=1e-10, atol=1e-12)


def test_rotating_instance_validation():
    with pytest.raises(ParameterError):
        problems.gen_rotating_gaussians(8, 8, 3, angles=[0.1, 0.2])
    with pytest.raises(ParameterError):
        problems.projection_matrix(8, 8, 0.0, 0)
    inst = problems.gen_rotating_gaussians(12, 12, 4, noise_level=0.0, seed=2)
    assert isinstance(inst.A, SparseOperator)
    assert inst.A.shape == (4 * inst.meta["radii_count"], 4 * 144)
    # one projection block per time step, nothing off the block diagonal
    rows, cols = inst.A.matrix.nonzero()
    npt.assert_array_equal(rows // inst.meta["radii_count"], cols // 144)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_save_load_deblur_roundtrip(tmp_path):
    inst = problems.gen_dynamic_deblur(6, 5, 3, seed=9)
    problems.save_instance(inst, tmp_path / "inst")
    back = problems.load_instance(tmp_path / "inst")
    npt.assert_array_equal(back.d, inst.d)
    npt.assert_array_equal(back.s_true, inst.s_true)
    assert back.kind == "deblur"
    assert (back.n_s, back.n_t) == (30, 3)
    # the saved factors are the generated ones, bit for bit
    for factor in (lambda A: A.left, lambda A: A.right.left, lambda A: A.right.right):
        got, want = factor(back.A).entries, factor(inst.A).entries
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    x = np.linspace(-1, 1, 90)
    npt.assert_allclose(back.A.apply(x), inst.A.apply(x), rtol=1e-13)


def test_save_load_tomography_roundtrip(tmp_path):
    inst = problems.gen_ray_tomography(8, 8, 2, rays_per_time=25, seed=3)
    problems.save_instance(inst, tmp_path / "inst")
    back = problems.load_instance(tmp_path / "inst")
    npt.assert_array_equal(back.d, inst.d)
    npt.assert_array_equal(back.meta["mask"], inst.meta["mask"])
    npt.assert_array_equal(back.A.to_dense(), inst.A.to_dense())
    x = np.linspace(-1, 1, inst.A.cols)
    assert back.A.apply(x).tobytes() == inst.A.apply(x).tobytes()


def test_save_load_rotating_roundtrip(tmp_path):
    inst = problems.gen_rotating_gaussians(10, 8, 3, seed=5)
    problems.save_instance(inst, tmp_path / "inst")
    back = problems.load_instance(tmp_path / "inst")
    assert back.kind == "rotating"
    assert back.d.tobytes() == inst.d.tobytes()
    assert back.s_true.tobytes() == inst.s_true.tobytes()
    x = np.random.default_rng(0).standard_normal(inst.A.cols)
    assert back.A.apply(x).tobytes() == inst.A.apply(x).tobytes()


def test_noiseless_tomography_has_unit_placeholder_noise(tmp_path):
    # every generator derives R = sigma^2 I the same way, so noiseless
    # tomography gets the unit placeholder instead of a zero covariance
    inst = problems.gen_ray_tomography(8, 8, 2, rays_per_time=10, noise_sigma=0.0,
                                       seed=1)
    assert inst.noise_sigma == 0.0 and inst.n_s == 64
    assert isinstance(inst.R, ScaledIdentityOperator)
    assert inst.R.scale == 1.0 and inst.R.shape == (20, 20)
    assert inst.R is inst.R
    problems.save_instance(inst, tmp_path / "inst")
    back = problems.load_instance(tmp_path / "inst")
    assert back.noise_sigma == 0.0 and back.R.scale == 1.0
    assert back.d.tobytes() == inst.d.tobytes()


def test_save_removes_files_of_an_earlier_instance(tmp_path):
    # an optional array is present if and only if its file is, so saving
    # over another instance must leave none of that instance's files
    directory = tmp_path / "inst"
    tomo = problems.gen_ray_tomography(6, 6, 3, rays_per_time=2, seed=1)
    deblur = problems.gen_dynamic_deblur(6, 6, 3, seed=2)
    problems.save_instance(tomo, directory)
    problems.save_instance(deblur, directory)
    back = problems.load_instance(directory)
    assert "mask" not in back.meta
    assert not (directory / "mask.bin").exists()
    assert not (directory / "A.npz").exists()
    assert back.d.tobytes() == deblur.d.tobytes()

    problems.save_instance(tomo, directory)
    assert not any((directory / name).exists()
                   for name in ("A_t.bin", "A_s_x.bin", "A_s_y.bin"))
    back = problems.load_instance(directory)
    npt.assert_array_equal(back.meta["mask"], tomo.meta["mask"])


def test_save_without_truth_removes_it(tmp_path):
    inst = problems.gen_dynamic_deblur(6, 5, 2, seed=4)
    problems.save_instance(inst, tmp_path / "inst")
    inst.s_true = None
    problems.save_instance(inst, tmp_path / "inst")
    assert not (tmp_path / "inst" / "s_true.bin").exists()
    assert problems.load_instance(tmp_path / "inst").s_true is None


def test_load_rejects_unknown_structure(tmp_path):
    inst = problems.gen_ray_tomography(8, 8, 2, rays_per_time=25, seed=3)
    problems.save_instance(inst, tmp_path / "inst")
    manifest = tmp_path / "inst" / "manifest.ini"
    manifest.write_text(manifest.read_text().replace("structure = sparse",
                                                     "structure = blockdiag"))
    with pytest.raises(ParameterError):
        problems.load_instance(tmp_path / "inst")


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("make, d_sha, Ax_sha, Aty_sha", [
    (lambda: problems.gen_ray_tomography(10, 8, 3, rays_per_time=[15, 20, 25],
                                         seed=4),
     "630845472c345f88efcc49ee55765879a83e7b69b2005ccccaffc4f66ba55532",
     "d91394a18a923ca050e9611c398eadce48b6b70a8ca751c483638b481605f445",
     "ba49752ebe42a3ce8c57f68a141e0cd98810c1aa2f0a9ca087e05a0d001f4638"),
    (lambda: problems.gen_rotating_gaussians(10, 8, 3, noise_level=0.02, seed=5),
     "647fd2086890d48d2e26fcad797681337c734891931cf8bd2205465ba94cc8ff",
     "2e24d07efea636dd70fa07b8ecb215a0e00d4764d0bcedcc21bc1da1d83a9d45",
     "94989568c7f52e1e21232dd0e1926e64532436eda7fdb4f7e2c2ece0159bdac2"),
], ids=["tomography", "rotating"])
def test_ray_instances_are_pinned(make, d_sha, Ax_sha, Aty_sha):
    # digests of d, A x and A' y at fixed seeds: a change to how the forward
    # model is built or stored must leave every byte of the instance as it was
    inst = make()
    x = np.random.default_rng(0).standard_normal(inst.A.cols)
    y = np.random.default_rng(1).standard_normal(inst.A.rows)
    assert _sha256(inst.d) == d_sha
    assert _sha256(inst.A.apply(x)) == Ax_sha
    assert _sha256(inst.A.apply_adjoint(y)) == Aty_sha


def test_kronecker_instance_and_prior_are_pinned():
    # digests of the deblur forward model's actions and of a nested
    # minij (x) Matern (x) Matern prior's apply, solve and diagonal, on a
    # vector and on a three-column block: a change to how a Kronecker product
    # is traversed must leave every byte of these as it was
    inst = problems.gen_dynamic_deblur(6, 5, 4, seed=3)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(1.5, 0.1),
                                pc.PointSet.from_coords((np.arange(6) + 0.5) / 6))
    Qy = pc.build_kernel_matrix(pc.MaternKernel(2.5, 0.2),
                                pc.PointSet.from_coords((np.arange(5) + 0.5) / 5))
    Qt, _ = pc.build_minij_prior(4)
    Q = KroneckerOperator(Qt, KroneckerOperator(Qx, Qy))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(inst.A.cols)
    y = rng.standard_normal(inst.A.rows)
    X = rng.standard_normal((inst.A.cols, 3))
    digests = {
        "d": _sha256(inst.d),
        "A x": _sha256(inst.A.apply(x)),
        "A' y": _sha256(inst.A.apply_adjoint(y)),
        "A X": _sha256(inst.A.apply_mat(X)),
        "Q x": _sha256(Q.apply(x)),
        "Q X": _sha256(Q.apply_mat(X)),
        "Q \\ x": _sha256(Q.solve(x)),
        "diag Q": _sha256(Q.diagonal()),
    }
    assert digests == {
        "d": "d0099d3b5b3696d79699b6431a18605fa67cc4b5921de7a0e950ed26564f87f7",
        "A x": "50ba8b0910653206cbadf50e8d4dd69453868110d830499b6fa25912cfd6d38a",
        "A' y": "efe14a8629a62f663fc073eafccdcee9b2437a29e0eaea39de147414ba4a4dfe",
        "A X": "843e2a62cf223c504eae3ce773ff0a36c70c89ee1fe027cde778a2d8e4b2536c",
        "Q x": "5cc8ced645adea66e2a0d3729b6ef5307fab3a9de3e62dbec74e3bd7a25d6d8c",
        "Q X": "f53dd6054d8629e042c819d84f847e21e65c8e66ae24856434eb918dbb5d1c56",
        "Q \\ x": "a691be7a209ab9f4aa4422db0ba8073a51f061a0ab03208297646c6da74b8bbb",
        "diag Q": "482a79dd24acf11a8b70b11fe0d0552284eeca605551968e81ab9dff666ec7f1",
    }
