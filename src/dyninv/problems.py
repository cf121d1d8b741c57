"""Desk-scale dynamic test-problem generators.

Three families: dynamic Gaussian deblurring with a Kronecker forward operator,
straight-ray dynamic tomography with checkerboard truths, and a
rotating-Gaussians phantom observed through one parallel-beam projection per
time step.  Both ray-tracing models are block diagonal, one sparse block per
time step, and are held as one sparse matrix.

Images of shape (nx, ny) are vectorized column-wise with the y index varying
fastest: pixel (ix, iy) maps to ix * ny + iy.  Instances are reproducible
bitwise from their seed.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import io as dio
from .errors import ParameterError
from .linop import (DenseOperator, KroneckerOperator, LinearOperator,
                    ScaledIdentityOperator, SparseOperator)


@dataclass
class ProblemInstance:
    """Forward model, noise covariance, data, and (optionally) the truth."""

    A: LinearOperator
    R: LinearOperator
    d: np.ndarray
    s_true: np.ndarray | None
    n_s: int
    n_t: int
    grid: tuple
    seed: int
    kind: str
    noise_sigma: float
    meta: dict = field(default_factory=dict)


def _noisy_data(clean: np.ndarray, noise_level: float, seed: int):
    """Data ``d``, noise covariance ``R`` and noise sigma for relative noise.

    The i.i.d. Gaussian noise is scaled so that ||eps|| = noise_level *
    ||clean|| in expectation.  Noiseless data keeps a unit noise covariance
    as a placeholder weight.
    """
    rng = np.random.default_rng(seed)
    if noise_level > 0:
        sigma = noise_level * np.linalg.norm(clean) / np.sqrt(clean.size)
        d = clean + sigma * rng.standard_normal(clean.size)
    else:
        sigma = 0.0
        d = clean.copy()
    R = ScaledIdentityOperator(sigma ** 2 if sigma > 0 else 1.0, clean.size)
    return d, R, sigma


# ----------------------------------------------------------------------
# Dynamic deblurring
# ----------------------------------------------------------------------

def gaussian_blur_1d(n: int, sigma: float, bandwidth: int,
                     spacing: float | None = None) -> np.ndarray:
    """Banded 1-D Gaussian blur matrix, rows normalized to unit sum.

    ``spacing`` is the grid step used inside the Gaussian; default 1/n
    (normalized coordinates), so sigma is in normalized units.
    """
    if n < 1 or bandwidth < 1:
        raise ParameterError("blur size and bandwidth must be positive")
    if bandwidth >= n:
        raise ParameterError("bandwidth must be smaller than the dimension")
    if sigma <= 0:
        raise ParameterError("blur spread must be positive")
    h = 1.0 / n if spacing is None else spacing
    offsets = np.arange(n)
    kernel = np.exp(-((offsets * h) ** 2) / (2.0 * sigma ** 2))
    kernel[bandwidth:] = 0.0
    T = kernel[np.abs(offsets[:, None] - offsets)]
    T /= T.sum(axis=1, keepdims=True)
    return T


def _moving_feature_truth(nx: int, ny: int, n_t: int) -> np.ndarray:
    """Image sequence: a Gaussian blob drifting diagonally plus a static box."""
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    frames = np.empty((nx * ny, n_t))
    for t in range(n_t):
        frac = 0.5 if n_t == 1 else t / (n_t - 1)
        cx = 0.25 + 0.5 * frac
        cy = 0.25 + 0.5 * frac
        blob = np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2) / (2 * 0.05 ** 2)))
        box = ((np.abs(X - 0.7) < 0.12) & (np.abs(Y - 0.3) < 0.12)).astype(float)
        img = blob + 0.8 * box
        frames[:, t] = img.reshape(-1, order="C")  # (ix, iy) -> ix*ny + iy
    return frames.reshape(-1, order="F")


def gen_dynamic_deblur(nx: int, ny: int, n_t: int, spatial_sigma: float = 0.07,
                       spatial_bandwidth: int = 3, temporal_sigma: float = 1.0,
                       temporal_bandwidth: int = 3, noise_level: float = 0.02,
                       seed: int = 0) -> ProblemInstance:
    """Space-time Gaussian blur A = A_t (x) T_x (x) T_y of banded 1-D blurs.
    Temporal sigma is in index units (unit spacing)."""
    Tx = gaussian_blur_1d(nx, spatial_sigma, spatial_bandwidth)
    Ty = gaussian_blur_1d(ny, spatial_sigma, spatial_bandwidth)
    if n_t > 1:
        At = gaussian_blur_1d(n_t, temporal_sigma, min(temporal_bandwidth, n_t - 1),
                              spacing=1.0)
    else:
        At = np.array([[1.0]])
    # pixel index ix*ny + iy: x is the slower spatial factor
    A = KroneckerOperator(DenseOperator(At), DenseOperator(Tx), DenseOperator(Ty))

    s_true = _moving_feature_truth(nx, ny, n_t)
    d, R, sigma_noise = _noisy_data(A.apply(s_true), noise_level, seed)
    return ProblemInstance(A=A, R=R, d=d, s_true=s_true, n_s=nx * ny, n_t=n_t,
                           grid=(nx, ny), seed=seed, kind="deblur",
                           noise_sigma=sigma_noise,
                           meta={"noise_level": noise_level})


# ----------------------------------------------------------------------
# Ray tracing
# ----------------------------------------------------------------------

def ray_pixel_lengths(nx: int, ny: int, p0, p1):
    """Intersection lengths of segment p0->p1 with the unit pixels of an
    nx-by-ny grid covering [0, nx] x [0, ny].

    Returns (pixel indices, lengths); indices follow ix * ny + iy.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    delta = p1 - p0
    length = np.hypot(*delta)
    if length == 0:
        return np.array([], dtype=int), np.array([])

    ts = [0.0, 1.0]
    for axis, n in ((0, nx), (1, ny)):
        if delta[axis] != 0:
            crossings = (np.arange(n + 1) - p0[axis]) / delta[axis]
            ts.extend(crossings[(crossings > 0) & (crossings < 1)])
    ts = np.unique(ts)

    mids = p0[None, :] + 0.5 * (ts[:-1] + ts[1:])[:, None] * delta[None, :]
    seg_len = np.diff(ts) * length
    ix = np.floor(mids[:, 0]).astype(int)
    iy = np.floor(mids[:, 1]).astype(int)
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny) & (seg_len > 0)
    return (ix[inside] * ny + iy[inside]), seg_len[inside]


def _random_boundary_point(rng, nx, ny):
    side = rng.integers(4)
    u = rng.uniform()
    if side == 0:
        return np.array([u * nx, 0.0])
    if side == 1:
        return np.array([u * nx, float(ny)])
    if side == 2:
        return np.array([0.0, u * ny])
    return np.array([float(nx), u * ny])


def random_ray_matrix(nx: int, ny: int, n_rays: int, rng) -> sp.csr_matrix:
    """Sparse matrix of random straight rays with boundary endpoints."""
    rows, cols, vals = [], [], []
    for r in range(n_rays):
        for attempt in range(100):
            p0 = _random_boundary_point(rng, nx, ny)
            p1 = _random_boundary_point(rng, nx, ny)
            idx, lens = ray_pixel_lengths(nx, ny, p0, p1)
            if lens.size:
                break
        else:
            raise ParameterError("failed to sample a nonzero-length ray "
                                 "after 100 attempts")
        rows.extend([r] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(lens.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rays, nx * ny))


def checkerboard_truth(nx: int, ny: int, n_t: int, base_value: float = 5e-5,
                       cell: int = 8, mask=None) -> np.ndarray:
    """Checkerboard slowness field: reciprocals of (1/v)(1 +- 10%).

    Constant in time; outside the mask (if given) the field equals base_value.
    """
    hi = 1.0 / ((1.0 / base_value) * 0.9)
    lo = 1.0 / ((1.0 / base_value) * 1.1)
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    board = np.where(((ix // cell) + (iy // cell)) % 2 == 0, hi, lo)
    frame = board.reshape(-1, order="C")
    if mask is not None:
        frame = np.where(np.asarray(mask, dtype=bool).ravel(), frame, base_value)
    return np.tile(frame, n_t)


def gen_ray_tomography(nx: int, ny: int, n_t: int, rays_per_time=200,
                       noise_sigma: float = 0.0015, seed: int = 0,
                       base_value: float = 5e-5, cell: int = 8,
                       coverage_threshold: int = 1) -> ProblemInstance:
    """Straight-ray dynamic tomography with a block-diagonal forward model.

    ``rays_per_time`` may be an int or a per-time sequence; the observable
    mask keeps pixels crossed by at least ``coverage_threshold`` rays.
    """
    if np.isscalar(rays_per_time):
        rays_per_time = [int(rays_per_time)] * n_t
    if len(rays_per_time) != n_t or min(rays_per_time) < 1:
        raise ParameterError("need at least one ray per time index")
    rng = np.random.default_rng(seed)
    blocks = [random_ray_matrix(nx, ny, mi, rng) for mi in rays_per_time]

    coverage = np.zeros(nx * ny)
    for blk in blocks:
        coverage += np.asarray((blk != 0).sum(axis=0)).ravel()
    mask = coverage >= coverage_threshold

    s_true = checkerboard_truth(nx, ny, n_t, base_value, cell, mask)
    A = SparseOperator(sp.block_diag(blocks, format="csr"))
    clean = A.apply(s_true)
    d = clean + noise_sigma * rng.standard_normal(clean.size)
    R = ScaledIdentityOperator(noise_sigma ** 2, clean.size)
    return ProblemInstance(A=A, R=R, d=d, s_true=s_true, n_s=nx * ny, n_t=n_t,
                           grid=(nx, ny), seed=seed, kind="tomography",
                           noise_sigma=noise_sigma,
                           meta={"mask": mask, "rays_per_time": list(rays_per_time),
                                 "coverage": coverage})


# ----------------------------------------------------------------------
# Rotating Gaussians with per-time projections
# ----------------------------------------------------------------------

def projection_matrix(nx: int, ny: int, angle: float, n_bins: int) -> sp.csr_matrix:
    """Parallel-beam line-integral projection at a given angle.

    Rays travel along (cos a, sin a); ``n_bins`` offsets span the image
    diagonal perpendicular to the ray direction.
    """
    if n_bins < 1:
        raise ParameterError("detector bin count must be positive")
    direction = np.array([np.cos(angle), np.sin(angle)])
    perp = np.array([-direction[1], direction[0]])
    center = np.array([nx / 2.0, ny / 2.0])
    half_diag = 0.5 * np.hypot(nx, ny)
    offsets = np.linspace(-half_diag, half_diag, n_bins + 2)[1:-1]
    rows, cols, vals = [], [], []
    reach = 2.0 * half_diag
    for r, off in enumerate(offsets):
        p0 = center + off * perp - reach * direction
        p1 = center + off * perp + reach * direction
        idx, lens = ray_pixel_lengths(nx, ny, p0, p1)
        rows.extend([r] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(lens.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_bins, nx * ny))


def rotating_gaussians_truth(nx: int, ny: int, n_t: int, width: float = 0.08,
                             orbit_radius: float = 0.25,
                             revolutions: float = 1.0) -> np.ndarray:
    """Two fixed-width Gaussian bumps rotating counterclockwise about the center.

    ``revolutions`` full turns are spread over the n_t frames; with the default
    of one revolution, frame n_t+1 would equal frame 1.  Fractional values give
    slower motion, i.e. an object changing slowly relative to the frame rate.
    """
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    frames = np.empty((nx * ny, n_t))
    for t in range(n_t):
        phi = 2.0 * np.pi * revolutions * t / n_t
        img = np.zeros((nx, ny))
        for extra in (0.0, np.pi):
            cx = 0.5 + orbit_radius * np.cos(phi + extra)
            cy = 0.5 + orbit_radius * np.sin(phi + extra)
            img += np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * width ** 2))
        frames[:, t] = img.reshape(-1, order="C")
    return frames.reshape(-1, order="F")


def gen_rotating_gaussians(nx: int, ny: int, n_t: int, angles=None,
                           radii_count: int = 0, noise_level: float = 0.02,
                           seed: int = 0, width: float = 0.08,
                           orbit_radius: float = 0.25,
                           revolutions: float = 1.0) -> ProblemInstance:
    """Rotating-Gaussians phantom with one projection view per time step.

    ``angles`` defaults to n_t equispaced view angles; ``radii_count``
    defaults to the image diagonal.  The forward model is block diagonal with
    one projection block per time, a parallel-beam stand-in for circular
    projection geometries.
    """
    if angles is None:
        angles = np.linspace(0.0, np.pi, n_t, endpoint=False)
    angles = np.asarray(angles, dtype=float).ravel()
    if angles.size == 0:
        raise ParameterError("need one view angle per time step")
    if angles.size != n_t:
        raise ParameterError(f"got {angles.size} angles for {n_t} time steps")
    if radii_count <= 0:
        radii_count = int(np.ceil(np.hypot(nx, ny)))

    A = SparseOperator(sp.block_diag(
        [projection_matrix(nx, ny, a, radii_count) for a in angles], format="csr"))
    s_true = rotating_gaussians_truth(nx, ny, n_t, width=width,
                                      orbit_radius=orbit_radius,
                                      revolutions=revolutions)
    d, R, sigma_noise = _noisy_data(A.apply(s_true), noise_level, seed)
    return ProblemInstance(A=A, R=R, d=d, s_true=s_true, n_s=nx * ny, n_t=n_t,
                           grid=(nx, ny), seed=seed, kind="rotating",
                           noise_sigma=sigma_noise,
                           meta={"angles": angles, "radii_count": radii_count,
                                 "noise_level": noise_level})


# ----------------------------------------------------------------------
# Instance serialization
# ----------------------------------------------------------------------

# the files of a deblur forward model's factors A_t, T_x, T_y, slowest first
_KRON_FILES = ("A_t.bin", "A_s_x.bin", "A_s_y.bin")


def save_instance(inst: ProblemInstance, directory) -> None:
    """Serialize an instance to a directory: manifest + operator pieces + arrays.

    Kronecker factors and vectors use the ``DYNINV1`` binary format; a sparse
    forward matrix is one uncompressed ``A.npz``.
    """
    os.makedirs(directory, exist_ok=True)
    cfg = configparser.ConfigParser()
    cfg["instance"] = {
        "kind": inst.kind,
        "nx": str(inst.grid[0]),
        "ny": str(inst.grid[1]),
        "n_t": str(inst.n_t),
        "n_s": str(inst.n_s),
        "seed": str(inst.seed),
        "noise_sigma": repr(float(inst.noise_sigma)),
        "has_truth": str(inst.s_true is not None),
    }
    dio.write_vector_bin(os.path.join(directory, "d.bin"), inst.d)
    if inst.s_true is not None:
        dio.write_vector_bin(os.path.join(directory, "s_true.bin"), inst.s_true)

    if inst.kind == "deblur":
        cfg["instance"]["structure"] = "kron"
        for name, factor in zip(_KRON_FILES, inst.A.factors):
            dio.write_matrix_bin(os.path.join(directory, name), factor.entries)
    else:
        cfg["instance"]["structure"] = "sparse"
        sp.save_npz(os.path.join(directory, "A.npz"), inst.A.matrix,
                    compressed=False)
    if "mask" in inst.meta:
        dio.write_vector_bin(os.path.join(directory, "mask.bin"),
                             inst.meta["mask"].astype(float))
    with open(os.path.join(directory, "manifest.ini"), "w") as fh:
        cfg.write(fh)


def load_instance(directory) -> ProblemInstance:
    """Reconstruct an instance saved by :func:`save_instance`.

    A manifest with an unknown forward-model structure raises
    :class:`ParameterError`.
    """
    cfg = configparser.ConfigParser()
    manifest = os.path.join(directory, "manifest.ini")
    if not cfg.read(manifest):
        raise ParameterError(f"missing or unreadable manifest {manifest}")
    sec = cfg["instance"]
    kind = sec["kind"]
    nx, ny, n_t = int(sec["nx"]), int(sec["ny"]), int(sec["n_t"])
    noise_sigma = float(sec["noise_sigma"])
    d = dio.read_vector_bin(os.path.join(directory, "d.bin"))
    s_true = None
    if sec.getboolean("has_truth"):
        s_true = dio.read_vector_bin(os.path.join(directory, "s_true.bin"))

    meta = {}
    structure = sec.get("structure")
    if structure == "kron":
        A = KroneckerOperator(*(
            DenseOperator(dio.read_matrix_bin(os.path.join(directory, name)))
            for name in _KRON_FILES))
    elif structure == "sparse":
        A = SparseOperator(sp.load_npz(os.path.join(directory, "A.npz")))
    else:
        raise ParameterError(f"{manifest}: unknown forward-model structure "
                             f"{structure!r}; regenerate the instance")
    mask_path = os.path.join(directory, "mask.bin")
    if os.path.exists(mask_path):
        meta["mask"] = dio.read_vector_bin(mask_path) > 0.5

    R = ScaledIdentityOperator(noise_sigma ** 2 if noise_sigma > 0 else 1.0, d.size)
    return ProblemInstance(A=A, R=R, d=d, s_true=s_true, n_s=nx * ny, n_t=n_t,
                           grid=(nx, ny), seed=int(sec["seed"]), kind=kind,
                           noise_sigma=noise_sigma, meta=meta)
