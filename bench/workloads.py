"""The four benchmark workloads and the four stages of one repetition.

A repetition runs a workload the way a user of ``dyninv`` would: generate an
instance and build the prior (``setup``), hand it over through
``problems.save_instance``/``problems.load_instance`` (``io``, the
``dyninv generate`` -> ``dyninv solve`` hand-off), solve (``solve``) and
compute the posterior variance field (``variance``).  Output checks run
between and after the stages, never inside a timed region.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from dyninv import decoupled, gengk, hybrid, priorcov as pc, problems, uq
from dyninv.linop import KroneckerOperator, ScaledIdentityOperator

STAGES = ("setup", "io", "solve", "variance")

# gen-GK relation gate, as in the acceptance check of the bidiagonalization
ORTH_TOL = 1e-10
# an untraced stage shorter than this is repeated, so that stages of a few
# milliseconds are timed as the median of many samples
MIN_STAGE_S = 0.5
MAX_STAGE_REPEATS = 500
# slack for "the variance lies in [0, diag(Q)/lambda^2]", relative to the
# upper bound: the low-rank downdate is exact up to rounding and the loss of
# orthogonality, both orders of magnitude below this
VARIANCE_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: instance, prior, solver and variance settings.

    ``lam`` is the Fixed parameter of a ``fixed`` solve, and for the
    decoupled workload the single parameter its variance field is computed
    with (``uq.decoupled_variance_diag`` takes one).  At seed 1, lam = 30 is
    the best of a 0.1..300 grid for rotating-deep's 60-step basis, and the
    per-time WGCV parameters of deblur-decoupled's five best-determined
    subproblems lie in 53..264.
    """

    name: str
    why: str
    generator: str                  # "deblur" | "rotating" | "tomography"
    grid: tuple                     # (nx, ny, n_t), nx == ny
    gen_kwargs: dict
    spatial_nu: float
    temporal: str                   # "minij" | "gaussian"
    strategy: str                   # "optimal" | "wgcv" | "fixed"
    max_iter: int
    lam: float | None = None
    method: str = "simultaneous"    # "simultaneous" | "decoupled"

    def reduced(self) -> "Workload":
        """The same workload on an 8 x 8 x 4 grid with 6 iterations: it runs
        in well under a second."""
        kw = dict(self.gen_kwargs)
        if "spatial_bandwidth" in kw:
            kw["spatial_bandwidth"] = min(kw["spatial_bandwidth"], 7)
        if self.generator == "tomography":
            kw["rays_per_time"] = 12
        return replace(self, grid=(8, 8, 4), max_iter=6, gen_kwargs=kw)


# BENCHMARK.json gates the two deblur workloads only: the other two stay
# within the bounds only in runs too long for all four to be checked in the
# time a benchmark check may take (see README.md)
WORKLOADS = {w.name: w for w in [
    Workload(
        name="deblur-optimal",
        why="lambda selection dominates (Optimal error search over an 80-deep "
            "basis); operator applications are about 1% of the solve",
        generator="deblur", grid=(32, 32, 8),
        gen_kwargs={"spatial_sigma": 0.1, "spatial_bandwidth": 16,
                    "noise_level": 0.05},
        spatial_nu=1.5, temporal="minij", strategy="optimal", max_iter=80),
    Workload(
        name="deblur-decoupled",
        why="the only path through the decoupled plan, thread pool and "
            "recombine, with per-time WGCV selection",
        generator="deblur", grid=(32, 32, 8),
        gen_kwargs={"spatial_sigma": 0.1, "spatial_bandwidth": 16,
                    "noise_level": 0.05},
        spatial_nu=1.5, temporal="minij", strategy="wgcv", max_iter=35,
        lam=100.0, method="decoupled"),
    Workload(
        name="rotating-deep",
        why="deep Krylov basis at n=98,304: reorthogonalization and basis "
            "assembly dominate; lambda selection is bypassed (Fixed)",
        generator="rotating", grid=(64, 64, 24),
        gen_kwargs={"noise_level": 0.04, "revolutions": 0.5},
        spatial_nu=1.0, temporal="gaussian", strategy="fixed", max_iter=60,
        lam=30.0),
    Workload(
        name="tomo-scale",
        why="the paper's scale (n=491,520, 1.5M nonzeros): operator "
            "applications, ray tracing and serialization are large",
        generator="tomography", grid=(128, 128, 30),
        gen_kwargs={"rays_per_time": 400},
        spatial_nu=1.5, temporal="minij", strategy="fixed", max_iter=10,
        lam=1.0),
]}


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

def generate(w: Workload, seed: int) -> problems.ProblemInstance:
    nx, ny, n_t = w.grid
    if w.generator == "deblur":
        return problems.gen_dynamic_deblur(nx, ny, n_t, seed=seed, **w.gen_kwargs)
    if w.generator == "rotating":
        return problems.gen_rotating_gaussians(nx, ny, n_t, seed=seed,
                                               **w.gen_kwargs)
    if w.generator == "tomography":
        return problems.gen_ray_tomography(nx, ny, n_t, seed=seed, **w.gen_kwargs)
    raise ValueError(f"unknown generator {w.generator!r}")


def build_prior(w: Workload) -> pc.PriorModel:
    """Q = Q_t (x) Q_x (x) Q_x with a Matern spatial factor of length 0.1."""
    nx, _, n_t = w.grid
    pts = pc.PointSet.from_coords((np.arange(nx) + 0.5) / nx)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(w.spatial_nu, 0.1), pts)
    if w.temporal == "minij":
        Qt, _ = pc.build_minij_prior(n_t)
    else:  # Matern at nu = 1e5 is the Gaussian (squared-exponential) limit
        tpts = pc.PointSet.from_coords(np.arange(n_t) / n_t)
        Qt = pc.build_kernel_matrix(pc.MaternKernel(1e5, 0.06), tpts)
    return pc.PriorModel.zero_mean(KroneckerOperator(Qt, KroneckerOperator(Qx, Qx)))


def strategy(w: Workload, inst):
    if w.strategy == "optimal":
        return hybrid.Optimal(inst.s_true)
    if w.strategy == "wgcv":
        return hybrid.WGCV()
    return hybrid.Fixed(w.lam)


def options(w: Workload) -> hybrid.SolverOptions:
    """Reorthogonalized, and never stopped early by the GCV-flatness rule:
    the work of a solve must not depend on the noise drawn from the seed."""
    return hybrid.SolverOptions(max_iter=w.max_iter, reorthogonalize=True,
                                gcv_flat_tol=0.0, lam_stag_tol=0.0)


def decoupled_pieces(inst, prior):
    """Split into temporal and spatial factors as ``dyninv solve`` does:
    R_t = I and R_s = sigma^2 I."""
    A, Q = inst.A, prior.Q
    Rs = ScaledIdentityOperator(inst.R.scale, A.right.rows)
    return A.left, A.right, np.eye(inst.n_t), Rs, Q.left, Q.right


def solve(w: Workload, inst, prior, A, R, Q, threads: int):
    """Run the workload's solver on the (possibly traced) operators.

    A simultaneous solve takes its prior covariance from ``prior``; a
    decoupled one takes Q_t from ``prior`` and the spatial factor from ``Q``.
    """
    if w.method == "decoupled":
        At, _, Rt, _, Qt, _ = decoupled_pieces(inst, prior)
        return decoupled.decoupled_solve(
            At, A, Rt, R, Qt, Q, inst.d, strategy(w, inst), options(w),
            mu=prior.mean, per_time_lambda=True, threads=threads)
    return hybrid.genhybr_solve(A, R, prior, inst.d, strategy(w, inst), options(w),
                                s_true=inst.s_true)


def variance(w: Workload, inst, prior, res, A, R, Q):
    """Posterior variance field from the solve's factorization(s).

    The decoupled solve does not return its plan, so the field is preceded
    by a second ``decoupled.build_plan``, as a user would have to do.
    """
    if w.method == "decoupled":
        At, _, Rt, _, Qt, _ = decoupled_pieces(inst, prior)
        plan = decoupled.build_plan(At, A, Rt, R, Qt, Q, inst.d, prior.mean)
        facts = {i: r.factorization for i, r in enumerate(res.sub_results)
                 if r is not None}
        return uq.decoupled_variance_diag(plan, facts, w.lam).reshape(-1, order="F")
    approx = uq.build_posterior_approx(res.factorization, Q, res.lam)
    return uq.variance_diag(approx)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

@dataclass
class Rep:
    """Stage time samples (s), outcome values and failed checks of one repetition."""

    samples: dict = field(default_factory=dict)     # stage -> list of seconds
    iterations: int = 0
    rel_error: float = float("nan")
    rss_mb: float = 0.0
    orth: tuple = (0.0, 0.0)
    bytes_written: int = 0
    sizes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _nnz(op) -> int:
    """Stored nonzeros of the forward operator (Kronecker: of the full product)."""
    if isinstance(op, KroneckerOperator):
        return _nnz(op.left) * _nnz(op.right)
    if hasattr(op, "blocks"):
        return sum(_nnz(b) for b in op.blocks)
    if hasattr(op, "matrix"):
        return int(op.matrix.nnz)
    return int(np.count_nonzero(op.to_dense()))


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_rep(w: Workload, seed: int, workdir, threads: int, min_stage_s: float,
            tracer=None, peak_rss_mb=None) -> Rep:
    """Run one repetition and check its outputs.

    An untraced stage is repeated until its samples add up to
    ``min_stage_s``; a traced one runs once, so that its spans describe one
    pass.  ``tracer`` (a ``tracing.Tracer``) records spans inside the timed stages
    only; the operators handed to the solver are wrapped when it is given.
    ``peak_rss_mb`` is sampled at the end of the variance stage, before the
    output checks allocate anything.
    """
    rep = Rep()
    clock = time.perf_counter

    def timed(stage, fn, *args, before=None):
        samples = rep.samples.setdefault(stage, [])
        while True:
            if before is not None:
                before()
            if tracer is not None:
                tracer.recording = True
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                samples.append(clock() - t0)
                if tracer is not None:
                    tracer.recording = False
            if (tracer is not None or sum(samples) >= min_stage_s
                    or len(samples) >= MAX_STAGE_REPEATS):
                return out

    def setup():
        return generate(w, seed), build_prior(w)

    path = os.path.join(workdir, "instance")

    def handoff(inst):
        problems.save_instance(inst, path)
        return problems.load_instance(path)

    def fresh_directory():
        # save into an empty directory, as 'dyninv generate' does: rewriting
        # existing files makes ext4 start their writeback on close, which
        # times the disk rather than the program
        shutil.rmtree(path, ignore_errors=True)

    inst, prior = timed("setup", setup)
    rep.sizes = {"n": inst.A.cols, "m": inst.A.rows, "nnz": _nnz(inst.A)}
    x = np.random.default_rng(seed).standard_normal(inst.A.cols)
    d_ref, Ax_ref = inst.d.copy(), inst.A.apply(x)

    inst = timed("io", handoff, inst, before=fresh_directory)
    rep.bytes_written = _dir_bytes(path)
    rep.check(inst.d.dtype == d_ref.dtype and inst.d.tobytes() == d_ref.tobytes(),
              "loaded d differs from the generated d")
    rep.check(inst.A.apply(x).tobytes() == Ax_ref.tobytes(),
              "loaded A x differs from the generated A x")

    if w.method == "decoupled":
        _, A, _, R, _, Q = decoupled_pieces(inst, prior)
    else:
        A, R, Q = inst.A, inst.R, prior.Q
    if tracer is not None:
        A, R, Q = tracer.operator("A", A), tracer.operator("R", R), tracer.operator("Q", Q)
        if w.method != "decoupled":
            prior = pc.PriorModel(prior.mean, Q)

    res = timed("solve", solve, w, inst, prior, A, R, Q, threads)
    var = timed("variance", variance, w, inst, prior, res, A, R, Q)
    if peak_rss_mb is not None:
        rep.rss_mb = peak_rss_mb()

    _check_outputs(rep, w, inst, prior, res, var)
    return rep


def _check_outputs(rep: Rep, w: Workload, inst, prior, res, var) -> None:
    if w.method == "decoupled":
        subs = [r for r in res.sub_results if r is not None]
        lam = w.lam
    else:
        subs = [res]
        lam = res.lam
    rep.iterations = sum(r.iterations for r in subs)
    facts = [r.factorization for r in subs]
    rep.check(all(r.iterations == w.max_iter for r in subs),
              f"a solve stopped before its {w.max_iter} iterations")

    orth_u = orth_v = 0.0
    for fact in facts:
        rel = gengk.krylov_basis_span_check(fact)
        orth_u = max(orth_u, rel.get("orth_U", 0.0))
        orth_v = max(orth_v, rel.get("orth_V", 0.0))
    rep.orth = (orth_u, orth_v)
    rep.check(orth_u <= ORTH_TOL and orth_v <= ORTH_TOL,
              f"gen-GK orthogonality orth_U={orth_u:.3e} orth_V={orth_v:.3e} "
              f"> {ORTH_TOL:g}")

    mask = inst.meta.get("mask")
    if mask is not None:
        mask = np.tile(mask, inst.n_t)  # spatial mask, same at every time
    rep.rel_error = hybrid.relative_error(res.s, inst.s_true, mask)
    rep.check(np.all(np.isfinite(res.s)) and np.isfinite(rep.rel_error),
              "reconstruction is not finite")

    upper = prior.Q.diagonal() / lam ** 2
    slack = VARIANCE_RTOL * upper
    rep.check(var.shape == upper.shape and np.all(np.isfinite(var)),
              "variance field is not finite or has the wrong size")
    rep.check(var.shape == upper.shape
              and np.all(var >= -slack) and np.all(var <= upper + slack),
              "variance field leaves [0, diag(Q)/lambda^2]")
