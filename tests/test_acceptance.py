"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line;
the assertions carry the details.  Runtime budgets are asserted alongside the
numerical tolerances, so run these on an otherwise idle machine.
"""

import time

import numpy as np
import scipy.sparse as sp

from dyninv import decoupled, gengk, hybrid, oracle, problems, uq
from dyninv import priorcov as pc
from dyninv.linop import (DenseOperator, KroneckerOperator, ScaledIdentityOperator,
                          SparseOperator, identity)

from conftest import random_problem, random_spd, run_gengk, tikhonov


def _report(label, failures):
    print(f"[{'FAIL' if failures else 'PASS'}] {label}")
    assert not failures, f"{label}: " + "; ".join(failures)


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def wrap(A, R, Q):
    return DenseOperator(A), DenseOperator(R), DenseOperator(Q)


# ----------------------------------------------------------------------
# 1. bidiagonalization relations on random weighted instances
# ----------------------------------------------------------------------

def test_acceptance_bidiagonalization_relations():
    failures = []
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst = {}
    for trial in range(30):
        m = int(rng.integers(40, 151))
        n = int(rng.integers(40, 201))
        A, R, Q, b = random_problem(rng, m, n, cond=1e4)
        fact = run_gengk(*wrap(A, R, Q), b, k=25, reorthogonalize=True)
        report = gengk.krylov_basis_span_check(fact)
        for key, val in report.items():
            worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.perf_counter() - t0
    for key in ("orth_U", "orth_V", "resid_b", "resid_AQV", "resid_AtRinvU"):
        _check(failures, worst[key] <= 1e-10, f"{key} = {worst[key]:.3e}")
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _report("gen-GK relations and weighted orthogonality", failures)


# ----------------------------------------------------------------------
# 2. hybrid solver vs. dense MAP oracles
# ----------------------------------------------------------------------

def test_acceptance_map_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    cases = [(50, 120, True), (120, 80, False)]
    for m, n, with_mean in cases:
        A, R, Q, _ = random_problem(rng, m, n)
        mu = rng.standard_normal(n) if with_mean else np.zeros(n)
        d = rng.standard_normal(m)
        prior = pc.PriorModel(mean=mu, Q=DenseOperator(Q))
        for lam in (0.1, 1.0, 10.0):
            p = oracle.DenseProblem(A, R, Q, d, mu, lam)
            s_ne = oracle.map_normal_equations(p)
            s_gt = oracle.map_general_tikhonov(p)
            s_sm = oracle.map_sherman_morrison(p)
            ref = np.linalg.norm(s_ne)
            _check(failures, np.linalg.norm(s_ne - s_gt) <= 1e-10 * ref,
                   f"m={m} lam={lam}: Tikhonov oracle deviates")
            _check(failures, np.linalg.norm(s_ne - s_sm) <= 1e-10 * ref,
                   f"m={m} lam={lam}: low-rank-update oracle deviates")
            opts = hybrid.SolverOptions(max_iter=m + n, reorthogonalize=True)
            res = hybrid.genhybr_solve(DenseOperator(A), DenseOperator(R),
                                       prior, d, hybrid.Fixed(lam), opts)
            dev = np.linalg.norm(res.s - s_ne) / ref
            _check(failures, dev <= 1e-8,
                   f"m={m} lam={lam}: solver deviates {dev:.3e}")
            _check(failures, res.stop_reason == "breakdown",
                   f"m={m} lam={lam}: stopped on {res.stop_reason}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _report("MAP oracle equivalence (fixed lambda, run to breakdown)", failures)


# ----------------------------------------------------------------------
# 3. decoupled solver vs. oracle and simultaneous solver
# ----------------------------------------------------------------------

def test_acceptance_decoupled_equivalence():
    failures = []
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    n_s, n_t, m_bar = 256, 5, 40
    At = rng.standard_normal((n_t, n_t))
    As = rng.standard_normal((m_bar, n_s))
    Rt = random_spd(rng, n_t, cond=10)
    Rs = random_spd(rng, m_bar, cond=10)
    Qt = random_spd(rng, n_t, cond=10)
    Qs = random_spd(rng, n_s, cond=10)
    d = rng.standard_normal(m_bar * n_t)
    lam = 0.5

    opts = hybrid.SolverOptions(max_iter=n_s + 5, reorthogonalize=True)
    dec = decoupled.decoupled_solve(At, DenseOperator(As), Rt,
                                    DenseOperator(Rs), Qt, DenseOperator(Qs),
                                    d, hybrid.Fixed(lam), opts)
    s_dec = dec.S.reshape(-1, order="F")

    A = np.kron(At, As)
    exact = oracle.map_normal_equations(oracle.DenseProblem(
        A, np.kron(Rt, Rs), np.kron(Qt, Qs), d, lam=lam))
    ref = np.linalg.norm(exact)
    _check(failures, np.linalg.norm(s_dec - exact) <= 1e-8 * ref,
           "decoupled result deviates from the dense oracle")

    prior = pc.PriorModel.zero_mean(
        KroneckerOperator(DenseOperator(Qt), DenseOperator(Qs)))
    sim = hybrid.genhybr_solve(
        KroneckerOperator(DenseOperator(At), DenseOperator(As)),
        KroneckerOperator(DenseOperator(Rt), DenseOperator(Rs)),
        prior, d, hybrid.Fixed(lam),
        hybrid.SolverOptions(max_iter=m_bar * n_t + 5, reorthogonalize=True))
    _check(failures, np.linalg.norm(s_dec - sim.s) <= 1e-8 * ref,
           "decoupled result deviates from the simultaneous solver")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _report("decoupled/simultaneous/oracle agreement", failures)


# ----------------------------------------------------------------------
# 4. posterior variance: exactness, bounds, monotone refinement
# ----------------------------------------------------------------------

def test_acceptance_posterior_variance():
    failures = []
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()

    # full-rank estimate equals the dense posterior diagonal
    m, n = 70, 60
    A, R, Q, b = random_problem(rng, m, n)
    lam = 0.9
    fact = run_gengk(*wrap(A, R, Q), b, k=n, reorthogonalize=True)
    approx = uq.build_posterior_approx(fact, DenseOperator(Q), lam)
    var = uq.variance_diag(approx)
    exact = np.diag(oracle.dense_posterior(
        oracle.DenseProblem(A, R, Q, b, lam=lam)))
    dev = np.max(np.abs(var - exact)) / np.max(exact)
    _check(failures, dev <= 1e-8, f"full-rank variance deviates {dev:.3e}")

    # prior bound and monotone refinement as Ritz pairs are added
    prior_var = np.diag(Q) / lam ** 2
    _check(failures, np.all(np.diff(approx.thetas) <= 0),
           "Ritz values not sorted descending")
    prev = None
    for r in range(approx.rank + 1):
        v_r = prior_var - ((approx.QV @ approx.W[:, :r]) ** 2) @ approx.deltas[:r]
        _check(failures, np.all(v_r <= prior_var + 1e-12),
               f"rank-{r} estimate exceeds the prior bound")
        if prev is not None and not np.all(v_r <= prev + 1e-10):
            failures.append(f"rank-{r} estimate not nonincreasing")
        prev = v_r

    # decoupled variance at full rank matches the dense diagonal
    n_s, n_t, m_bar = 8, 4, 8
    At = rng.standard_normal((n_t, n_t))
    As = rng.standard_normal((m_bar, n_s))
    Rt = random_spd(rng, n_t, cond=10)
    Rs = random_spd(rng, m_bar, cond=10)
    Qt = random_spd(rng, n_t, cond=10)
    Qs = random_spd(rng, n_s, cond=10)
    d = rng.standard_normal(m_bar * n_t)
    plan = decoupled.build_plan(At, DenseOperator(As), Rt, DenseOperator(Rs),
                                Qt, DenseOperator(Qs), d)
    facts = {}
    for i in range(plan.n_t):
        if plan.sigma_zero(i):
            facts[i] = None
            continue
        op = decoupled.ScaledOperator(plan.sigmas[i], plan.A_s)
        facts[i] = run_gengk(op, plan.R_s, plan.Q_s, plan.rhs(i), k=n_s,
                             reorthogonalize=True)
    var_dec = uq.decoupled_variance_diag(plan, facts, lam)
    exact_dec = np.diag(oracle.dense_posterior(oracle.DenseProblem(
        np.kron(At, As), np.kron(Rt, Rs), np.kron(Qt, Qs), d, lam=lam)))
    dev = np.max(np.abs(var_dec.reshape(-1, order="F") - exact_dec)) \
        / np.max(np.abs(exact_dec))
    _check(failures, dev <= 1e-6, f"decoupled variance deviates {dev:.3e}")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 15.0, f"runtime {elapsed:.2f}s >= 15s")
    _report("posterior variance exactness, bounds, monotonicity", failures)


# ----------------------------------------------------------------------
# 5. covariance kernels and temporal priors
# ----------------------------------------------------------------------

def test_acceptance_kernels():
    failures = []
    t0 = time.perf_counter()
    r = np.arange(0.0, 3.01, 0.1)

    # nu = 1/2 is the exponential kernel
    for ell in (0.5, 1.0, 2.0):
        dev = np.max(np.abs(pc.matern_eval(pc.MaternKernel(0.5, ell), r)
                            - np.exp(-r / ell)))
        _check(failures, dev <= 1e-12, f"nu=1/2 ell={ell} deviates {dev:.3e}")

    # nu = 3/2 closed form (1 + sqrt(3) r/ell) exp(-sqrt(3) r/ell)
    for ell in (0.5, 1.0, 2.0):
        z = np.sqrt(3.0) * r / ell
        dev = np.max(np.abs(pc.matern_eval(pc.MaternKernel(1.5, ell), r)
                            - (1.0 + z) * np.exp(-z)))
        _check(failures, dev <= 1e-12, f"nu=3/2 ell={ell} deviates {dev:.3e}")

    # large nu approaches the squared-exponential limit
    dev = np.max(np.abs(pc.matern_eval(pc.MaternKernel(100.0, 1.0), r)
                        - np.exp(-r ** 2 / 2.0)))
    _check(failures, dev <= 1e-2, f"nu=100 Gaussian-limit deviation {dev:.3e}")

    # random-walk temporal prior and its closed-form inverse
    n_t = 200
    Qt, Qt_inv = pc.build_minij_prior(n_t)
    dev = np.max(np.abs(Qt.to_dense() @ Qt_inv.to_dense() - np.eye(n_t)))
    _check(failures, dev <= 1e-12, f"minij inverse deviates {dev:.3e}")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 2.0, f"runtime {elapsed:.2f}s >= 2s")
    _report("kernel evaluations and temporal priors", failures)


# ----------------------------------------------------------------------
# 6. regularization-parameter selection machinery
# ----------------------------------------------------------------------

def test_acceptance_gcv_machinery():
    failures = []
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()

    # weighted GCV at w=1 reduces to plain GCV
    for _ in range(5):
        k = int(rng.integers(3, 25))
        alphas, betas = rng.uniform(0.1, 2.0, (2, k))
        B = np.eye(k + 1, k) * alphas + np.eye(k + 1, k, -1) * betas
        beta1 = float(rng.uniform(0.5, 3.0))
        proj = hybrid.ProjectedProblem(B, beta1)
        for lam in np.logspace(-3, 2, 12):
            g1 = proj.fit(lam, 1.0).gcv
            g0 = proj.fit(lam).gcv
            _check(failures, abs(g1 - g0) <= 1e-14 * max(1.0, abs(g0)),
                   f"w=1 weighted GCV deviates at lam={lam:.3e}")

    # the zoom search agrees with a fine grid search
    A, R, Q, _ = random_problem(rng, 40, 30)
    s_true = rng.standard_normal(30)
    d = A @ s_true + 0.1 * rng.standard_normal(40)
    fact = run_gengk(*wrap(A, R, Q), d, k=15, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(), fact.beta1)
    s_max = proj.s[0]
    lam_search = hybrid.minimize_over_lambda(lambda l: proj.fit(l).gcv, s_max)
    grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 2000)
    lam_grid = grid[np.argmin([proj.fit(l).gcv for l in grid])]
    cell = grid[1] / grid[0]
    _check(failures, lam_grid / cell <= lam_search <= lam_grid * cell,
           f"search {lam_search:.4e} vs grid {lam_grid:.4e}")

    # at full rank with a square-plus-one data space the projected GCV
    # reproduces the full-form objective, so the minimizers coincide
    m, n = 13, 12
    A, R, Q, _ = random_problem(rng, m, n)
    d = A @ rng.standard_normal(n) + 0.05 * rng.standard_normal(m)
    fact = run_gengk(*wrap(A, R, Q), d, k=n, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(), fact.beta1)
    s_max = proj.s[0]
    grid = np.logspace(np.log10(1e-12 * s_max), np.log10(1e3 * s_max), 200)
    p = oracle.DenseProblem(A, R, Q, d, lam=1.0)
    lam_proj = grid[np.argmin([proj.fit(l).gcv for l in grid])]
    lam_full = grid[np.argmin([oracle.gcv_full(p, l) for l in grid])]
    cell = grid[1] / grid[0]
    _check(failures, lam_full / cell <= lam_proj <= lam_full * cell,
           f"projected {lam_proj:.4e} vs full {lam_full:.4e}")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _report("GCV selection machinery", failures)


# ----------------------------------------------------------------------
# 7. qualitative orderings on the imaging toys
# ----------------------------------------------------------------------

def _best_lambda_error(A, R, Q, d, s_true, k, tile=1):
    """Relative error at the best regularization parameter, from one
    factorization of depth k (the parameter sweep reuses the projected SVD)."""
    fact = run_gengk(A, R, Q, d, k=k, reorthogonalize=True)
    proj = hybrid.ProjectedProblem(fact.bidiagonal(fact.k), fact.beta1)
    QV = fact.QV_matrix(fact.k)
    best = np.inf
    for lam in np.logspace(-6, 3, 60) * proj.s[0]:
        s = QV @ tikhonov(proj, lam)
        if tile > 1:
            s = np.tile(s, tile)
        best = min(best, hybrid.relative_error(s, s_true))
    return best


def test_acceptance_temporal_prior_ordering():
    # slowly rotating object, one projection view per frame: coupling the
    # frames through a temporal prior must beat frame-independent recovery,
    # which must beat pretending the object is static
    failures = []
    t0 = time.perf_counter()
    nx = ny = 64
    n_t = 24
    inst = problems.gen_rotating_gaussians(nx, ny, n_t, noise_level=0.04,
                                           seed=3, revolutions=0.5)
    pts1 = pc.PointSet.from_coords((np.arange(nx) + 0.5) / nx)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(1.0, 0.1), pts1)
    Qs = KroneckerOperator(Qx, Qx)
    tpts = pc.PointSet.from_coords(np.arange(n_t) / n_t)
    Qt = pc.build_kernel_matrix(pc.MaternKernel(1e5, 0.06), tpts)

    err_temporal = _best_lambda_error(
        inst.A, inst.R, KroneckerOperator(Qt, Qs), inst.d, inst.s_true, k=100)
    err_identity = _best_lambda_error(
        inst.A, inst.R, KroneckerOperator(identity(n_t), Qs), inst.d,
        inst.s_true, k=100)
    # the per-time blocks stacked vertically act on one static frame; sorted
    # indices give the same CSR, bit for bit, as stacking the blocks
    A_static = SparseOperator(
        (inst.A.matrix @ sp.vstack([sp.identity(nx * ny)] * n_t)).sorted_indices())
    err_static = _best_lambda_error(
        A_static, ScaledIdentityOperator(inst.noise_sigma ** 2, A_static.rows),
        Qs, inst.d, inst.s_true, k=100, tile=n_t)

    _check(failures, err_temporal < err_identity,
           f"temporal {err_temporal:.4f} !< identity {err_identity:.4f}")
    _check(failures, err_identity < err_static,
           f"identity {err_identity:.4f} !< static {err_static:.4f}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _report("temporal-prior ordering on the rotating phantom "
            f"({err_temporal:.3f} < {err_identity:.3f} < {err_static:.3f})",
            failures)


def test_acceptance_semiconvergence_and_selection():
    failures = []
    t0 = time.perf_counter()
    nx = ny = 32
    n_t = 8
    inst = problems.gen_dynamic_deblur(nx, ny, n_t, spatial_sigma=0.1,
                                       spatial_bandwidth=16, noise_level=0.05,
                                       seed=11)
    pts1 = pc.PointSet.from_coords((np.arange(nx) + 0.5) / nx)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(1.5, 0.1), pts1)
    Qt, _ = pc.build_minij_prior(n_t)
    prior = pc.PriorModel.zero_mean(
        KroneckerOperator(Qt, KroneckerOperator(Qx, Qx)))
    opts = hybrid.SolverOptions(max_iter=100, reorthogonalize=True)

    # unregularized iteration semiconverges: interior error minimum
    res0 = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d,
                                hybrid.Fixed(0.0), opts, s_true=inst.s_true)
    errs = np.array([it.rel_error for it in res0.history])
    i_min = int(errs.argmin())
    _check(failures, 0 < i_min < len(errs) - 1,
           f"no interior minimum (argmin {i_min + 1} of {len(errs)})")
    _check(failures, errs[-1] > errs[i_min],
           "error did not grow after the minimum")

    # a well-chosen parameter holds the final error near that minimum
    res_opt = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d,
                                   hybrid.Optimal(inst.s_true), opts)
    err_opt = hybrid.relative_error(res_opt.s, inst.s_true)
    _check(failures, err_opt <= 1.02 * errs[i_min],
           f"best-parameter error {err_opt:.4f} > 1.02 x {errs[i_min]:.4f}")

    # data-driven selection stays close to the best parameter
    res_w = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d,
                                 hybrid.WGCV(), opts)
    err_w = hybrid.relative_error(res_w.s, inst.s_true)
    _check(failures, err_w <= 1.5 * err_opt,
           f"weighted-GCV error {err_w:.4f} > 1.5 x {err_opt:.4f}")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _report("semiconvergence and automatic parameter selection", failures)


# ----------------------------------------------------------------------
# 8. performance smoke test at scale
# ----------------------------------------------------------------------

def test_acceptance_performance_smoke(tmp_path):
    failures = []
    t0 = time.perf_counter()
    nx = ny = 128
    n_t = 30
    inst = problems.gen_ray_tomography(nx, ny, n_t, rays_per_time=400, seed=2)
    _check(failures, inst.A.cols == 491520, f"unknown count {inst.A.cols}")

    pts1 = pc.PointSet.from_coords((np.arange(nx) + 0.5) / nx)
    Qx = pc.build_kernel_matrix(pc.MaternKernel(1.5, 0.1), pts1)
    Qs = KroneckerOperator(Qx, Qx)
    Qt, _ = pc.build_minij_prior(n_t)
    prior = pc.PriorModel.zero_mean(KroneckerOperator(Qt, Qs))

    opts = hybrid.SolverOptions(max_iter=10, reorthogonalize=True)
    res = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d,
                               hybrid.Fixed(1.0), opts)
    elapsed = time.perf_counter() - t0
    _check(failures, res.iterations == 10, f"ran {res.iterations} iterations")
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")

    # timing breakdown in the convergence log: operator applications dominate
    log = tmp_path / "convergence.csv"
    res.write_convergence_csv(log)
    rows = log.read_text().strip().splitlines()
    header = rows[0].split(",")
    wall_col = header.index("wall_time_s")
    op_col = header.index("op_time_s")
    wall = sum(float(r.split(",")[wall_col]) for r in rows[1:])
    op = sum(float(r.split(",")[op_col]) for r in rows[1:])
    _check(failures, op >= 0.5 * wall,
           f"operator time {op:.3f}s not dominant in {wall:.3f}s")
    _report("performance smoke at 491,520 unknowns", failures)
