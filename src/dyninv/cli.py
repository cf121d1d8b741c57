"""Batch command-line driver.

Subcommands: ``generate`` (build and serialize a test problem), ``solve``
(run the simultaneous or decoupled solver), ``variance`` (posterior-variance
field), ``oracle`` (dense reference solves for debugging), and ``kernel-eval``
(print kernel values).

Configuration is a flat INI file with typed key-value pairs under section
headers; every key can be overridden on the command line as
``--section.key=value``.  Each run writes a manifest capturing the resolved
configuration, sufficient to reproduce outputs bitwise (modulo wall-time
fields).  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time

import numpy as np

from . import decoupled, hybrid, io as dio, oracle, priorcov, problems, uq
from .errors import (BudgetExceededError, ConditioningError, DegenerateInputError,
                     ParameterError, ShapeError)
from .linop import (DenseOperator, KroneckerOperator, LinearOperator,
                    ScaledIdentityOperator, identity)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (ParameterError, ShapeError, DegenerateInputError,
                      configparser.Error, KeyError, ValueError, FileNotFoundError)
_NUMERICAL_ERRORS = (ConditioningError, BudgetExceededError,
                     np.linalg.LinAlgError)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

class RunConfig:
    """Typed view over the INI sections with command-line overrides applied."""

    def __init__(self, path=None, overrides=()):
        self.cfg = configparser.ConfigParser()
        if path is not None:
            if not self.cfg.read(path):
                raise ParameterError(f"cannot read config file {path}")
        for ov in overrides:
            if not ov.startswith("--") or "=" not in ov or "." not in ov:
                raise ParameterError(
                    f"override {ov!r} must look like --section.key=value")
            key, value = ov[2:].split("=", 1)
            section, name = key.split(".", 1)
            if not self.cfg.has_section(section):
                self.cfg.add_section(section)
            self.cfg.set(section, name, value)

    def get(self, section, key, default=None, type_=str):
        if not self.cfg.has_option(section, key):
            if default is None and type_ is not str:
                return None
            return default
        raw = self.cfg.get(section, key)
        if type_ is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return type_(raw)

    def require(self, section, key, type_=str):
        if not self.cfg.has_option(section, key):
            raise ParameterError(f"missing required config field [{section}] {key}")
        return self.get(section, key, type_=type_)

    def write_manifest(self, directory, extra=None):
        os.makedirs(directory, exist_ok=True)
        out = configparser.ConfigParser()
        # preserve anything already recorded there (e.g. instance metadata)
        out.read(os.path.join(directory, "manifest.ini"))
        out.read_dict({s: dict(self.cfg[s]) for s in self.cfg.sections()})
        if extra:
            out.read_dict(extra)
        with open(os.path.join(directory, "manifest.ini"), "w") as fh:
            out.write(fh)


def _output_dir(cfg: RunConfig) -> str:
    root = os.environ.get("DYNINV_OUTPUT_ROOT", "")
    d = cfg.get("output", "dir", "dyninv_out")
    return os.path.join(root, d) if root else d


# ----------------------------------------------------------------------
# Problem / prior assembly
# ----------------------------------------------------------------------

def load_problem(cfg: RunConfig) -> problems.ProblemInstance:
    path = cfg.get("problem", "path")
    gen = cfg.get("problem", "generator")
    if path is None and gen is None:
        raise ParameterError("one of [problem] path or generator is required")
    if path is not None:  # an on-disk instance wins over a generator recipe
        return problems.load_instance(path)
    return generate_problem(cfg)


def generate_problem(cfg: RunConfig) -> problems.ProblemInstance:
    gen = cfg.require("problem", "generator")
    nx = cfg.require("problem", "nx", int)
    ny = cfg.require("problem", "ny", int)
    n_t = cfg.require("problem", "n_t", int)
    seed = cfg.get("problem", "seed", 0, int)
    if gen == "deblur":
        return problems.gen_dynamic_deblur(
            nx, ny, n_t,
            spatial_sigma=cfg.get("problem", "spatial_sigma", 0.07, float),
            spatial_bandwidth=cfg.get("problem", "spatial_bandwidth", 3, int),
            temporal_sigma=cfg.get("problem", "temporal_sigma", 1.0, float),
            temporal_bandwidth=cfg.get("problem", "temporal_bandwidth", 3, int),
            noise_level=cfg.get("problem", "noise_level", 0.02, float),
            seed=seed)
    if gen == "tomography":
        return problems.gen_ray_tomography(
            nx, ny, n_t,
            rays_per_time=cfg.get("problem", "rays_per_time", 200, int),
            noise_sigma=cfg.get("problem", "noise_sigma", 0.0015, float),
            seed=seed,
            coverage_threshold=cfg.get("problem", "coverage_threshold", 1, int))
    if gen == "rotating":
        return problems.gen_rotating_gaussians(
            nx, ny, n_t,
            radii_count=cfg.get("problem", "radii_count", 0, int),
            noise_level=cfg.get("problem", "noise_level", 0.02, float),
            seed=seed,
            width=cfg.get("problem", "width", 0.08, float),
            orbit_radius=cfg.get("problem", "orbit_radius", 0.25, float),
            revolutions=cfg.get("problem", "revolutions", 1.0, float))
    raise ParameterError(f"unknown generator {gen!r}")


def _spatial_kernel(cfg: RunConfig):
    family = cfg.get("prior", "spatial", "matern")
    if family == "identity":
        return None
    if family == "matern":
        return priorcov.MaternKernel(cfg.get("prior", "nu", 1.0, float),
                                     cfg.get("prior", "ell", 0.1, float))
    if family == "gamma_exp":
        return priorcov.GammaExpKernel(cfg.get("prior", "gamma", 1.0, float),
                                       cfg.get("prior", "ell", 0.1, float))
    raise ParameterError(f"unknown spatial kernel family {family!r}")


def build_prior(cfg: RunConfig, inst: problems.ProblemInstance) -> priorcov.PriorModel:
    n_s, n_t = inst.n_s, inst.n_t
    nugget = cfg.get("prior", "nugget", priorcov.DEFAULT_NUGGET, float)
    structure = cfg.get("prior", "structure", "kron")
    mean_value = cfg.get("prior", "mean", 0.0, float)
    mean = np.full(n_s * n_t, mean_value)
    times = np.linspace(0.0, 1.0, n_t) if n_t > 1 else np.array([0.0])

    kern = _spatial_kernel(cfg)
    if structure == "nonseparable":
        if kern is None:
            raise ParameterError("nonseparable prior requires a spatial kernel")
        nk = priorcov.NonseparableKernel(kern,
                                         c1=cfg.get("prior", "c1", 1.0, float),
                                         c2=cfg.get("prior", "c2", 0.0, float))
        Q = priorcov.build_nonseparable_Q(
            nk, priorcov.PointSet.regular_grid_2d(*inst.grid),
            priorcov.PointSet.from_coords(times), nugget)
        return priorcov.PriorModel(mean, Q)
    if structure != "kron":
        raise ParameterError(f"unknown prior structure {structure!r}")

    if kern is None:
        Qs = identity(n_s)
    else:
        Qs = priorcov.build_kernel_matrix(
            kern, priorcov.PointSet.regular_grid_2d(*inst.grid), nugget)
    variant = cfg.get("prior", "temporal", "identity")
    tkern = None
    if variant == "kernel":
        tkern = priorcov.MaternKernel(cfg.get("prior", "temporal_nu", 1.5, float),
                                      cfg.get("prior", "temporal_ell", 0.3, float))
    Qt = priorcov.build_temporal_prior(
        variant, n_t=n_t, t=times, kernel=tkern,
        gamma=cfg.get("prior", "fd_gamma", 1e-3, float), nugget=nugget)
    return priorcov.PriorModel(mean, KroneckerOperator(Qt, Qs))


def build_strategy(cfg: RunConfig, inst: problems.ProblemInstance):
    name = cfg.get("solver", "strategy", "wgcv")
    if name == "fixed":
        return hybrid.Fixed(cfg.require("solver", "lambda", float))
    if name == "gcv":
        return hybrid.WGCV(1.0)
    if name == "wgcv":
        return hybrid.WGCV(cfg.get("solver", "wgcv_weight", 0.8, float))
    if name == "optimal":
        if inst.s_true is None:
            raise ParameterError("optimal strategy requires an instance with truth")
        return hybrid.Optimal(inst.s_true)
    raise ParameterError(f"unknown strategy {name!r}")


def build_options(cfg: RunConfig, inst: problems.ProblemInstance) -> hybrid.SolverOptions:
    mask = inst.meta.get("mask")
    if mask is not None and mask.size == inst.n_s:
        mask = np.tile(mask, inst.n_t)  # spatial mask, same at every time
    return hybrid.SolverOptions(
        max_iter=cfg.get("solver", "max_iter", 100, int),
        reorthogonalize=cfg.get("solver", "reorth", False, bool),
        error_mask=mask,
    )


def _decoupled_pieces(cfg: RunConfig, inst, prior):
    """Validate the full-Kronecker requirement and split operators into factors."""
    A = inst.A
    Q = prior.Q
    if not isinstance(A, KroneckerOperator):
        raise ParameterError("decoupled solver requires a Kronecker forward operator")
    if not isinstance(Q, KroneckerOperator):
        raise ParameterError("decoupled solver requires a Kronecker prior covariance")
    if not isinstance(inst.R, ScaledIdentityOperator):
        raise ParameterError("decoupled solver requires scaled-identity noise here")
    m_bar = A.right.rows
    Rt = np.eye(inst.n_t)
    Rs = ScaledIdentityOperator(inst.R.scale, m_bar)
    return A.left, A.right, Rt, Rs, Q.left, Q.right


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> int:
    inst = generate_problem(cfg)
    outdir = _output_dir(cfg)
    problems.save_instance(inst, outdir)
    cfg.write_manifest(outdir, {"run": {"command": "generate"}})
    print(f"wrote instance ({inst.kind}, n={inst.n_s * inst.n_t}, m={inst.d.size}) "
          f"to {outdir}")
    return EXIT_OK


def _write_summary(outdir, values):
    out = configparser.ConfigParser()
    out["summary"] = {k: str(v) for k, v in values.items()}
    with open(os.path.join(outdir, "summary.ini"), "w") as fh:
        out.write(fh)


def cmd_solve(cfg: RunConfig) -> int:
    inst = load_problem(cfg)
    prior = build_prior(cfg, inst)
    strategy = build_strategy(cfg, inst)
    options = build_options(cfg, inst)
    method = cfg.get("solver", "method", "simultaneous")
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)

    t0 = time.perf_counter()
    if method == "simultaneous":
        res = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d, strategy,
                                   options, s_true=inst.s_true)
        s = res.s
        lam = res.lam
        iters = res.iterations
        stop = res.stop_reason
        res.write_convergence_csv(os.path.join(outdir, "convergence.csv"))
    elif method == "decoupled":
        At, As, Rt, Rs, Qt, Qs = _decoupled_pieces(cfg, inst, prior)
        per_time = cfg.get("solver", "per_time_lambda", False, bool)
        dres = decoupled.decoupled_solve(
            At, As, Rt, Rs, Qt, Qs, inst.d, strategy, options, mu=prior.mean,
            per_time_lambda=per_time)
        s = dres.s
        lam = max(dres.per_time_lambda)
        iters = sum(dres.per_time_iters)
        stop = "decoupled"
        _write_decoupled_logs(outdir, dres)
    else:
        raise ParameterError(f"unknown solver method {method!r}")
    wall = time.perf_counter() - t0

    dio.write_vector_bin(os.path.join(outdir, "reconstruction.bin"), s)
    summary = {"lambda": lam, "iterations": iters, "wall_time_s": wall,
               "stop_reason": stop, "method": method}
    if inst.s_true is not None:
        summary["rel_error"] = hybrid.relative_error(s, inst.s_true,
                                                     options.error_mask)
    _write_summary(outdir, summary)
    cfg.write_manifest(outdir, {"run": {"command": "solve"}})
    print(f"solve done: lambda={lam:.6g} iters={iters} stop={stop} "
          f"wall={wall:.2f}s" + (f" rel_error={summary['rel_error']:.4g}"
                                 if "rel_error" in summary else ""))
    return EXIT_OK


def _write_decoupled_logs(outdir, dres):
    import csv

    with open(os.path.join(outdir, "convergence.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_index"] + hybrid.CONVERGENCE_COLUMNS)
        for i, res in enumerate(dres.sub_results):
            if res is None:
                continue
            writer.writerows([i] + row for row in res.convergence_rows())


def cmd_variance(cfg: RunConfig) -> int:
    inst = load_problem(cfg)
    prior = build_prior(cfg, inst)
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)

    lam = cfg.get("uq", "lambda", None, float)
    if lam is None:
        summary_path = os.path.join(outdir, "summary.ini")
        summary = configparser.ConfigParser()
        if summary.read(summary_path) and summary.has_option("summary", "lambda"):
            lam = summary.getfloat("summary", "lambda")
    if lam is None or lam <= 0:
        raise ParameterError("variance requires a positive lambda, from "
                             "[uq] lambda or a prior solve summary")
    rank = cfg.get("uq", "rank", 20, int)

    b = inst.d - inst.A.apply(prior.mean)
    var, k_total = uq.restarted_variance_diag(inst.A, inst.R, prior.Q, b, lam,
                                              rank)
    dio.write_matrix_bin(os.path.join(outdir, "variance.bin"),
                         var.reshape(inst.n_s, inst.n_t, order="F"))
    summary = {"lambda": lam, "k": k_total,
               "reorthogonalized": True, "command": "variance"}
    n = inst.n_s * inst.n_t
    if n <= 512 and inst.d.size <= 512:  # verification footer when the oracle is feasible
        p = oracle.DenseProblem(inst.A.to_dense(), inst.R.to_dense(),
                                prior.Q.to_dense(), inst.d, prior.mean, lam)
        exact = np.diag(oracle.dense_posterior(p))
        summary["oracle_max_dev"] = float(np.max(np.abs(var - exact)))
    _write_summary(outdir, summary)
    cfg.write_manifest(outdir, {"run": {"command": "variance"}})
    print(f"variance field written (k={k_total}, lambda={lam:.6g}) to {outdir}")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    inst = load_problem(cfg)
    prior = build_prior(cfg, inst)
    lam = cfg.get("solver", "lambda", 1.0, float)
    p = oracle.DenseProblem(inst.A.to_dense(), inst.R.to_dense(),
                            prior.Q.to_dense(), inst.d, prior.mean, lam)
    s1 = oracle.map_normal_equations(p)
    s2 = oracle.map_general_tikhonov(p)
    s3 = oracle.map_sherman_morrison(p)
    outdir = _output_dir(cfg)
    os.makedirs(outdir, exist_ok=True)
    dio.write_vector_bin(os.path.join(outdir, "oracle_map.bin"), s1)
    dev12 = np.linalg.norm(s1 - s2) / np.linalg.norm(s1)
    dev13 = np.linalg.norm(s1 - s3) / np.linalg.norm(s1)
    _write_summary(outdir, {"lambda": lam, "dev_tikhonov": dev12,
                            "dev_sherman_morrison": dev13, "command": "oracle"})
    cfg.write_manifest(outdir, {"run": {"command": "oracle"}})
    print(f"oracle MAP written; formulation deviations {dev12:.3e}, {dev13:.3e}")
    return EXIT_OK


def cmd_kernel_eval(args) -> int:
    rs = np.array([float(r) for r in args.r])
    if args.family == "matern":
        kern = priorcov.MaternKernel(args.nu, args.ell)
        vals = priorcov.matern_eval(kern, rs)
    elif args.family == "gamma_exp":
        kern = priorcov.GammaExpKernel(args.gamma, args.ell)
        vals = priorcov.gamma_exp_eval(kern, rs)
    else:
        raise ParameterError(f"unknown kernel family {args.family!r}")
    for r, v in zip(np.atleast_1d(rs), np.atleast_1d(vals)):
        print(f"{float(r)!r},{float(v)!r}")
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="dyninv",
                                     description="dynamic inverse-problem driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "solve", "variance", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=False, default=None,
                        help="INI config file; keys overridable as --section.key=value")
    ke = sub.add_parser("kernel-eval")
    ke.add_argument("--family", default="matern", choices=["matern", "gamma_exp"])
    ke.add_argument("--nu", type=float, default=1.5)
    ke.add_argument("--gamma", type=float, default=1.0)
    ke.add_argument("--ell", type=float, default=1.0)
    ke.add_argument("r", nargs="+", help="distances to evaluate")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    overrides = [a for a in argv if a.startswith("--") and "=" in a and "." in a[2:].split("=", 1)[0]]
    rest = [a for a in argv if a not in overrides]
    parser = _build_parser()
    try:
        args = parser.parse_args(rest)
        if args.command == "kernel-eval":
            return cmd_kernel_eval(args)
        cfg = RunConfig(args.config, overrides)
        handler = {"generate": cmd_generate, "solve": cmd_solve,
                   "variance": cmd_variance, "oracle": cmd_oracle}[args.command]
        return handler(cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
