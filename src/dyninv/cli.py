"""Batch command-line driver.

Subcommands: ``generate`` (build and serialize a test problem), ``solve``
(run the simultaneous or decoupled solver; a reorthogonalized solve also
writes the posterior-variance field from its own factorization), ``oracle``
(dense reference solves for debugging), and ``kernel-eval`` (print kernel
values).

Configuration is a flat INI file with typed key-value pairs under section
headers; every key can be overridden on the command line as
``--section.key=value``, and a key that no section table names is a
validation error.  Each run writes a manifest capturing the resolved
configuration, sufficient to reproduce outputs bitwise (modulo wall-time
fields).  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import decoupled, hybrid, io as dio, oracle, priorcov, problems, uq
from .errors import (BudgetExceededError, ConditioningError, DegenerateInputError,
                     ParameterError, ShapeError)
from .linop import DenseOperator, KroneckerOperator, ScaledIdentityOperator

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

class Key(NamedTuple):
    """A config key's type, the library parameter it sets (None: the one of
    the key's name) and the CLI's default, given only where that parameter
    has none in the library; a key without one is passed only when set."""

    type: type
    param: str | None = None
    default: object = None


# One table per section, naming each key once.  [problem] also takes the
# keys of its generator, each that generator's keyword of the same name.
GENERATORS = {
    "deblur": (problems.gen_dynamic_deblur, dict(
        spatial_sigma=float, spatial_bandwidth=int, temporal_sigma=float,
        temporal_bandwidth=int, noise_level=float, seed=int)),
    "tomography": (problems.gen_ray_tomography, dict(
        rays_per_time=int, noise_sigma=float, coverage_threshold=int, seed=int)),
    "rotating": (problems.gen_rotating_gaussians, dict(
        radii_count=int, noise_level=float, width=float, orbit_radius=float,
        revolutions=float, seed=int)),
}
# [prior] spatial and kernel-eval --family; a kernel's fields are its keys
DEFAULT_KERNEL = "matern"
KERNELS = {DEFAULT_KERNEL: priorcov.MaternKernel,
           "gamma_exp": priorcov.GammaExpKernel}
SECTIONS = {
    "problem": {
        "path": Key(str),                  # problems.load_instance
        "generator": Key(str),             # a GENERATORS name
        "nx": Key(int), "ny": Key(int), "n_t": Key(int),
    },
    "prior": {
        "structure": Key(str, default="kron"),        # or nonseparable
        "spatial": Key(str, default=DEFAULT_KERNEL),  # a KERNELS name or identity
        "nu": Key(float, default=1.0),                # MaternKernel
        "gamma": Key(float, default=1.0),             # GammaExpKernel
        "ell": Key(float, default=0.1),               # either kernel
        "nugget": Key(float),                         # build_kernel_matrix
        "c1": Key(float), "c2": Key(float),           # PointSet.space_time
        "mean": Key(float, default=0.0),              # each entry of PriorModel.mean
        "temporal": Key(str, default="identity"),     # or minij, fd, kernel
        "temporal_nu": Key(float, "nu", 1.5),         # MaternKernel of Q_t
        "temporal_ell": Key(float, "ell", 0.3),
        "fd_gamma": Key(float, "gamma", 1e-3),        # build_fd_temporal
    },
    "solver": {
        "method": Key(str, default="simultaneous"),   # or decoupled
        "strategy": Key(str, default="wgcv"),         # or fixed, gcv, optimal
        "lambda": Key(float, "lam"),                  # Fixed, oracle.DenseProblem
        "wgcv_weight": Key(float, "w"),               # WGCV
        "max_iter": Key(int),                         # SolverOptions
        "reorth": Key(bool, "reorthogonalize"),
        "per_time_lambda": Key(bool),                 # decoupled.decoupled_solve
    },
    "uq": {"lambda": Key(float)},   # the variance field's; unset, the solve's
    "output": {"dir": Key(str, default="dyninv_out")},
}
# sections a run adds to its manifest.ini, ignored when one is read back
MANIFEST_SECTIONS = ("instance", "run")


class RunConfig:
    """Typed view over the INI sections with command-line overrides applied.

    A key that its section's table does not know raises ``ParameterError``.
    """

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

        self.keys = dict(SECTIONS)
        gen = self.cfg.get("problem", "generator", fallback=None)
        if gen is not None:
            if gen not in GENERATORS:
                raise ParameterError(f"unknown generator {gen!r}")
            self.keys["problem"] = {**SECTIONS["problem"], **{
                key: Key(type_) for key, type_ in GENERATORS[gen][1].items()}}
        for section in self.cfg.sections():
            unknown = set(self.cfg[section]) - set(self.keys.get(section, ()))
            if unknown and section not in MANIFEST_SECTIONS:
                raise ParameterError(f"unknown config key [{section}] {min(unknown)}")

    def get(self, section, key):
        spec = self.keys[section][key]
        if not self.cfg.has_option(section, key):
            return spec.default
        if spec.type is bool:
            return self.cfg.getboolean(section, key)
        return spec.type(self.cfg.get(section, key))

    def require(self, section, key):
        if not self.cfg.has_option(section, key):
            raise ParameterError(f"missing required config field [{section}] {key}")
        return self.get(section, key)

    def kwargs(self, section, *keys):
        """Keyword arguments for the library parameters that ``keys`` set,
        leaving out each key the config lacks and the CLI has no default for."""
        return {self.keys[section][key].param or key: value for key in keys
                if (value := self.get(section, key)) is not None}

    def write_manifest(self, directory, command):
        os.makedirs(directory, exist_ok=True)
        out = configparser.ConfigParser()
        # preserve anything already recorded there (e.g. instance metadata)
        out.read(os.path.join(directory, "manifest.ini"))
        out.read_dict({s: dict(self.cfg[s]) for s in self.cfg.sections()})
        out["run"] = {"command": command}
        with open(os.path.join(directory, "manifest.ini"), "w") as fh:
            out.write(fh)


# ----------------------------------------------------------------------
# Problem / prior assembly
# ----------------------------------------------------------------------

def load_problem(cfg: RunConfig) -> problems.ProblemInstance:
    path = cfg.get("problem", "path")
    if path is not None:  # an on-disk instance wins over a generator recipe
        return problems.load_instance(path)
    if cfg.get("problem", "generator") is None:
        raise ParameterError("one of [problem] path or generator is required")
    return generate_problem(cfg)


def generate_problem(cfg: RunConfig) -> problems.ProblemInstance:
    make, keys = GENERATORS[cfg.require("problem", "generator")]
    return make(cfg.require("problem", "nx"), cfg.require("problem", "ny"),
                cfg.require("problem", "n_t"), **cfg.kwargs("problem", *keys))


def build_prior(cfg: RunConfig, inst: problems.ProblemInstance) -> priorcov.PriorModel:
    n_s, n_t = inst.n_s, inst.n_t
    nugget = cfg.kwargs("prior", "nugget")
    mean = np.full(n_s * n_t, cfg.get("prior", "mean"))
    times = np.linspace(0.0, 1.0, n_t)
    grid = priorcov.PointSet.regular_grid_2d(*inst.grid)

    family = cfg.get("prior", "spatial")
    kern = None
    if family in KERNELS:
        cls = KERNELS[family]
        kern = cls(**cfg.kwargs("prior", *(f.name for f in dataclasses.fields(cls))))
    elif family != "identity":
        raise ParameterError(f"unknown spatial kernel family {family!r}")
    structure = cfg.get("prior", "structure")
    if structure == "nonseparable":
        if kern is None:
            raise ParameterError("nonseparable prior requires a spatial kernel")
        points = priorcov.PointSet.space_time(grid, times,
                                              **cfg.kwargs("prior", "c1", "c2"))
        return priorcov.PriorModel(
            mean, priorcov.build_kernel_matrix(kern, points, **nugget))
    if structure != "kron":
        raise ParameterError(f"unknown prior structure {structure!r}")

    if kern is None:
        Qs = ScaledIdentityOperator(1.0, n_s)
    else:
        Qs = priorcov.build_kernel_matrix(kern, grid, **nugget)
    variant = cfg.get("prior", "temporal")
    if variant == "identity":
        Qt = DenseOperator(np.eye(n_t))
    elif variant == "minij":
        Qt, _ = priorcov.build_minij_prior(n_t)
    elif variant == "fd":
        Qt = priorcov.build_fd_temporal(times, **cfg.kwargs("prior", "fd_gamma"))
    elif variant == "kernel":
        tkern = priorcov.MaternKernel(
            **cfg.kwargs("prior", "temporal_nu", "temporal_ell"))
        Qt = priorcov.build_kernel_matrix(
            tkern, priorcov.PointSet.from_coords(times), **nugget)
    else:
        raise ParameterError(f"unknown temporal prior variant {variant!r}")
    return priorcov.PriorModel(mean, KroneckerOperator(Qt, Qs))


def build_strategy(cfg: RunConfig, inst: problems.ProblemInstance):
    name = cfg.get("solver", "strategy")
    if name == "fixed":
        return hybrid.Fixed(cfg.require("solver", "lambda"))
    if name == "gcv":
        return hybrid.WGCV(1.0)
    if name == "wgcv":
        return hybrid.WGCV(**cfg.kwargs("solver", "wgcv_weight"))
    if name == "optimal":
        if inst.s_true is None:
            raise ParameterError("optimal strategy requires an instance with truth")
        return hybrid.Optimal(inst.s_true)
    raise ParameterError(f"unknown strategy {name!r}")


def build_options(cfg: RunConfig, inst: problems.ProblemInstance) -> hybrid.SolverOptions:
    mask = inst.meta.get("mask")
    if mask is not None:
        mask = np.tile(mask, inst.n_t)  # spatial mask, same at every time
    return hybrid.SolverOptions(error_mask=mask,
                                **cfg.kwargs("solver", "max_iter", "reorth"))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(cfg: RunConfig, outdir: str) -> None:
    inst = generate_problem(cfg)
    problems.save_instance(inst, outdir)
    print(f"wrote instance ({inst.kind}, n={inst.n_s * inst.n_t}, m={inst.d.size}) "
          f"to {outdir}")


def _write_summary(outdir, values):
    out = configparser.ConfigParser()
    out["summary"] = {k: str(v) for k, v in values.items() if v is not None}
    with open(os.path.join(outdir, "summary.ini"), "w") as fh:
        out.write(fh)


def cmd_solve(cfg: RunConfig, outdir: str) -> None:
    inst = load_problem(cfg)
    prior = build_prior(cfg, inst)
    strategy = build_strategy(cfg, inst)
    options = build_options(cfg, inst)
    method = cfg.get("solver", "method")
    var_lam = cfg.get("uq", "lambda")
    if var_lam is not None and not options.reorthogonalize:
        raise ParameterError("[uq] lambda requires [solver] reorth = true: without "
                             "reorthogonalization the variance's Ritz pairs degrade")
    os.makedirs(outdir, exist_ok=True)

    t0 = time.perf_counter()
    if method == "simultaneous":
        res = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d, strategy,
                                   options, s_true=inst.s_true)
        s = res.s
        lam = res.lam
        iters = res.iterations
        stop = res.stop_reason
        stops = {stop}
        res.write_convergence_csv(os.path.join(outdir, "convergence.csv"))

        def variance(lam):
            approx = uq.build_posterior_approx(res.factorization, prior.Q, lam)
            field = uq.variance_diag(approx)
            return field.reshape(inst.n_s, inst.n_t, order="F"), approx.rank
    elif method == "decoupled":
        dres = decoupled.decoupled_solve(
            *decoupled.kronecker_factors(inst, prior), inst.d, strategy, options,
            mu=prior.mean, **cfg.kwargs("solver", "per_time_lambda"))
        s = dres.s
        # one lambda only where the subproblems shared it: a per-time solve
        # has none that a simultaneous posterior could use
        lam = None if cfg.get("solver", "per_time_lambda") else strategy.lam
        iters = sum(dres.per_time_iters)
        stop = "decoupled"
        stops = {r.stop_reason for r in dres.sub_results if r is not None}
        _write_decoupled_logs(outdir, dres)
        facts = {i: r.factorization for i, r in enumerate(dres.sub_results)
                 if r is not None}

        def variance(lam):
            rank = sum(uq.build_posterior_approx(f, dres.plan.Q_s, lam).rank
                       for f in facts.values())
            return uq.decoupled_variance_diag(dres.plan, facts, lam), rank
    else:
        raise ParameterError(f"unknown solver method {method!r}")
    wall = time.perf_counter() - t0

    dio.write_vector_bin(os.path.join(outdir, "reconstruction.bin"), s)
    summary = {"lambda": lam, "iterations": iters, "wall_time_s": wall,
               "stop_reason": stop, "method": method}
    if inst.s_true is not None:
        summary["rel_error"] = hybrid.relative_error(s, inst.s_true,
                                                     options.error_mask)
    # gen-GK does not depend on lambda: the solve's factorization gives the
    # variance at [uq] lambda as well as at its own
    var_lam = lam if var_lam is None else var_lam
    skipped = None
    if not options.reorthogonalize:
        skipped = "the solve is not reorthogonalized ([solver] reorth = false)"
    elif var_lam is None:
        skipped = "a per-time-lambda solve has no one lambda; set [uq] lambda"
    elif var_lam <= 0:
        skipped = f"the variance needs lambda > 0, not {var_lam:.6g}"
    if skipped is None:
        summary.update(_write_variance(outdir, inst, prior, var_lam,
                                       *variance(var_lam)))
    else:  # a field of an earlier run would not match this solve
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, "variance.bin"))
    _write_summary(outdir, summary)
    print(f"solve done: lambda={'per-time' if lam is None else f'{lam:.6g}'} "
          f"iters={iters} stop={stop} "
          f"wall={wall:.2f}s" + (f" rel_error={summary['rel_error']:.4g}"
                                 if "rel_error" in summary else ""))
    print(f"no variance field: {skipped}" if skipped else
          f"variance field written (lambda={var_lam:.6g}, "
          f"rank={summary['variance_rank']})" +
          ("; warning: a gcv-flat stop truncated its basis, so the field is not "
           "converged" if "gcv-flat" in stops else ""))


def _write_variance(outdir, inst, prior, lam, field, rank) -> dict:
    """Write the n_s x n_t variance field at ``lam`` from a downdate of
    ``rank``; return its summary entries, with the largest deviation from the
    dense posterior when that is feasible."""
    dio.write_matrix_bin(os.path.join(outdir, "variance.bin"), field)
    entries = {"variance_lambda": lam, "variance_rank": rank}
    if inst.n_s * inst.n_t <= 512 and inst.d.size <= 512:
        p = oracle.DenseProblem(inst.A, inst.R, prior.Q, inst.d, prior.mean, lam)
        dev = np.abs(field.ravel(order="F") - np.diag(oracle.dense_posterior(p)))
        entries["oracle_max_dev"] = float(dev.max())
    return entries


def _write_decoupled_logs(outdir, dres):
    with open(os.path.join(outdir, "convergence.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_index"] + hybrid.CONVERGENCE_COLUMNS)
        for i, res in enumerate(dres.sub_results):
            if res is None:
                continue
            writer.writerows([i] + row for row in res.convergence_rows())


def cmd_oracle(cfg: RunConfig, outdir: str) -> None:
    inst = load_problem(cfg)
    prior = build_prior(cfg, inst)
    p = oracle.DenseProblem(inst.A, inst.R, prior.Q, inst.d, prior.mean,
                            **cfg.kwargs("solver", "lambda"))
    s1 = oracle.map_normal_equations(p)
    s2 = oracle.map_general_tikhonov(p)
    s3 = oracle.map_sherman_morrison(p)
    os.makedirs(outdir, exist_ok=True)
    dio.write_vector_bin(os.path.join(outdir, "oracle_map.bin"), s1)
    dev12 = np.linalg.norm(s1 - s2) / np.linalg.norm(s1)
    dev13 = np.linalg.norm(s1 - s3) / np.linalg.norm(s1)
    _write_summary(outdir, {"lambda": p.lam, "dev_tikhonov": dev12,
                            "dev_sherman_morrison": dev13, "command": "oracle"})
    print(f"oracle MAP written; formulation deviations {dev12:.3e}, {dev13:.3e}")


def cmd_kernel_eval(args) -> None:
    rs = np.array([float(r) for r in args.r])
    cls = KERNELS[args.family]
    vals = cls(*(getattr(args, f.name) for f in dataclasses.fields(cls)))(rs)
    for r, v in zip(np.atleast_1d(rs), np.atleast_1d(vals)):
        print(f"{float(r)!r},{float(v)!r}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

COMMANDS = {"generate": cmd_generate, "solve": cmd_solve, "oracle": cmd_oracle}


def _build_parser():
    parser = argparse.ArgumentParser(prog="dyninv",
                                     description="dynamic inverse-problem driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=False, default=None,
                        help="INI config file; keys overridable as --section.key=value")
    ke = sub.add_parser("kernel-eval")
    ke.add_argument("--family", default=DEFAULT_KERNEL, choices=KERNELS)
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
    except SystemExit as exc:  # argparse has printed why; 2 for a usage error
        return exc.code
    try:
        if args.command == "kernel-eval":
            cmd_kernel_eval(args)
        else:
            cfg = RunConfig(args.config, overrides)
            outdir = os.path.join(os.environ.get("DYNINV_OUTPUT_ROOT", ""),
                                  cfg.get("output", "dir"))
            COMMANDS[args.command](cfg, outdir)
            cfg.write_manifest(outdir, args.command)
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
