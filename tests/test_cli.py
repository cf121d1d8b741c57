import configparser
import dataclasses
import hashlib
import os

import numpy as np
import numpy.testing as npt
import pytest

from dyninv import cli, decoupled, hybrid, io as dio, oracle, uq
from dyninv.linop import DenseOperator


def write_config(path, sections):
    cfg = configparser.ConfigParser()
    cfg.read_dict(sections)
    with open(path, "w") as fh:
        cfg.write(fh)
    return str(path)


@pytest.fixture
def deblur_config(tmp_path):
    return write_config(tmp_path / "cfg.ini", {
        "problem": {"generator": "deblur", "nx": "6", "ny": "6", "n_t": "3",
                    "seed": "7", "noise_level": "0.02"},
        "prior": {"spatial": "matern", "nu": "1.5", "ell": "0.2",
                  "temporal": "minij"},
        "solver": {"strategy": "fixed", "lambda": "1.0", "max_iter": "40"},
        "output": {"dir": str(tmp_path / "out")},
    })


def dir_checksum(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name == "manifest.ini":
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_generate_and_determinism(tmp_path, deblur_config):
    assert cli.main(["generate", "--config", deblur_config]) == 0
    out1 = tmp_path / "out"
    assert (out1 / "d.bin").exists()
    assert (out1 / "manifest.ini").exists()
    # repeated seed gives identical artifacts
    assert cli.main(["generate", "--config", deblur_config,
                     f"--output.dir={tmp_path / 'out2'}"]) == 0
    assert dir_checksum(out1) == dir_checksum(tmp_path / "out2")


def test_missing_required_field(tmp_path):
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "deblur", "nx": "6", "ny": "6"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["generate", "--config", cfg]) == 2


def test_solve_writes_artifacts(tmp_path, deblur_config):
    assert cli.main(["generate", "--config", deblur_config]) == 0
    solve_out = tmp_path / "solved"
    assert cli.main(["solve", "--config", deblur_config,
                     f"--problem.path={tmp_path / 'out'}",
                     f"--output.dir={solve_out}"]) == 0
    assert (solve_out / "reconstruction.bin").exists()
    assert (solve_out / "convergence.csv").exists()
    summary = configparser.ConfigParser()
    summary.read(solve_out / "summary.ini")
    assert summary.getfloat("summary", "lambda") == 1.0
    assert summary.has_option("summary", "rel_error")
    assert summary.get("summary", "stop_reason") in (
        "max-iter", "gcv-flat", "breakdown")


def test_singular_prior_exits_3(tmp_path, capsys):
    # a nonseparable prior with no decay and no nugget is singular
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "deblur", "nx": "4", "ny": "4", "n_t": "3"},
        "prior": {"structure": "nonseparable", "c1": "0", "c2": "0", "nugget": "0"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["solve", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solve_identity_toy(tmp_path):
    # identity forward model: reconstruction with lam=1 equals d/2
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "deblur", "nx": "6", "ny": "6", "n_t": "2",
                    "seed": "0", "noise_level": "0.0",
                    "spatial_sigma": "1e-9", "spatial_bandwidth": "1",
                    "temporal_sigma": "1e-9", "temporal_bandwidth": "1"},
        "prior": {"spatial": "identity", "temporal": "identity"},
        "solver": {"strategy": "fixed", "lambda": "1.0", "max_iter": "80"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    s = dio.read_vector_bin(tmp_path / "o" / "reconstruction.bin")
    # regenerate the same instance for comparison
    from dyninv import problems
    inst = problems.gen_dynamic_deblur(6, 6, 2, spatial_sigma=1e-9,
                                       spatial_bandwidth=1, temporal_sigma=1e-9,
                                       temporal_bandwidth=1, noise_level=0.0,
                                       seed=0)
    npt.assert_allclose(s, inst.d / 2.0, rtol=1e-10)


def test_decoupled_requires_kronecker(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "tomography", "nx": "8", "ny": "8",
                    "n_t": "2", "rays_per_time": "20", "seed": "1"},
        "prior": {"spatial": "identity", "temporal": "identity"},
        "solver": {"strategy": "fixed", "lambda": "1.0",
                   "method": "decoupled"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "Kronecker forward operator" in capsys.readouterr().err


def test_decoupled_requires_kronecker_prior(tmp_path, deblur_config, capsys):
    assert cli.main(["solve", "--config", deblur_config,
                     "--solver.method=decoupled", "--prior.structure=nonseparable",
                     f"--output.dir={tmp_path / 'dec'}"]) == 2
    assert "Kronecker prior covariance" in capsys.readouterr().err


def test_decoupled_requires_scaled_identity_noise(tmp_path, deblur_config, capsys,
                                                  monkeypatch):
    # no generator makes any other R, so hand the solve a dense copy of it
    load = cli.load_problem

    def dense_noise(cfg):
        inst = load(cfg)
        return dataclasses.replace(inst, R=DenseOperator(inst.R.to_dense()))

    monkeypatch.setattr(cli, "load_problem", dense_noise)
    assert cli.main(["solve", "--config", deblur_config,
                     "--solver.method=decoupled",
                     f"--output.dir={tmp_path / 'dec'}"]) == 2
    assert "scaled-identity noise" in capsys.readouterr().err


def test_solve_from_saved_tomography_matches_generator(tmp_path):
    # generate -> solve from [problem] path must reproduce a solve straight
    # from the generator recipe, byte for byte
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "tomography", "nx": "8", "ny": "8",
                    "n_t": "3", "rays_per_time": "20", "seed": "4"},
        "prior": {"spatial": "matern", "nu": "1.5", "ell": "0.2",
                  "temporal": "minij"},
        "solver": {"strategy": "fixed", "lambda": "1.0", "max_iter": "15"},
        "output": {"dir": str(tmp_path / "direct")},
    })
    saved = tmp_path / "saved"
    assert cli.main(["generate", "--config", cfg, f"--output.dir={saved}"]) == 0
    assert (saved / "A.npz").exists()
    assert cli.main(["solve", "--config", cfg]) == 0
    assert cli.main(["solve", "--config", cfg, f"--problem.path={saved}",
                     f"--output.dir={tmp_path / 'loaded'}"]) == 0
    direct = (tmp_path / "direct" / "reconstruction.bin").read_bytes()
    assert (tmp_path / "loaded" / "reconstruction.bin").read_bytes() == direct


def test_convergence_log_error_is_masked_like_the_summary(tmp_path):
    # the last row and the summary report the same iterate, so both must
    # measure its error on the tomography mask
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "tomography", "nx": "16", "ny": "16",
                    "n_t": "3", "rays_per_time": "6", "seed": "3"},
        "solver": {"strategy": "wgcv", "max_iter": "10"},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "out" / "summary.ini")
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[5] == "rel_error"
    assert float(lines[-1].split(",")[5]) == summary.getfloat("summary", "rel_error")


def test_decoupled_solve_runs(tmp_path, deblur_config):
    out = tmp_path / "dec"
    assert cli.main(["solve", "--config", deblur_config,
                     "--solver.method=decoupled",
                     f"--output.dir={out}"]) == 0
    assert (out / "reconstruction.bin").exists()
    assert (out / "convergence.csv").exists()


def test_decoupled_convergence_log_has_a_row_per_iteration(tmp_path, deblur_config):
    out = tmp_path / "dec"
    assert cli.main(["solve", "--config", deblur_config,
                     "--solver.method=decoupled", "--solver.strategy=wgcv",
                     "--solver.per_time_lambda=true",
                     f"--output.dir={out}"]) == 0
    summary = configparser.ConfigParser()
    summary.read(out / "summary.ini")
    iterations = summary.getint("summary", "iterations")  # sum(per_time_iters)
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["time_index", "iter", "lambda",
                                   "data_misfit", "solution_Qnorm", "gcv_value",
                                   "rel_error", "wall_time_s", "op_time_s"]
    assert iterations > 0 and len(lines) == iterations + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9 and fields[6] == ""  # no truth per subproblem
        assert all(np.isfinite(float(fields[j])) for j in (2, 3, 4, 5))


def test_decoupled_optimal_strategy_is_a_validation_error(tmp_path, deblur_config,
                                                          capsys):
    assert cli.main(["solve", "--config", deblur_config,
                     "--solver.method=decoupled", "--solver.strategy=optimal",
                     "--solver.per_time_lambda=true",
                     f"--output.dir={tmp_path / 'dec'}"]) == 2
    err = capsys.readouterr().err
    assert "optimal strategy" in err and "no truth" in err


def _decoupled_variance(config, lam, *overrides):
    """The benchmark's variance for the decoupled solve that ``dyninv solve``
    runs on ``config``: the downdate of its sub-factorizations in a plan
    built afresh."""
    cfg = cli.RunConfig(config, ["--solver.method=decoupled", *overrides])
    inst = cli.load_problem(cfg)
    prior = cli.build_prior(cfg, inst)
    pieces = decoupled.kronecker_factors(inst, prior)
    dres = decoupled.decoupled_solve(
        *pieces, inst.d, cli.build_strategy(cfg, inst), cli.build_options(cfg, inst),
        mu=prior.mean, **cfg.kwargs("solver", "per_time_lambda"))
    plan = decoupled.build_plan(*pieces, inst.d, prior.mean)
    facts = {i: r.factorization for i, r in enumerate(dres.sub_results)
             if r is not None}
    return uq.decoupled_variance_diag(plan, facts, lam)


def test_per_time_solve_leaves_variance_no_lambda(tmp_path, deblur_config, capsys):
    # each subproblem chose its own lambda: no one value is the solve's, so
    # the variance field needs [uq] lambda
    per_time = ["--solver.method=decoupled", "--solver.strategy=wgcv",
                "--solver.per_time_lambda=true", "--solver.reorth=true"]
    assert cli.main(["solve", "--config", deblur_config, *per_time,
                     "--uq.lambda=1.0"]) == 0
    V = dio.read_matrix_bin(tmp_path / "out" / "variance.bin")
    npt.assert_array_equal(V, _decoupled_variance(deblur_config, 1.0, *per_time[1:]))
    capsys.readouterr()
    # without it the solve succeeds, says why, and leaves no field behind
    assert cli.main(["solve", "--config", deblur_config, *per_time]) == 0
    assert "no variance field: a per-time-lambda solve" in capsys.readouterr().out
    assert not (tmp_path / "out" / "variance.bin").exists()
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "out" / "summary.ini")
    assert not summary.has_option("summary", "lambda")
    assert not summary.has_option("summary", "variance_lambda")


def test_a_variance_after_a_gcv_flat_stop_warns(tmp_path, deblur_config, capsys):
    # the per-time WGCV subproblems stop on a flat GCV curve well before they
    # exhaust their 36 unknowns: the field is far from the posterior, and the
    # variance line says so
    assert cli.main(["solve", "--config", deblur_config, "--solver.method=decoupled",
                     "--solver.strategy=wgcv", "--solver.per_time_lambda=true",
                     "--solver.reorth=true", "--uq.lambda=1.0"]) == 0
    out = capsys.readouterr().out
    assert "variance field written" in out
    assert "warning: a gcv-flat stop truncated its basis" in out
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "out" / "summary.ini")
    assert summary.getint("summary", "variance_rank") < 108
    assert summary.getfloat("summary", "oracle_max_dev") > 1.0


def test_a_variance_after_a_max_iter_stop_does_not_warn(tmp_path, deblur_config, capsys):
    assert cli.main(["solve", "--config", deblur_config, "--solver.reorth=true"]) == 0
    out = capsys.readouterr().out
    assert "stop=max-iter" in out and "variance field written" in out
    assert "warning" not in out


def test_shared_lambda_decoupled_solve_writes_its_lambda(tmp_path, deblur_config):
    assert cli.main(["solve", "--config", deblur_config, "--solver.reorth=true",
                     "--solver.method=decoupled", "--solver.lambda=2.5"]) == 0
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "out" / "summary.ini")
    assert summary.getfloat("summary", "lambda") == 2.5
    assert summary.getfloat("summary", "variance_lambda") == 2.5
    V = dio.read_matrix_bin(tmp_path / "out" / "variance.bin")
    npt.assert_array_equal(V, _decoupled_variance(deblur_config, 2.5,
                                                  "--solver.lambda=2.5",
                                                  "--solver.reorth=true"))
    # 40 steps reach the 36 unknowns of each subproblem: the field is exact
    assert summary.getfloat("summary", "oracle_max_dev") <= 1e-10


def test_negative_space_time_weight_exits_2(tmp_path, deblur_config, capsys):
    assert cli.main(["solve", "--config", deblur_config,
                     "--prior.structure=nonseparable", "--prior.c2=-0.5"]) == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_variance_identity_field(tmp_path):
    # identity forward operator, prior and noise weight: gen-GK breaks down
    # after one step, so the field is the exact posterior variance
    # 1/(1 + lam^2) along the data direction and the prior 1/lam^2 off it
    lam = 1.0
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "deblur", "nx": "4", "ny": "4", "n_t": "2",
                    "seed": "0", "noise_level": "0.0",
                    "spatial_sigma": "1e-9", "spatial_bandwidth": "1",
                    "temporal_sigma": "1e-9", "temporal_bandwidth": "1"},
        "prior": {"spatial": "identity", "temporal": "identity"},
        "solver": {"strategy": "fixed", "lambda": str(lam), "reorth": "true"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["solve", "--config", cfg]) == 0
    V = dio.read_matrix_bin(tmp_path / "o" / "variance.bin")
    d = cli.load_problem(cli.RunConfig(cfg)).d
    along = (d / np.linalg.norm(d)) ** 2
    expected = (1 - along) / lam ** 2 + along / (1 + lam ** 2)
    npt.assert_allclose(V, expected.reshape(16, 2, order="F"), rtol=1e-10)
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "o" / "summary.ini")
    assert summary.get("summary", "stop_reason") == "breakdown"
    assert summary.getint("summary", "variance_rank") == 1


def test_variance_matches_the_dense_posterior_at_full_rank(tmp_path, deblur_config):
    # 108 steps exhaust the 108 unknowns; the field is the benchmark's
    # downdate of the solve's factorization, bit for bit
    full = ["--solver.reorth=true", "--solver.max_iter=108"]
    assert cli.main(["solve", "--config", deblur_config, *full]) == 0
    V = dio.read_matrix_bin(tmp_path / "out" / "variance.bin").ravel(order="F")
    cfg = cli.RunConfig(deblur_config, full)
    inst = cli.load_problem(cfg)
    prior = cli.build_prior(cfg, inst)
    res = hybrid.genhybr_solve(inst.A, inst.R, prior, inst.d,
                               cli.build_strategy(cfg, inst),
                               cli.build_options(cfg, inst), s_true=inst.s_true)
    npt.assert_array_equal(V, uq.variance_diag(
        uq.build_posterior_approx(res.factorization, prior.Q, res.lam)))
    exact = np.diag(oracle.dense_posterior(oracle.DenseProblem(
        inst.A.to_dense(), inst.R.to_dense(), prior.Q.to_dense(), inst.d,
        prior.mean, res.lam)))
    npt.assert_allclose(V, exact, rtol=1e-10)
    summary = configparser.ConfigParser()
    summary.read(tmp_path / "out" / "summary.ini")
    assert summary.getint("summary", "variance_rank") == 108
    assert summary.getfloat("summary", "oracle_max_dev") == np.max(np.abs(V - exact))


def test_variance_requires_lambda(tmp_path, deblur_config, capsys):
    # Fixed lambda = 0 has no posterior: the solve succeeds without a field
    assert cli.main(["solve", "--config", deblur_config, "--solver.reorth=true",
                     "--solver.lambda=0"]) == 0
    assert "no variance field: the variance needs lambda > 0" in capsys.readouterr().out
    assert not (tmp_path / "out" / "variance.bin").exists()


def test_uq_lambda_without_reorth_exits_2(tmp_path, deblur_config, capsys):
    # without reorthogonalization the Ritz pairs degrade, and so would the field
    assert cli.main(["solve", "--config", deblur_config, "--uq.lambda=1.0"]) == 2
    assert "requires [solver] reorth = true" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reconstruction.bin").exists()


def test_a_solve_without_reorth_writes_no_variance(tmp_path, deblur_config, capsys):
    assert cli.main(["solve", "--config", deblur_config]) == 0
    assert "no variance field: the solve is not reorthogonalized" in capsys.readouterr().out
    assert not (tmp_path / "out" / "variance.bin").exists()


def test_variance_is_an_unknown_command(deblur_config, capsys):
    assert cli.main(["variance", "--config", deblur_config]) == 2
    assert "invalid choice: 'variance'" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path, deblur_config):
    out = tmp_path / "orc"
    assert cli.main(["oracle", "--config", deblur_config,
                     f"--output.dir={out}"]) == 0
    summary = configparser.ConfigParser()
    summary.read(out / "summary.ini")
    assert summary.getfloat("summary", "dev_tikhonov") < 1e-8
    assert summary.getfloat("summary", "dev_sherman_morrison") < 1e-8


def test_kernel_eval(capsys):
    assert cli.main(["kernel-eval", "--family=matern", "--nu=0.5", "--ell=1.0",
                     "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    r, v = out.split(",")
    assert float(r) == 1.0
    assert float(v) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_unknown_generator_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": "mystery", "nx": "4", "ny": "4", "n_t": "1"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["generate", "--config", cfg]) == 2


def test_manifest_records_overrides(tmp_path, deblur_config):
    assert cli.main(["generate", "--config", deblur_config,
                     "--problem.seed=99",
                     f"--output.dir={tmp_path / 'ov'}"]) == 0
    m = configparser.ConfigParser()
    m.read(tmp_path / "ov" / "manifest.ini")
    assert m.get("problem", "seed") == "99"
    assert m.get("instance", "kind") == "deblur"


@pytest.mark.parametrize("generator, d_sha", [
    ("deblur", "67fa8376d2b0f84e3723dcffd7f150ceb82c5b687b973763f797f4d41b8819a8"),
    ("tomography", "de750c90c2daf3293bd3018d74b8096cad1cbf7963451be91031aeb8d3cc26d1"),
    ("rotating", "761c7271688e34d957b0691c0dfce4106e89bca373c792a8e451074d519b7e3d"),
])
def test_generate_with_defaults_only_is_pinned(tmp_path, generator, d_sha):
    # the generator defaults live only in the library signatures; these
    # digests were taken while cli.py still passed every default itself
    cfg = write_config(tmp_path / "c.ini", {
        "problem": {"generator": generator, "nx": "6", "ny": "6", "n_t": "3"},
        "output": {"dir": str(tmp_path / "o")},
    })
    assert cli.main(["generate", "--config", cfg]) == 0
    assert hashlib.sha256((tmp_path / "o" / "d.bin").read_bytes()).hexdigest() == d_sha


@pytest.mark.parametrize("command, typo, message", [
    ("generate", "--problem.noise_levl=0.5", "unknown config key [problem] noise_levl"),
    ("solve", "--solver.stratgy=fixed", "unknown config key [solver] stratgy"),
    ("solve", "--prior.nuu=2.5", "unknown config key [prior] nuu"),
    ("solve", "--uq.rnak=3", "unknown config key [uq] rnak"),
    ("oracle", "--output.dri=elsewhere", "unknown config key [output] dri"),
    ("solve", "--solvr.strategy=fixed", "unknown config key [solvr] strategy"),
    ("solve", "--solver.reorth=ture", "Not a boolean: ture"),
], ids=["problem", "solver", "prior", "uq", "output", "section", "bool"])
def test_unknown_key_is_a_validation_error(tmp_path, deblur_config, capsys,
                                           command, typo, message):
    # a misspelt key or boolean is an error, not a setting that is ignored
    # while the manifest records it
    out = tmp_path / "typo"
    assert cli.main([command, "--config", deblur_config, "--uq.lambda=1.0",
                     typo, f"--output.dir={out}"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.ini").exists()


def test_temporal_prior_variants(tmp_path, deblur_config, capsys):
    # each [prior] temporal variant builds the Q_t of its library builder,
    # on the time points linspace(0, 1, n_t)
    e = np.exp(-1.0)
    for n_t, keys, Qt in [
            (4, ["--prior.temporal=identity"], np.eye(4)),
            (3, ["--prior.temporal=minij"], [[1, 1, 1], [1, 2, 2], [1, 2, 3]]),
            (2, ["--prior.temporal=fd", "--prior.fd_gamma=1.0"],
             np.array([[2, 1], [1, 2]]) / 3.0),
            (2, ["--prior.temporal=kernel", "--prior.temporal_nu=0.5",
                 "--prior.temporal_ell=1.0", "--prior.nugget=0.0"],
             [[1, e], [e, 1]])]:
        cfg = cli.RunConfig(None, ["--problem.generator=deblur", "--problem.nx=4",
                                   "--problem.ny=4", f"--problem.n_t={n_t}",
                                   "--prior.spatial=identity", *keys])
        prior = cli.build_prior(cfg, cli.load_problem(cfg))
        npt.assert_allclose(prior.Q.left.to_dense(), Qt, rtol=1e-14)
    assert cli.main(["solve", "--config", deblur_config, "--prior.temporal=nope",
                     f"--output.dir={tmp_path / 'nope'}"]) == 2
    assert "unknown temporal prior variant 'nope'" in capsys.readouterr().err
