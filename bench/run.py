"""dyninv benchmark: one workload, one seed, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Runs repetitions of the workload (generate, save/load, solve, variance; see
``workloads.py``) for about ``--seconds`` seconds (the last one may overrun
by half a repetition) after a reduced-size warm-up, checks every
repetition's outputs, and prints the metrics, then the provenance, then as
its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``END_TO_END``); with ``--trace 1`` the
repetitions alternate untraced and traced and the metrics are the per-layer
ones (``PER_LAYER``).  An attempted operation is one repetition; it failed if
it raised or any of its output checks failed; if every repetition (or every
traced one) raised, the result line has no metrics and the exit code is 1.
``--out`` also writes the full
record, with per-repetition sample counts and medians and the metric
descriptions, to ``DIR/BENCH_<workload>[.trace].json``.

The benchmark imports ``dyninv`` from the ``src/`` directory next to it and
fails without it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread unless the caller chose otherwise: on a small shared
    # machine a second BLAS thread per solver thread oversubscribes the cores
    # and makes the timings erratic.  Must be set before numpy loads OpenBLAS.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dyninv  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, description); each stage time is the median of the stage's
# samples over the run's untraced repetitions (a stage shorter than
# workloads.MIN_STAGE_S is sampled several times per repetition).  convergence.csv's op_time_s is not used: it times all of
# gengk_step, so it includes reorthogonalization.
END_TO_END = {
    "setup_s": ("s", "generator call plus prior construction (kernel matrices, "
                     "Kronecker operators), up to where the solver can start"),
    "io_s": ("s", "problems.save_instance followed by problems.load_instance: "
                  "the 'dyninv generate' -> 'dyninv solve' hand-off"),
    "solve_s": ("s", "wall time of hybrid.genhybr_solve (s_true passed, so the "
                     "per-iteration error history is included) or "
                     "decoupled.decoupled_solve"),
    "variance_s": ("s", "posterior variance field: uq.build_posterior_approx + "
                        "uq.variance_diag, or decoupled.build_plan + "
                        "uq.decoupled_variance_diag"),
    "total_s": ("s", "setup_s + io_s + solve_s + variance_s: time to a "
                     "reconstruction with uncertainty"),
    "peak_rss_mb": ("MB", "peak resident set size of the process up to the end "
                          "of the first repetition's variance stage, before "
                          "its output checks"),
    "iterations": ("count", "gen-GK iterations, summed over subproblems for the "
                            "decoupled workload; repeats exactly for a seed"),
    "rel_error": ("ratio", "||s - s_true|| / ||s_true||, masked to observed "
                           "pixels for tomography; repeats exactly for a seed"),
}

# Spans are wall time.  On the decoupled workload they run on several
# threads at once, so a span's time includes waiting for the interpreter lock.
PER_LAYER = {
    "linop.A.apply.calls": ("count", "forward applications of A (a multi-column "
                                     "apply_mat counts as one)"),
    "linop.A.apply.s": ("s", "time in forward applications of A"),
    "linop.A.adjoint.calls": ("count", "adjoint applications of A"),
    "linop.A.adjoint.s": ("s", "time in adjoint applications of A"),
    "linop.Q.apply.calls": ("count", "applications of the prior covariance Q"),
    "linop.Q.apply.s": ("s", "time in applications of Q"),
    "linop.R.solve.calls": ("count", "solves with the noise covariance R"),
    "linop.R.solve.s": ("s", "time in solves with R"),
    "gengk.steps": ("count", "gengk_step calls"),
    "gengk.step.s": ("s", "time in gengk_step, operators included; this is "
                          "what convergence.csv's op_time_s sums, so op_time_s "
                          "includes reorthogonalization and is not used here"),
    "gengk.step.self_s": ("s", "gengk_step time minus its operator spans: "
                               "reorthogonalization plus the vector updates "
                               "and norms, not reorthogonalization alone"),
    "gengk.basis_matrix.calls": ("count", "U_matrix/V_matrix/QV_matrix calls"),
    "gengk.basis_matrix.s": ("s", "time in U_matrix/V_matrix/QV_matrix"),
    "gengk.orth_U": ("ratio", "max |U' R^-1 U - I| of the final factorization(s), "
                              "from krylov_basis_span_check"),
    "gengk.orth_V": ("ratio", "max |V' Q V - I| of the final factorization(s)"),
    "gengk.basis_bytes_computed": ("B", "bytes of the basis matrices returned by "
                                        "U_/V_/QV_matrix, computed from their "
                                        "shapes, not measured traffic"),
    "hybrid.select_lambda.calls": ("count", "select_lambda calls"),
    "hybrid.select_lambda.s": ("s", "time in select_lambda"),
    "hybrid.lambda_evals": ("count", "calls of the objective passed to "
                                     "minimize_over_lambda"),
    "hybrid.projected_svd.count": ("count", "ProjectedProblem constructions "
                                            "(one SVD of B_k each)"),
    "hybrid.projected_svd.s": ("s", "time in ProjectedProblem SVDs"),
    "hybrid.solve.self_s": ("s", "genhybr_solve time minus its traced children "
                                 "(gen-GK, selection, SVDs, basis matrices, "
                                 "operators): recovery s = mu + QV z and the "
                                 "error history"),
    "decoupled.build_plan.s": ("s", "time in build_plan, in the solve and in "
                                    "the variance stage"),
    "decoupled.subproblems": ("count", "solve_subproblem calls"),
    "decoupled.solve_subproblem.s": ("s", "summed solve_subproblem time over "
                                          "all threads"),
    "decoupled.solve_subproblem.max_s": ("s", "slowest single subproblem"),
    "decoupled.recombine.s": ("s", "time in recombine"),
    "decoupled.overlap": ("ratio", "summed subproblem time over decoupled_solve "
                                   "wall time; above 1 means subproblems were "
                                   "in flight at once, not that they ran in "
                                   "parallel"),
    "uq.build_posterior_approx.s": ("s", "time in build_posterior_approx"),
    "uq.variance_diag.s": ("s", "self time of variance_diag or "
                                "decoupled_variance_diag"),
    "uq.rank": ("count", "rank of the low-rank downdate(s), summed over "
                         "subproblems"),
    "problems.generate.s": ("s", "time in the problems.gen_* generator"),
    "priorcov.build.s": ("s", "time in priorcov calls made by the set-up"),
    "problems.save_instance.s": ("s", "time in save_instance"),
    "problems.load_instance.s": ("s", "time in load_instance"),
    "io.bytes_written": ("B", "size of the files save_instance wrote"),
    "trace.overhead": ("ratio", "total_s of the run's traced repetitions over "
                                "total_s of its untraced ones"),
}


# per-layer metrics that must repeat exactly across traced repetitions; the
# run reports the first repetition's value and fails a repetition that differs
EXACT = {k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B")}

# reduced-size repetitions before measuring: a fresh process runs its first
# second or so measurably slower
WARMUP_S = 2.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dyninv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(w, seed: int, sizes: dict, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = _blas_threads()
    nproc = os.cpu_count() or 1
    return {
        "workload": w.name, "seed": seed, **sizes,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
        "nproc": nproc, "blas_threads": blas_threads, "solver_threads": threads,
        "oversubscribed": (blas_threads is not None
                           and blas_threads * threads > nproc),
        "machine": f"{platform.machine()} {platform.platform()}",
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _stage_times(reps) -> dict:
    """Median of each stage's samples pooled over ``reps``, and their sum."""
    times = {f"{s}_s": _median([t for r in reps for t in r.samples[s]])
             for s in workloads.STAGES}
    times["total_s"] = sum(times.values())
    return times


def measure(w, seed: int, seconds: float, trace: bool, workdir) -> dict:
    """Repetitions for about ``seconds``; returns the run's record."""
    threads = (os.cpu_count() or 1) if w.method == "decoupled" else 1
    warm = time.perf_counter()
    while True:  # imports, caches, clock ramp-up
        try:
            workloads.run_rep(w.reduced(), seed, workdir, threads, 0.0)
        except Exception:
            break  # the measured repetitions count and report the failure
        if time.perf_counter() - warm >= WARMUP_S:
            break

    plain, traced, layers, failures, durations = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(plain)
        attempted += 1
        t0 = time.perf_counter()
        try:
            if with_trace:
                tracer = tracing.Tracer()
                with tracing.instrument(tracer):
                    rep = workloads.run_rep(w, seed, workdir, threads, 0.0, tracer)
                layer = dict(tracing.layer_metrics(tracer),
                             **{"gengk.orth_U": rep.orth[0],
                                "gengk.orth_V": rep.orth[1],
                                "io.bytes_written": rep.bytes_written})
            else:
                rep = workloads.run_rep(w, seed, workdir, threads,
                                        workloads.MIN_STAGE_S, None,
                                        None if plain else _peak_rss_mb)
        except Exception:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            rep = None
            failures.append(f"repetition {attempted} raised")
        durations.append(time.perf_counter() - t0)
        if rep is not None:
            first = (plain or traced or [rep])[0]
            rep.check((rep.iterations, rep.rel_error)
                      == (first.iterations, first.rel_error),
                      "iterations or rel_error differ between repetitions")
            if with_trace:
                rep.check(not layers or all(layer[k] == layers[0][k] for k in EXACT),
                          "per-layer counts differ between traced repetitions")
                layers.append(layer)
            failures.extend(f"repetition {attempted}: {f}" for f in rep.failures)
            (traced if with_trace else plain).append(rep)
        failed += rep is None or bool(rep.failures)

        elapsed = time.perf_counter() - start
        if plain and (traced or not trace):
            # start another repetition only if half of it fits in the budget
            if elapsed + _median(durations) / 2 > seconds:
                break
        elif failed and elapsed > seconds:
            break  # every repetition of a kind raised: nothing to measure

    record = {"attempted": attempted, "failed": failed, "failures": failures,
              "metrics": {}}
    if not plain or (trace and not traced):
        return dict(record, samples={"untraced": [], "traced": []}, provenance=None)
    times = _stage_times(plain)
    if trace:
        per = {k: (layers[0][k] if k in EXACT else _median([m[k] for m in layers]))
               for k in layers[0]}
        per["trace.overhead"] = _stage_times(traced)["total_s"] / times["total_s"]
        metrics = {k: (per[k], PER_LAYER[k][0]) for k in PER_LAYER}
    else:
        metrics = {k: (v, "s") for k, v in times.items()}
        metrics.update({"peak_rss_mb": (plain[0].rss_mb, "MB"),
                        "iterations": (plain[0].iterations, "count"),
                        "rel_error": (plain[0].rel_error, "ratio")})
        metrics = {k: metrics[k] for k in END_TO_END}
    # per repetition and stage: number of samples and their median (s)
    samples = {kind: [{k: [len(v), _median(v)] for k, v in r.samples.items()}
                      for r in reps]
               for kind, reps in (("untraced", plain), ("traced", traced))}
    return dict(record, metrics=metrics, samples=samples,
                provenance=provenance(w, seed, plain[0].sizes, threads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the full JSON record")
    args = parser.parse_args(argv)
    if not Path(dyninv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: dyninv must come from {SRC}, not {dyninv.__file__}")

    w = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        record = measure(w, args.seed, args.seconds, bool(args.trace), workdir)

    table = PER_LAYER if args.trace else END_TO_END
    print(f"{w.name} seed={args.seed}: {len(record['samples']['untraced'])} untraced "
          f"and {len(record['samples']['traced'])} traced repetitions, "
          f"{record['failed']} of {record['attempted']} failed")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print("provenance " + json.dumps(record["provenance"]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = Path(args.out) / f"BENCH_{w.name}{'.trace' if args.trace else ''}.json"
        full = dict(record, why=w.why, metrics={
            k: {"value": v, "unit": u, "description": table[k][1]}
            for k, (v, u) in record["metrics"].items()})
        path.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0 if record["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
