"""Run a matrix of `dyninv` configs on two checkouts and compare their outputs.

    python3 results/pr18/config_matrix.py PARENT CHANGE WORK

PARENT and CHANGE are source checkouts (each with `src/dyninv`); WORK is an
empty scratch directory.  Each checkout runs every case in its own process,
writing one directory per case under WORK/parent or WORK/change, and the
report compares the two trees file by file and prints one line per case.
The comparison skips what holds wall time: `manifest.ini` (it records the
run's own output directory), `summary.ini`'s `wall_time_s` and
`convergence.csv`'s `wall_time_s` and `op_time_s` columns.  Exit status 1
when any case differs.

    python3 results/pr18/config_matrix.py --run CHECKOUT OUT

runs the cases of one checkout only.
"""

import configparser
import contextlib
import csv
import io
import os
import subprocess
import sys

TIME_COLUMNS = {"wall_time_s", "op_time_s"}

SMALL = {"nx": "6", "ny": "6", "n_t": "3"}
DEBLUR = {"generator": "deblur", **SMALL}
TOMO = {"generator": "tomography", "nx": "8", "ny": "8", "n_t": "3",
        "rays_per_time": "12", "seed": "2"}
PRIOR = {"spatial": "matern", "nu": "1.5", "ell": "0.2", "temporal": "minij"}
FIXED = {"strategy": "fixed", "lambda": "1.0", "max_iter": "20"}

# (name, command, config sections); the output directory is added per run,
# and "{out}" in a value stands for the directory that holds every case
CASES = [
    # each generator with defaults only, then with every key set
    ("gen-deblur-defaults", "generate", {"problem": DEBLUR}),
    ("gen-tomography-defaults", "generate",
     {"problem": {"generator": "tomography", **SMALL}}),
    ("gen-rotating-defaults", "generate",
     {"problem": {"generator": "rotating", **SMALL}}),
    ("gen-deblur-all-keys", "generate",
     {"problem": {**DEBLUR, "spatial_sigma": "0.05", "spatial_bandwidth": "2",
                  "temporal_sigma": "0.7", "temporal_bandwidth": "1",
                  "noise_level": "0.05", "seed": "11"}}),
    ("gen-tomography-all-keys", "generate",
     {"problem": {"generator": "tomography", **SMALL, "rays_per_time": "9",
                  "noise_sigma": "0.003", "coverage_threshold": "2",
                  "seed": "5"}}),
    ("gen-rotating-all-keys", "generate",
     {"problem": {"generator": "rotating", **SMALL, "radii_count": "7",
                  "noise_level": "0.04", "width": "0.1", "orbit_radius": "0.2",
                  "revolutions": "0.5", "seed": "3"}}),
    # solver defaults: WGCV(0.8), 100 steps, no reorthogonalization,
    # Matern(1.0, 0.1) in space, identity in time
    ("solve-defaults", "solve", {"problem": DEBLUR}),
    # each spatial family
    ("solve-spatial-identity", "solve",
     {"problem": DEBLUR, "prior": {"spatial": "identity"}, "solver": FIXED}),
    ("solve-spatial-matern", "solve",
     {"problem": DEBLUR, "prior": {"spatial": "matern", "nu": "2.5",
                                   "ell": "0.3"}, "solver": FIXED}),
    ("solve-spatial-gamma-exp-defaults", "solve",
     {"problem": DEBLUR, "prior": {"spatial": "gamma_exp"}, "solver": FIXED}),
    ("solve-spatial-gamma-exp", "solve",
     {"problem": DEBLUR, "prior": {"spatial": "gamma_exp", "gamma": "1.5",
                                   "ell": "0.25", "nugget": "1e-8"},
      "solver": FIXED}),
    # each temporal variant
    ("solve-temporal-identity", "solve",
     {"problem": DEBLUR, "prior": {**PRIOR, "temporal": "identity"},
      "solver": FIXED}),
    ("solve-temporal-minij", "solve",
     {"problem": DEBLUR, "prior": PRIOR, "solver": FIXED}),
    ("solve-temporal-fd-defaults", "solve",
     {"problem": DEBLUR, "prior": {**PRIOR, "temporal": "fd"},
      "solver": FIXED}),
    ("solve-temporal-fd", "solve",
     {"problem": DEBLUR, "prior": {**PRIOR, "temporal": "fd",
                                   "fd_gamma": "0.01"}, "solver": FIXED}),
    ("solve-temporal-kernel-defaults", "solve",
     {"problem": DEBLUR, "prior": {**PRIOR, "temporal": "kernel"},
      "solver": FIXED}),
    ("solve-temporal-kernel", "solve",
     {"problem": DEBLUR, "prior": {**PRIOR, "temporal": "kernel",
                                   "temporal_nu": "0.5",
                                   "temporal_ell": "0.6"}, "solver": FIXED}),
    # the nonseparable structure, and a prior mean
    ("solve-nonseparable-defaults", "solve",
     {"problem": DEBLUR, "prior": {"structure": "nonseparable"},
      "solver": FIXED}),
    ("solve-nonseparable", "solve",
     {"problem": DEBLUR, "prior": {"structure": "nonseparable", "nu": "1.5",
                                   "c1": "2.0", "c2": "0.5", "mean": "0.1"},
      "solver": FIXED}),
    # each strategy
    ("solve-fixed-reorth", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {**FIXED, "reorth": "true"}}),
    ("solve-gcv", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {"strategy": "gcv", "max_iter": "20"}}),
    ("solve-wgcv", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {"strategy": "wgcv", "wgcv_weight": "0.6", "max_iter": "20"}}),
    ("solve-optimal", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {"strategy": "optimal", "max_iter": "20"}}),
    ("solve-optimal-tomography", "solve",
     {"problem": TOMO, "prior": PRIOR,
      "solver": {"strategy": "optimal", "max_iter": "10"}}),
    # the decoupled method, shared and per-time lambda
    ("solve-decoupled", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {**FIXED, "method": "decoupled"}}),
    ("solve-decoupled-per-time", "solve",
     {"problem": DEBLUR, "prior": PRIOR,
      "solver": {"strategy": "wgcv", "max_iter": "20", "method": "decoupled",
                 "per_time_lambda": "true"}}),
    # posterior variance: default rank, set rank
    ("variance-default-rank", "variance",
     {"problem": DEBLUR, "prior": PRIOR, "uq": {"lambda": "0.5"}}),
    ("variance-rank", "variance",
     {"problem": TOMO, "prior": PRIOR, "uq": {"lambda": "2.0", "rank": "6"}}),
    # a saved instance in place of a generator
    ("solve-from-path", "solve",
     {"problem": {"path": "{out}/gen-tomography-all-keys"}, "prior": PRIOR,
      "solver": FIXED}),
    # dense oracle: default and set lambda
    ("oracle-defaults", "oracle", {"problem": DEBLUR, "prior": PRIOR}),
    ("oracle-lambda", "oracle",
     {"problem": DEBLUR, "prior": PRIOR, "solver": {"lambda": "0.3"}}),
]
KERNEL_EVAL = [
    ("kernel-eval-defaults", ["0", "0.25", "1.0", "3.0"]),
    ("kernel-eval-gamma-exp", ["--family=gamma_exp", "0", "0.5", "2.0"]),
    ("kernel-eval-flags", ["--nu=0.5", "--ell=0.3", "0.1", "0.6"]),
    ("kernel-eval-gamma-exp-flags",
     ["--family=gamma_exp", "--gamma=0.5", "--ell=2.0", "0.1", "4.0"]),
]


def run(checkout, out):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from dyninv import cli

    codes = []
    for name, command, sections in CASES:
        case_dir = os.path.join(out, name)
        cfg = configparser.ConfigParser()
        cfg.read_dict({section: {k: v.replace("{out}", out) for k, v in keys.items()}
                       for section, keys in sections.items()})
        cfg.read_dict({"output": {"dir": case_dir}})
        os.makedirs(case_dir)
        path = os.path.join(out, name + ".ini")
        with open(path, "w") as fh:
            cfg.write(fh)
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append((name, cli.main([command, "--config", path])))
    for name, args in KERNEL_EVAL:
        os.makedirs(os.path.join(out, name))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append((name, cli.main(["kernel-eval", *args])))
        with open(os.path.join(out, name, "stdout.txt"), "w") as fh:
            fh.write(buf.getvalue())
    with open(os.path.join(out, "exit_codes.txt"), "w") as fh:
        fh.writelines(f"{name} {code}\n" for name, code in codes)


def comparable(path):
    """The bytes of an output file, less the fields that hold wall time."""
    name = os.path.basename(path)
    if name == "summary.ini":
        cfg = configparser.ConfigParser()
        cfg.read(path)
        cfg.remove_option("summary", "wall_time_s")
        buf = io.StringIO()
        cfg.write(buf)
        return buf.getvalue().encode()
    if name == "convergence.csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [j for j, col in enumerate(rows[0]) if col not in TIME_COLUMNS]
        return "\n".join(",".join(row[j] for j in keep) for row in rows).encode()
    with open(path, "rb") as fh:
        return fh.read()


def compare(parent, change):
    names = [name for name, _, _ in CASES] + [name for name, _ in KERNEL_EVAL]
    differs = 0
    with open(os.path.join(parent, "exit_codes.txt")) as fh:
        parent_codes = dict(line.split() for line in fh)
    with open(os.path.join(change, "exit_codes.txt")) as fh:
        change_codes = dict(line.split() for line in fh)
    for name in names:
        a, b = os.path.join(parent, name), os.path.join(change, name)
        files = sorted(set(os.listdir(a)) | set(os.listdir(b)))
        files = [f for f in files if f != "manifest.ini"]
        bad = [f for f in files
               if not (os.path.exists(os.path.join(a, f))
                       and os.path.exists(os.path.join(b, f))
                       and comparable(os.path.join(a, f))
                       == comparable(os.path.join(b, f)))]
        code = f"exit {parent_codes[name]}/{change_codes[name]}"
        if bad or parent_codes[name] != change_codes[name]:
            differs += 1
            print(f"{name}: DIFFERS ({code}; {', '.join(bad) or 'exit code'})")
        else:
            print(f"{name}: identical ({code}; {', '.join(files)})")
    print(f"{len(names) - differs} of {len(names)} cases identical")
    return 1 if differs else 0


def main(argv):
    if argv[0] == "--run":
        run(argv[1], argv[2])
        return 0
    parent, change, work = argv
    for side, checkout in (("parent", parent), ("change", change)):
        subprocess.run([sys.executable, os.path.abspath(__file__), "--run",
                        checkout, os.path.join(work, side)], check=True)
    return compare(os.path.join(work, "parent"), os.path.join(work, "change"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
