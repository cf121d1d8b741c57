"""Wall time of the README example's solve and variance field through `dyninv`.

    python3 results/pr26/cli_route.py CHECKOUT WORK

Writes the README's example config (32 x 32 x 8 deblur, its WGCV overridden
to Fixed lambda = 1, 50 reorthogonalized steps) into the empty directory
WORK, generates its instance once, then runs `dyninv solve` and, where
CHECKOUT still has the command, `dyninv variance` at rank 50 after it, seven
times each, in this process with CHECKOUT's `src/`.  Prints each command's
median wall time, the median of their sum, and the sha256 of the variance
field of the last run.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import time

import numpy as np

checkout, work = sys.argv[1:3]
sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
from dyninv import cli  # noqa: E402

readme = open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                           "README.md")).read()
ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
ini = re.sub(r"(?m)^dir = .*$", f"dir = {os.path.join(work, 'out')}", ini)
cfg = os.path.join(work, "cfg.ini")
with open(cfg, "w") as fh:
    fh.write(ini)
solve = ["solve", "--config", cfg, "--solver.reorth=true",
         "--solver.strategy=fixed", "--solver.lambda=1.0"]
commands = [solve]
if "variance" in cli.COMMANDS:
    # at the solve's rank, so that the two routes' fields can be compared
    commands.append(["variance", "--config", cfg, "--uq.rank=50"])


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    assert code == 0, (argv, code)
    return elapsed


run(["generate", "--config", cfg])
times = np.array([[run(argv) for argv in commands] for _ in range(7)])
for argv, column in zip(commands, times.T):
    print(f"{argv[0]}: median {np.median(column) * 1e3:.1f} ms")
print(f"route: median {np.median(times.sum(axis=1)) * 1e3:.1f} ms")
with open(os.path.join(work, "out", "variance.bin"), "rb") as fh:
    print("variance.bin sha256", hashlib.sha256(fh.read()).hexdigest()[:16])
