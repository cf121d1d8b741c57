"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out FILE]

Runs ``bench/run.py`` once per workload (those of ``BENCHMARK.json`` by
default) and seed, one run at a time, and reports for each metric, with its
unit, the median of the runs and the spread ``(Q3 - Q1) / median`` with the
quartiles of ``statistics.quantiles(n=4)``.
For an end-to-end metric the spread is set against its ``bound`` in
``BENCHMARK.json``: the benchmark is steady when every spread is below a
third of its bound.  ``--out`` writes the values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report, steady = {}, True
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*config["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report[name] = {"failed": sum(r["failed"] for r in runs),
                        "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        print(f"{name}: {report[name]['failed']} of {report[name]['attempted']} "
              f"repetitions failed")
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            report[name]["metrics"][metric] = s
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                ok = s["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound:g} {'ok' if ok else 'NOT STEADY'}"
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"  {metric:36s} median {s['median']:12.6g} {unit:6s} "
                  f"spread {s['spread']:8.4f} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
