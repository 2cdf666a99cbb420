"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--record perfbench/baseline.json]

Runs perfbench/run.py once per seed (seeds 1..runs) on each workload with
the settings in BENCHMARK.json, then prints for every end-to-end metric
its median and its quartile spread, (Q3 - Q1) / median, against a third
of the metric's bound.  setup_s has no spread requirement.  --record
appends the medians and quartiles to a trajectory file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--record", help="trajectory JSON file to append to")
    parser.add_argument("--label", default="", help="what the recorded entry measures")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "runs": args.runs,
             "workloads": {}}
    steady = True
    for name in workloads:
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            argv = bench["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}, incorrect")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        entry["workloads"][name] = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            entry["workloads"][name][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                           "values": vals}
            print(f"{name:13s} {m:14s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound/3 {bounds[m] / 3:.4f}  {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in vals), flush=True)
    if args.record:
        env_path = os.path.join(ROOT, ".perfbench_out", "environment.json")
        with open(env_path) as fh:
            entry["environment"] = json.load(fh)
        trajectory = []
        if os.path.exists(args.record):
            with open(args.record) as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(args.record, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
