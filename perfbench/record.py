#!/usr/bin/env python3
"""Measures every workload over several seeds and appends a trajectory point.

    python3 perfbench/record.py --label <commit> [--seeds 10] [--seconds 30]

For each workload: one untraced run.py per seed (seeds 1..N), then one
traced run on seed 1. Prints, per end-to-end metric, the median, the
spread (quartile distance over median) and the median's change against
the previous point, and appends the point to perfbench/trajectory.json.
Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.json")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d (exit %d)" % (
            workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_facts():
    compiler = "unknown"
    cache = os.path.join(run.BUILD_DIR, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                out = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                     text=True).stdout
                compiler = out.splitlines()[0] if out else path
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": "RelWithDebInfo",
        "PROSPECTOR_OBS": "ON",
        "PROSPECTOR_LP_CROSSCHECK": "OFF",
    }


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="what was measured, e.g. a commit id")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)

    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            trajectory = json.load(f)
    previous = trajectory[-1]["workloads"] if trajectory else {}

    point = {"label": args.label, "seconds": args.seconds,
             "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in point["seeds"]:
            result = run_once(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr,
                  flush=True)
        traced = run_once(workload, point["seeds"][0], args.seconds, 1)
        summary = {name: summarize(v) for name, v in per_metric.items()}
        point["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        before = previous.get(workload, {}).get("end_to_end", {})
        for name, s in summary.items():
            change = ""
            if before.get(name, {}).get("median"):
                change = "  vs previous %+.4f" % (
                    s["median"] / before[name]["median"] - 1)
            print("%-12s %-22s median %12.6g  spread %.4f%s" % (
                workload, name, s["median"], s["spread"], change), flush=True)
    point["host"] = host_facts()

    trajectory.append(point)
    with open(TRAJECTORY, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
