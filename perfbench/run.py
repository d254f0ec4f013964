#!/usr/bin/env python3
"""Fleet benchmark: builds the driver, runs one workload, gates, reports.

    python3 perfbench/run.py --workload fig3-replan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench; later runs rebuild incrementally.

--trace 0 prints every end-to-end metric; --trace 1 prints every per-layer
metric. A traced run first repeats the untraced run in its own process,
then replays the same epochs with the tracer on, so the two can be
checked against each other and the tracing overhead measured.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when the build or a run fails, or when the
correctness gate trips (see gate()). See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")

WORKLOADS = ("fig3-replan", "serve-churn", "fig8-audit")

# name -> unit. BENCHMARK.json must list exactly these (test_run.py checks).
END_TO_END = {
    "epoch_ms_p50": "ms",
    "epoch_ms_p90": "ms",
    "answers_per_s": "1/s",
    "recall_mean": "ratio",
    "energy_mj_per_answer": "mJ",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_success_ratio": "ratio",
}

PER_LAYER = {
    "service.admit_us_p50": "us",
    "service.retire_us_p50": "us",
    "service.poll_us_p50": "us",
    "service.self_ms_per_epoch": "ms",
    "service.admits": "count",
    "service.retires": "count",
    "service.answers_dropped": "count",
    "engine.tick_self_ms_per_epoch": "ms",
    "engine.heal_ms": "ms",
    "engine.explore_epochs": "count",
    "engine.query_epochs": "count",
    "engine.audit_epochs": "count",
    "engine.rebuilds": "count",
    "replan.attempts": "count",
    "replan.installs": "count",
    "replan.install_ratio": "ratio",
    "replan.short_circuit_ratio": "ratio",
    "replan.self_ms_per_attempt": "ms",
    "hit_matrix.rebuild_ratio": "ratio",
    "workspace.lp_hit_ratio": "ratio",
    "workspace.hits_hit_ratio": "ratio",
    "planner.greedy.plans": "count",
    "planner.greedy.self_ms_per_plan": "ms",
    "planner.lp_filter.plans": "count",
    "planner.lp_filter.self_ms_per_plan": "ms",
    "planner.lp_no_filter.plans": "count",
    "planner.lp_no_filter.self_ms_per_plan": "ms",
    "planner.proof.plans": "count",
    "planner.proof.self_ms_per_plan": "ms",
    "planner.repair_rounds": "count",
    "planner.fill_passes": "count",
    "lp.solves": "count",
    "lp.solves_per_plan": "ratio",
    "lp.solve_ms_per_plan": "ms",
    "lp.dense_ms": "ms",
    "lp.hot_ms": "ms",
    "lp.revised_ms": "ms",
    "lp.pivots_per_solve": "count",
    "lp.us_per_pivot": "us",
    "lp.rows_per_solve": "count",
    "lp.columns_per_solve": "count",
    "lp.revised_fallbacks": "count",
    "lp.blands_activations": "count",
    "lp.share_of_epoch_cpu": "ratio",
    "exec.superplan_ms_per_run": "ms",
    "exec.proof_phase1_ms_per_run": "ms",
    "exec.mopup_ms_per_run": "ms",
    "exec.shared_values": "count",
    "exec.values_lost": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

# Seconds of repeated set-ups per untraced run; setup_s is their median
# (a set-up takes well under a second, so single ones are noisy).
SETUP_SECONDS = 3
# Headroom under the 180 s per-run limit for everything but the runs.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fleet_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(workload, seed, seconds, trace, setup_seconds):
    """Runs the driver once, in its own process; returns its JSON result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setup-seconds", str(setup_seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(result):
    """Correctness checks on one driver run; returns the failures."""
    errors = []
    if result["failed"] > 0:
        errors.append("failed_op_ratio %d/%d > 0 (first: %s)" % (
            result["failed"], result["attempted"], result["first_error"]))
    if result["answers"] < 1:
        errors.append("no answers were polled")
    fleet = result["fleet_energy_mj"]
    metered = result["tenant_energy_mj"] + result["install_energy_mj"]
    if abs(metered - fleet) > 1e-9 * max(1.0, abs(fleet)):
        errors.append(
            "tenant energy %.17g + install energy %.17g != fleet total %.17g"
            % (result["tenant_energy_mj"], result["install_energy_mj"], fleet))
    return errors


def gate_replay(untraced, traced):
    """The traced replay must reproduce the untraced run exactly."""
    errors = []
    for key in ("timed_epochs", "answers", "digest", "energy_mj"):
        if untraced[key] != traced[key]:
            errors.append("traced run diverged on %s: %r != %r" % (
                key, traced[key], untraced[key]))
    return errors


def end_to_end(result):
    answers = max(1, result["answers"])
    return {
        "epoch_ms_p50": result["epoch_ms_p50"],
        "epoch_ms_p90": result["epoch_ms_p90"],
        "answers_per_s": answers / result["wall_s"],
        "recall_mean": result["recall_sum"] / answers,
        "energy_mj_per_answer": result["energy_mj"] / answers,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_success_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def per_layer(untraced, traced):
    values = dict(traced["per_layer"])
    values["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1
    return values


def report(correct, attempted, failed, values, units):
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError("metric set mismatch: missing %s, extra %s" %
                           (missing, extra))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    try:
        untraced = run_driver(args.workload, args.seed, args.seconds, 0,
                              SETUP_SECONDS if args.trace == 0 else 0)
        runs = [untraced]
        if args.trace:
            runs.append(run_driver(args.workload, args.seed, args.seconds, 1,
                                   0))
    except (OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log("perfbench: driver run failed: %s" % e)
        return 1

    errors = [e for r in runs for e in gate(r)]
    if args.trace:
        errors += gate_replay(untraced, runs[1])
    log("perfbench: workload=%s seed=%d scheduler_width=%d "
        "hardware_threads=%d timed_epochs=%d" % (
            args.workload, args.seed, untraced["scheduler_width"],
            untraced["hardware_threads"], untraced["timed_epochs"]))
    for e in errors:
        log("perfbench: GATE FAILED: " + e)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        report(not errors, attempted, failed, per_layer(untraced, runs[1]),
               PER_LAYER)
    else:
        report(not errors, attempted, failed, end_to_end(untraced), END_TO_END)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
