"""Benchmark entry point for lsgame.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The measured code is the checkout's own
src/, put on PYTHONPATH; every process started here runs its BLAS pools with
one thread.  The timed process (bench/workloads.py) sets up, warms up and
runs the timed loop.  Before and after it, SETUP_PROBES[workload] fresh
processes only set up and exit, half on each side, so that the set-up
samples span the whole run and not one moment of it.  setup_s is the median
over these probes of the time from spawning one to the end of its set-up.
For cli-d7, whose commands each start their own interpreter, a probe is a
fresh interpreter that imports lsgame.cli.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  The full record, with the git SHA,
thread count, seed and every sample, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
# An even count, split before and after the timed process.  A certify-d13
# probe takes ~0.7 s and a cli-d7 probe ~0.2 s.
SETUP_PROBES = {"certify-d13": 16, "cli-d7": 32}
CLI_IMPORT = "import lsgame.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """(monotonic time of the spawn, the child's last line of stdout)."""
    t0 = monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child {cmd[1:3]} exited {proc.returncode}")
    return t0, proc.stdout.decode().strip().splitlines()[-1]


def worker_cmd(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def git_sha(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric(spec: dict, value: float) -> dict:
    return {"value": value, "unit": spec["unit"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_PROBES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not os.path.isfile(os.path.join(root, "src", "lsgame", "__init__.py")):
        sys.stderr.write("no src/lsgame in the current directory: run from the root of an lsgame checkout\n")
        return 2

    env = child_env(root)
    deadline = monotonic() + WORKER_TIMEOUT_S

    probe_cmd = [sys.executable, "-c", CLI_IMPORT] if args.workload == "cli-d7" else worker_cmd(args, True)

    def probe() -> float:
        # A probe prints the monotonic time at which its set-up finished.
        t0, ready = run_child(probe_cmd, env, deadline - monotonic())
        return float(ready) - t0

    half = SETUP_PROBES[args.workload] // 2
    setup = [probe() for _ in range(half)]
    result = json.loads(run_child(worker_cmd(args, False), env, deadline - monotonic())[1])
    setup += [probe() for _ in range(half)]
    setup_s = statistics.median(setup)
    if not result["op_seconds"] or (args.trace and not result["traced_op_seconds"]):
        raise SystemExit(f"{result['failed']} of {result['attempted']} operations failed, too many to time")

    op_seconds = result["op_seconds"]
    if args.trace:
        untraced = statistics.median(op_seconds)
        per_op = result["per_op"]
        per_op["trace"] = {"overhead_pct": 100.0 * (statistics.median(result["traced_op_seconds"]) / untraced - 1)}
        if args.workload == "cli-d7":
            per_op["cli.import"] = {"s": setup_s}
        metrics = {}
        for spec in bench["per_layer"]:
            span, kind = spec["name"].rsplit(".", 1)
            metrics[spec["name"]] = metric(spec, per_op.get(span, {}).get(kind, 0.0))
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(op_seconds),
            "ops_per_s": len(op_seconds) / sum(op_seconds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {spec["name"]: metric(spec, values[spec["name"]]) for spec in bench["end_to_end"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "setup_samples_s": setup,
        "op_seconds": op_seconds,
        "traced_op_seconds": result.get("traced_op_seconds"),
        "spans_file": result.get("spans_file"),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
