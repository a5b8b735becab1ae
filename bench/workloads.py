"""One benchmark workload in one process: set up, warm up, then a timed loop.

Started by run.py with the checkout's src/ on PYTHONPATH and every BLAS
pool at one thread.  Set-up runs from the process's spawn to the end of the
workload's constructor, so it covers interpreter start and imports.  The
process prints one JSON object on stdout: every passing operation's wall
time, the failure counts and peak memory, and with --trace 1 the
per-operation layer statistics.  With --setup-only it stops after set-up and
prints the monotonic time at which set-up finished.

Program functions are looked up on their modules at call time, so the
traced run's patches see every call.

The loop is closed with one caller: each operation starts when the previous
one and its output checks are done.  It runs whole rounds of operations
until --seconds have passed, so every run attempts the same mix.  Checks run
between operations and are not part of any operation's time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

from lsgame import numtheory, representation, robustness, strategy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # its own spawn time from this value.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Certify:
    """certify-d13: one sweep record per operation at d=13 (dim 48)."""

    D = 13
    KINDS = ("state", "rotate", "both")
    DELTAS = (0.0, 1e-4, 1e-3, 1e-2)
    round_size = 12  # every (kind, delta) pair once, since gcd(3, 4) = 1

    def __init__(self, seed: int):
        self.seed = seed
        params = numtheory.make_params(self.D)
        rep = representation.build_representation(params)
        test = strategy.build_full_test(params)
        self.ideal = strategy.build_ideal_strategy(params, rep, test)
        self.ideal_corr = strategy.generate_correlation(self.ideal, test)

    def inputs(self, i: int) -> tuple[str, float, int]:
        if i < 0:  # warm-up
            return "both", 1e-3, self.seed * 100_000 + 99_999
        return self.KINDS[i % 3], self.DELTAS[i % 4], self.seed * 100_000 + i

    def run(self, i: int):
        kind, delta, base = self.inputs(i)
        return robustness.run_sweep(self.ideal, self.ideal_corr, [delta], 1, (kind,), base)

    def check(self, i: int, records) -> list[str]:
        kind, delta, _ = self.inputs(i)
        if len(records) != 1:
            return [f"run_sweep returned {len(records)} records, want 1"]
        rec = records[0]
        shift = None
        if kind == "state":
            spec = robustness.PerturbationSpec(kind=kind, magnitude=delta, seed=rec.seed)
            with self.tracer.paused():
                moved = robustness.perturb_strategy(self.ideal, spec)
            shift = float(np.linalg.norm(moved.state - self.ideal.state))
        return checks.check_sweep_record(rec, kind, delta, shift)


class Cli:
    """cli-d7: seven `python -m lsgame.cli` commands, each in a fresh interpreter."""

    D = 7
    round_size = 1
    VARIABLES, EQUATIONS = 123, 104  # 16r+75 and 14r+62 at r=3
    DELTAS, TRIALS = "1e-4,1e-3,1e-2", 2

    def __init__(self, seed: int):
        # Nothing to set up here: every command starts its own interpreter,
        # and run.py times a fresh `import lsgame.cli` as this workload's
        # setup_s.
        self.seed = seed
        self.workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.reference: bytes | None = None
        self.child_stats: dict = {}  # traced children's layer totals
        self.child_spans: list = []  # (operation, command, spans)

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(self.path(name))
        os.rmdir(self.workdir)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def commands(self, i: int) -> list[tuple[str, list[str]]]:
        d, seed, path = str(self.D), str(self.seed * 1000 + i % 1000), self.path
        return [
            ("gen-game", ["gen-game", "--d", d, "--out", path("game.json")]),
            ("verify-rep", ["verify-rep", "--d", d]),
            ("gen-correlation", ["gen-correlation", "--d", d, "--out", path("corr.json")]),
            ("eval-in", ["eval", "--d", d, "--in", path("corr.json")]),
            ("eval-delta", ["eval", "--d", d, "--delta", "1e-3", "--seed", seed]),
            ("self-test", ["self-test", "--d", d]),
            ("sweep", ["sweep", "--d", d, "--deltas", self.DELTAS, "--trials", str(self.TRIALS),
                       "--seed", seed, "--out", path("sweep.csv")]),
        ]

    def run(self, i: int) -> dict:
        outputs = {}
        for name, argv in self.commands(i):
            if self.tracer.enabled:
                spans_file = os.path.join(self.workdir, f"{name}.spans.json")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), spans_file] + argv
            else:
                cmd = [sys.executable, "-m", "lsgame.cli"] + argv
            with self.tracer.span(f"cli.{name}") as sp:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
                if name == "gen-correlation" and proc.returncode == 0:
                    sp["bytes"] = os.path.getsize(self.path("corr.json"))
            outputs[name] = (proc.returncode, proc.stdout)
            if self.tracer.enabled:
                self._merge_child(i, name, spans_file)
        files = {}
        for key, name in (("game", "game.json"), ("correlation", "corr.json"), ("sweep", "sweep.csv")):
            with open(self.path(name), "rb") as fh:
                files[key] = fh.read()
        return {"outputs": outputs, "files": files}

    def _merge_child(self, i: int, name: str, spans_file: str) -> None:
        with open(spans_file) as fh:
            child = json.load(fh)
        os.remove(spans_file)
        tracer.merge_stats(self.child_stats, child["stats"])
        self.child_spans.append((i, name, child["spans"]))

    def check(self, i: int, out: dict) -> list[str]:
        failures = checks.check_cli(out["outputs"], out["files"], self.reference, self.D,
                                    self.VARIABLES, self.EQUATIONS, 3 * self.TRIALS)
        if self.reference is None:
            self.reference = out["files"]["correlation"]
        return failures


WORKLOADS = {"certify-d13": Certify, "cli-d7": Cli}


def attempt(work, i: int) -> tuple[float, bool]:
    """(seconds, whether the operation ran and passed its checks)."""
    t0 = time.perf_counter()
    try:
        out = work.run(i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False
    elapsed = time.perf_counter() - t0
    failures = work.check(i, out)
    for msg in failures[:3]:
        sys.stderr.write(f"check failed, operation {i}: {msg}\n")
    return elapsed, not failures


def main() -> int:
    global checks, subprocess, tracer, traceback

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = WORKLOADS[args.workload](args.seed)
    ready = monotonic()
    if args.setup_only:
        print(repr(ready))
        return 0
    # Modules that only the benchmark uses load after `ready`, so that
    # setup_s counts only what the workload itself needs.
    import checks
    import subprocess
    import tracer
    import traceback

    work.tracer = tracer.Tracer()
    if args.trace:
        work.tracer.install()
    try:
        warmup_ok = attempt(work, -1)[1]  # untimed
        times = {False: [], True: []}  # traced? -> seconds of each passing operation
        failed = attempted = rnd = 0
        t_start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds in one
            # process, so their ratio is the tracing overhead.
            traced = bool(args.trace) and rnd % 2 == 1
            if traced:
                work.tracer.start()
            for k in range(work.round_size):
                seconds, ok = attempt(work, rnd * work.round_size + k)
                attempted += 1
                if ok:
                    times[traced].append(seconds)
                else:
                    failed += 1
            if traced:
                work.tracer.stop()
            rnd += 1
            if time.perf_counter() - t_start >= args.seconds and (not args.trace or rnd >= 2):
                break
    finally:
        if hasattr(work, "close"):
            work.close()

    result = {
        "op_seconds": times[False],
        "attempted": attempted,
        "failed": failed,
        "correct": warmup_ok and failed == 0,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    if args.trace:
        result.update(traced_op_seconds=times[True], per_op=traced_per_op(work, len(times[True])))
        result["spans_file"] = write_spans(args, work.tracer, getattr(work, "child_spans", []))
    print(json.dumps(result))
    return 0


def traced_per_op(work, n_ops: int) -> dict:
    """Layer totals per traced operation; the allocation peak stays a maximum."""
    stats = tracer.span_stats(work.tracer.spans)
    tracer.merge_stats(stats, getattr(work, "child_stats", {}))
    return {
        name: {k: (v if k == "alloc_peak_mb" else v / n_ops) for k, v in st.items()}
        for name, st in stats.items()
    }


def write_spans(args, spans_tracer, child_spans: list) -> str:
    import gzip

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    payload = {
        "fields": ["name", "start", "end", "parent", "sys_s", "alloc_peak_bytes", "bytes"],
        "spans": spans_tracer.spans,
        "children": [{"operation": i, "command": name, "spans": spans} for i, name, spans in child_spans],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
    return path


def peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for cli-d7 the work runs in the children.
    who = resource.RUSAGE_CHILDREN if workload == "cli-d7" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
