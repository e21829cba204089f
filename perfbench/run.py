"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload ca-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``. Each
workload runs in its own single-threaded worker process (``worker.py``), one
process at a time. With ``--trace 0`` the worker is timed and the end-to-end
metrics are printed; set-up is timed in ``SETUP_RUNS`` fresh processes (the
timed worker in the middle of them) and reported as their median. With ``--trace 1`` a
traced worker prints the per-layer metrics instead.

A fixed pure-Python kernel and a fixed numpy kernel are timed before and
after the workers run and printed beside the metrics. They are not metrics:
they show how fast the host was during the run, so host drift can be told
apart from a change in the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# single-threaded numpy in this process and in every worker
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("ca-search", "ann-train", "amp-verify")
SETUP_RUNS = 5
DEADLINE_S = 170.0


def probe() -> dict[str, float]:
    """Median of five timings of each fixed kernel, in ms."""
    data = np.random.default_rng(0).random(500_000)
    py, nd = [], []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        py.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.sort(data)
        nd.append(time.perf_counter() - start)
    return {"python_ms": statistics.median(py) * 1e3, "numpy_ms": statistics.median(nd) * 1e3}


def probe_line(worker: dict) -> str:
    before, after = worker["probe_before"], worker["probe_after"]
    return "probe (not a metric): python kernel %.1f -> %.1f ms, numpy kernel %.1f -> %.1f ms" % (
        before["python_ms"], after["python_ms"], before["numpy_ms"], after["numpy_ms"])


def start_worker(argv, deadline):
    """Run one worker to its end; returns (set-up seconds, its stdout lines)."""
    command = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    env = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))
    started = time.monotonic()
    # a session of its own, so a timeout can stop the worker's toolchain children too
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.splitlines()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    ready = next(float(line.split()[1]) for line in lines if line.startswith("ready "))
    return ready - started, lines


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the worker's JSON, plus the set-up times and probes.

    Raises RuntimeError, StopIteration or TimeoutExpired when a worker fails.
    """
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    before = probe()
    try:
        if trace:
            _, lines = start_worker(argv, deadline)
            setups = []
        else:
            # set-up runs on both sides of the timed worker meet different host phases
            setups = [start_worker(argv + ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS // 2)]
            setup, lines = start_worker(argv, deadline)
            setups.append(setup)
            setups += [start_worker(argv + ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS // 2)]
    finally:
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
    worker = json.loads(lines[-1])
    if not trace:
        worker["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    worker.update(setups=setups, probe_before=before, probe_after=probe())
    return worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "metastable", "__init__.py")):
        print("no package at %s; run from the root of a checkout" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        worker = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, StopIteration, subprocess.TimeoutExpired) as err:
        print("run failed: %s" % (err or type(err).__name__), file=sys.stderr)
        return 1

    metrics = worker["metrics"]
    print("workload %s seed %d: %d operations (%d failed), %.2f s inside operations, %.2f ops/s"
          % (args.workload, args.seed, worker["attempted"], worker["failed"], worker["busy_s"], worker["ops_per_s"]))
    for name, metric in metrics.items():
        print("  %-34s %14.4f %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("  op_tail_ms is the median over %d blocks of p%.2f of %g operations; setup_s is the median of %s"
              % (worker["tail_blocks"], worker["tail_percentile"], worker["block_ops"],
                 ", ".join("%.3f" % s for s in worker["setups"])))
    print(probe_line(worker))
    for problem in worker["wrong"]:
        print("WRONG %s" % problem)
    print(json.dumps({
        "correct": not worker["wrong"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
