"""One workload in one process: set up, then a timed run or a traced run.

Started by ``run.py``, never by hand. As soon as set-up (import, the first
round's inputs and a warm-up call of each kind of operation) is done it prints
``ready <time.monotonic()>``, so the parent can time set-up from process
start. With ``--setup-only`` it then exits. Otherwise its last line is a JSON
object with the run's counts and metrics.

Timed run: whole rounds of operations until at least ``--seconds`` seconds
have been spent inside operations and at least one block of
``BLOCK_ROUNDS`` rounds has completed. Each operation is timed alone and
checked after its timer stops. The tail is taken in each whole block and
reported as the median over the blocks, so a burst of load from elsewhere on
the host moves a block or two and not the run's figure, and the tail's
percentile depends on the block, not on how many operations the host's
speed allowed in the run.

Traced run: a fixed number of rounds with spans recorded around the package's
public functions, so counts repeat exactly for a seed, then one more round
under ``tracemalloc`` for the allocation peak inside ``core.modulate``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the package on the path)

# at least ten operations beyond the tail percentile, in blocks of 180-192
# operations (whole rounds), so the tail is about p94.5 on every workload
TAIL_BEYOND = 10
BLOCK_ROUNDS = {"ca-search": 4, "ann-train": 20, "amp-verify": 12}
TRACE_ROUNDS = {"ca-search": 12, "ann-train": 10, "amp-verify": 2}


def warm_up(ops):
    """Run the first operation of each kind once, untimed and unchecked."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def run_rounds(name, seed, first_ops, more, tracer=None):
    """Time and check whole rounds while ``more(busy, rounds)`` holds.

    Returns (each round's operation times, failed count, wrong-output
    messages, busy s).
    """
    rounds, wrong = [], []
    failed = 0
    busy = 0.0
    ops, k = first_ops, 0
    while True:
        times = []
        rounds.append(times)
        for op in ops:
            if tracer is not None:
                tracer.on = True
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:  # a failed operation is counted, not fatal
                busy += time.perf_counter() - start
                failed += 1
                print("failed %s: %s: %s" % (op.kind, type(err).__name__, err), file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.on = False
            elapsed = time.perf_counter() - start
            busy += elapsed
            times.append(elapsed)
            problem = op.check(out)
            if problem is not None:
                wrong.append("%s: %s" % (op.kind, problem))
        k += 1
        if not more(busy, k):
            return rounds, failed, wrong, busy
        ops = workloads.WORKLOADS[name](seed, k)


def latency_metrics(rounds, block):
    """The median of all operations, and the tail: in each whole block of
    ``block`` rounds the highest percentile with TAIL_BEYOND operations above
    it, median over the blocks (a trailing partial block is left out)."""
    blocks = [sorted(itertools.chain.from_iterable(rounds[i:i + block]))
              for i in range(0, len(rounds) - block + 1, block)]
    tails = [ordered[max(len(ordered) - TAIL_BEYOND - 1, 0)] for ordered in blocks]
    size = statistics.median(len(ordered) for ordered in blocks)
    return {
        "op_p50_ms": statistics.median(itertools.chain.from_iterable(rounds)) * 1e3,
        "op_tail_ms": statistics.median(tails) * 1e3,
        "tail_percentile": 100.0 * (size - TAIL_BEYOND) / size,
        "tail_blocks": len(blocks),
        "block_ops": size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.WORKLOADS[args.workload](args.seed, 0)
    warm_up(ops)
    gc.collect()
    print("ready %r" % time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        rounds = TRACE_ROUNDS[args.workload]
        per_round, failed, wrong, busy = run_rounds(
            args.workload, args.seed, ops, lambda busy, k: k < rounds, tracer
        )
        tracer.uninstall()
        metrics = tracer.metrics()
        tracer.write(os.path.join(ROOT, ".perfbench", "spans-%s-%d.tsv" % (args.workload, args.seed)))
        with tracing.ModulatePeak() as peak:
            for op in workloads.WORKLOADS[args.workload](args.seed, 0):
                op.run()
        metrics[tracing.PEAK_ALLOC] = {"value": peak.peak / 2**20, "unit": "MB"}
    else:
        block = BLOCK_ROUNDS[args.workload]
        per_round, failed, wrong, busy = run_rounds(
            args.workload,
            args.seed,
            ops,
            lambda busy, k: busy < args.seconds or k < block,
        )
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latency = latency_metrics(per_round, block)
        metrics = {
            "ops_per_s": {"value": sum(map(len, per_round)) / busy, "unit": "1/s"},
            "op_p50_ms": {"value": latency["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": latency["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
        for key in ("tail_percentile", "tail_blocks", "block_ops"):
            result[key] = latency[key]
        if latency["op_tail_ms"] < latency["op_p50_ms"]:
            wrong.append("op_tail_ms is below op_p50_ms")
    done = sum(map(len, per_round))
    result.update(
        attempted=done + failed,
        failed=failed,
        wrong=wrong,
        busy_s=busy,
        ops_per_s=done / busy,
        metrics=metrics,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
