"""Check that the benchmark is steady: two sets of ten runs of the same commit.

    python3 perfbench/steady.py

Each set runs every workload in ``BENCHMARK.json`` once per seed, workloads
interleaved so that host drift reaches all of them alike; set 1 uses seeds
1-10 and set 2 seeds 11-20. For each workload and end-to-end metric it prints
the median and quartiles of each set, the spread (quartile distance over the
median) and the shift of the second median against the first in the metric's
worse direction, and whether both stay within the metric's bound. It also
makes two traced runs per workload with seed 1, checks that their counts are
identical, and reports tracing overhead as traced ``ops_per_s`` against that
of an untraced run with seed 1 made just before. Every run's figures are
saved under ``.perfbench/``. Exits 1 if anything is outside its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run

SETS = 2
RUNS = 10


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    sets = []
    for j in range(SETS):
        runs = {w: [] for w in workloads}
        for seed in range(j * RUNS + 1, (j + 1) * RUNS + 1):
            for workload in workloads:
                result = run.measure(workload, seed, seconds, 0)
                runs[workload].append(result)
                print("set %d seed %3d %-10s wrong=%d %s | %s" % (
                    j + 1, seed, workload, len(result["wrong"]),
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
                    run.probe_line(result)), flush=True)
        sets.append(runs)

    ok = True
    print("\n%-10s %-12s %s %8s %8s %6s" % ("workload", "metric", "  ".join(
        "set%d q1/median/q3 (spread)" % (j + 1) for j in range(SETS)), "shift", "bound", "agree"))
    for workload in workloads:
        shares = {sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload]) for s in sets}
        correct = not any(r["wrong"] for s in sets for r in s[workload])
        ok &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, spreads = [], [], []
            for s in sets:
                q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in s[workload]], n=4)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
                cells.append("%.4g/%.4g/%.4g (%.3f)" % (q1, q2, q3, spreads[-1]))
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            within = shift <= bound and max(spreads) <= bound
            ok &= within
            print("%-10s %-12s %s %8.3f %8.2f %6s" % (workload, name, "  ".join(cells), shift, bound,
                                                      "yes" if within else "NO"))
        print("%-10s failed share per set %s, all outputs correct: %s" % (workload, sorted(shares), correct))

    print()
    for workload in workloads:
        # the untraced run just before the traced ones meets the same host phase
        untraced = run.measure(workload, 1, seconds, 0)["ops_per_s"]
        traced = [run.measure(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bytes")}
                  for t in traced]
        same = counts[0] == counts[1]
        ok &= same
        print("%-10s traced %.4g ops/s against untraced %.4g ops/s (overhead %.1f%%); "
              "counts identical in two traced runs: %s" % (
                  workload, traced[0]["ops_per_s"], untraced,
                  100 * (1 - traced[0]["ops_per_s"] / untraced), same))

    path = os.path.join(run.OUT, "steady-%d.json" % time.time())
    with open(path, "w") as handle:
        json.dump(sets, handle)
    print("\nruns saved to %s; %s" % (path, "steady" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
