"""Acceptance harness: one check per headline capability.

Each test prints a single PASS or FAIL line (run with -s to watch them) and
asserts the same condition, so the suite fails loudly when a capability
regresses. Stated time budgets are asserted alongside the behaviour.
"""

import time

import numpy as np
import pytest

from conftest import INIT, STEPS, TARGET, make_rng, rule_lookup, threshold_activation
from metastable import ann, autoprog, ca, cli, core, search

BUDGET = 5000
SEED_RUNS = 200
WITHIN = 1000


def report(name: str, ok: bool, detail: str = ""):
    line = "%s %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_trajectory_reproduction(capsys):
    """ca-run reproduces the pinned 31-cell trajectory, bit for bit, fast."""
    argv = ["ca-run", "--rule", "110", "--init", INIT, "--steps", str(STEPS), "--target", TARGET]
    cli.main(argv)  # warm-up
    capsys.readouterr()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        code = cli.main(argv)
        best = min(best, time.perf_counter() - t0)
        out = capsys.readouterr().out
    lines = out.splitlines()
    exact = code == 0 and lines[-2] == TARGET and lines[-1] == "match 1.000000000"
    with capsys.disabled():
        report(
            "trajectory-reproduction",
            exact and best < 0.010,
            "bit-exact=%s, %.2f ms" % (exact, best * 1e3),
        )


def test_exhaustive_solution_set(capsys):
    """Scoring all 256 rules pins the reference solution set to exactly {110}."""
    problem = search.Problem(INIT, TARGET, STEPS)
    t0 = time.perf_counter()
    solutions = search.exhaustive_search(problem)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            "exhaustive-solution-set",
            solutions == [110] and elapsed < 1.0,
            "set=%s, %.0f ms" % (solutions, elapsed * 1e3),
        )


def test_random_search_success_rate(capsys):
    """Across 200 seeds, at least 90% of searches hit the rule within 1000 draws."""
    problem = search.Problem(INIT, TARGET, STEPS)
    assert len(search.exhaustive_search(problem)) == 1  # the 1-in-256 regime
    t0 = time.perf_counter()
    hits = 0
    attempts = []
    for seed in range(SEED_RUNS):
        result = search.random_search(problem, budget=BUDGET, seed=seed)
        if result.solved:
            attempts.append(result.attempts)
            if result.attempts <= WITHIN:
                hits += 1
    elapsed = time.perf_counter() - t0
    rate = hits / SEED_RUNS
    with capsys.disabled():
        report(
            "random-search-success-rate",
            rate >= 0.9 and elapsed < 30.0,
            "%d/%d within %d draws, median %d, %.1f s"
            % (hits, SEED_RUNS, WITHIN, int(np.median(attempts)), elapsed),
        )


def test_training_reaches_the_goal(capsys):
    """Training a 15x31 net on the reference pattern scores at least 0.9."""
    t0 = time.perf_counter()
    code = cli.main(
        [
            "ann-train",
            "--layers", "15",
            "--width", "31",
            "--init", INIT,
            "--target", TARGET,
            "--seed", "7",
        ]
    )
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    lines = out.splitlines()
    best_line = next(l for l in lines if l.startswith("best "))
    best = float(best_line.split()[1])
    exact = any(l.startswith("exact") for l in lines)
    detail = "best %.9f, %.2f s" % (best, elapsed)
    if exact:
        detail += ", exact solution flagged"
    with capsys.disabled():
        report(
            "training-reaches-goal",
            code == 0 and best >= 0.9 and elapsed < 300.0,
            detail,
        )


def test_generated_programs_are_bit_exact(capsys):
    """Generated C programs print the interpreter's trajectory exactly."""
    if not autoprog.toolchain_available("c"):
        with capsys.disabled():
            print("SKIP generated-programs-bit-exact (no C toolchain on PATH)")
        pytest.skip("no C toolchain")
    rng = make_rng(2024)
    documents = []
    for _ in range(50):
        p = int(rng.integers(3, 32))
        rule = int(rng.integers(0, 256))
        steps = int(rng.integers(1, 21))
        init = rng.integers(0, 2, size=p)
        documents.append(autoprog.Document(system=ca.make_automaton(rule, init), steps=steps))
    for _ in range(10):
        layers = int(rng.integers(2, 5))
        width = int(rng.integers(1, 6))
        steps = int(rng.integers(1, 9))
        pattern = rng.integers(0, 2, size=width)
        net = ann.make_network(layers, width, pattern, rng=rng)
        documents.append(autoprog.Document(system=net, steps=steps))
    t0 = time.perf_counter()
    failures = 0
    for doc in documents:
        result = autoprog.verify(doc, "c")
        if not result.equal:
            failures += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            "generated-programs-bit-exact",
            failures == 0 and elapsed < 120.0,
            "%d/%d documents equal, %.1f s" % (len(documents) - failures, len(documents), elapsed),
        )


def test_behavioural_properties(capsys):
    """Fast re-checks of the library's contract properties in one place."""
    rng = make_rng(99)
    ok = True

    # agreement scoring: symmetric, self-agreement 1, bounded
    for _ in range(50):
        n = int(rng.integers(1, 40))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        s = core.match(a, b)
        ok = ok and 0.0 <= s <= 1.0 and s == core.match(b, a) and core.match(a, a) == 1.0

    # binding round trip, both kinds, plus text round trip
    for _ in range(20):
        system = ca.make_automaton(int(rng.integers(0, 256)), rng.integers(0, 2, size=9))
        ok = ok and core.modulate(*core.demodulate(system)) == system
        doc = autoprog.Document(system=system, steps=3)
        ok = ok and autoprog.parse(autoprog.emit(doc)) == doc
    for _ in range(5):
        net = ann.make_network(3, 3, rng.integers(0, 2, size=3), rng=rng)
        ok = ok and core.modulate(*core.demodulate(net)) == net
        doc = autoprog.Document(system=net, steps=4)
        ok = ok and autoprog.parse(autoprog.emit(doc)) == doc

    # order independence of one synchronous step
    cells = rng.integers(0, 2, size=11)
    table = ca.RuleTable(int(rng.integers(0, 256)))
    stepped = core.step(ca.make_automaton(table, cells)).current
    manual = np.zeros(11, dtype=np.int64)
    for i in rng.permutation(11):
        manual[i] = rule_lookup(table, int(cells[(i - 1) % 11]), int(cells[i]), int(cells[(i + 1) % 11]))
    ok = ok and np.array_equal(manual, stepped)

    # shift equivariance
    for _ in range(10):
        rule = int(rng.integers(0, 256))
        init = rng.integers(0, 2, size=13)
        k = int(rng.integers(0, 13))
        a = core.run(ca.make_automaton(rule, np.roll(init, k)), 5)
        b = np.roll(core.run(ca.make_automaton(rule, init), 5), k, axis=1)
        ok = ok and np.array_equal(a, b)

    # the gate fires exactly at the threshold
    ok = ok and threshold_activation(0.5) == 1 and threshold_activation(0.499999999) == 0

    # corrections do nothing when the output already agrees or the rate is 0
    net = ann.make_network(2, 3, "101", rng=make_rng(1))
    agreed = core.render_state(ann.forward(net)[3:])
    same, rep = ann.train(net, agreed, ann.TrainingConfig(epochs=3))
    ok = ok and rep.corrections == 0 and same == net
    frozen, _ = ann.train(net, "111", ann.TrainingConfig(rate=0.0, epochs=3))
    ok = ok and np.array_equal(frozen.milieu, net.milieu)

    # determinism end to end
    problem = search.Problem(INIT, TARGET, STEPS)
    ok = ok and search.random_search(problem, 50, seed=3) == search.random_search(problem, 50, seed=3)
    t1 = ann.train(ann.make_network(3, 4, "1010", rng=make_rng(11)), "0111")
    t2 = ann.train(ann.make_network(3, 4, "1010", rng=make_rng(11)), "0111")
    ok = ok and t1 == t2

    with capsys.disabled():
        report("behavioural-properties", ok)
