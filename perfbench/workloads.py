"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload builds its inputs one round at a time: its function in
``WORKLOADS``, called with ``(seed, k)``, returns the operations of round k,
made afresh from ``(seed, k)``, so every
run with the same seed sees the same inputs in the same order and each round
holds the same kinds of operation in the same proportion. An operation calls
the package's public API and nothing else; its check compares the output with
``reference`` and runs outside the timed interval.

Sizes come from fixed grids and the seed decides the contents (initial
states, hidden rules, weights, patterns, search seeds), so the cost of a run
depends little on the seed while every input is still new.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import Any, Callable

import numpy as np

import reference
from metastable import ann, autoprog, ca, search

SEARCH_BUDGET = 5000


@dataclasses.dataclass
class Op:
    """One timed call into the package and the check of what it returned.

    ``check`` returns None when the output is right, else what is wrong.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _net_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


# --- ca-search ----------------------------------------------------------------

CA_SIZES = (31, 63, 95, 127)
CA_STEPS = (10, 17, 24, 30)


def _ring_problem(rng: np.random.Generator, p: int, steps: int, unique: bool):
    """A random initial state and a hidden rule drawn from the rules whose
    target has one solving rule (``unique``) or several; returns the problem,
    the hidden rule, the solving rules and every rule's score."""
    for _ in range(1000):
        init = rng.integers(0, 2, size=p).astype(np.int64)
        finals = reference.final_states(init, steps)
        rows = [row.tobytes() for row in finals]
        sizes = collections.Counter(rows)
        candidates = [r for r, row in enumerate(rows) if (sizes[row] == 1) == unique]
        if candidates:
            rule = candidates[int(rng.integers(0, len(candidates)))]
            target = finals[rule].astype(np.int64)
            scores = reference.scores(finals, target)
            solving = [r for r, s in enumerate(scores) if s == 1.0]
            return search.Problem(init=init, target=target, steps=steps), rule, solving, scores
    raise RuntimeError("no %s-solution problem found for p=%d" % ("one" if unique else "many", p))


class _Draws:
    """The reference draws of one seed, computed once and extended on demand."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rules: list[int] = []

    def first(self, n: int) -> list[int]:
        self.rules += [reference.draw(self.seed, k) for k in range(len(self.rules), n)]
        return self.rules[:n]


def _random_op(problem, solving: list[int], scores: list[float], draws: _Draws) -> Op:
    """random_search with a log of every attempt, checked draw by draw."""
    seed = draws.seed
    solving_set = set(solving)

    def run():
        attempts = []
        report = search.random_search(problem, budget=SEARCH_BUDGET, seed=seed, log=attempts.append)
        return report, attempts

    def check(out) -> str | None:
        report, attempts = out
        n = len(attempts)
        if [a.index for a in attempts] != list(range(1, n + 1)):
            return "attempt indices are not 1..%d" % n
        rules = [a.rule for a in attempts]
        if rules != draws.first(n):
            return "seed %d: logged rules differ from the reference draws" % seed
        if any(a.score != scores[a.rule] for a in attempts):
            return "seed %d: a logged score differs from the reference score" % seed
        hits = [k for k, r in enumerate(rules) if r in solving_set]
        if report.solved:
            if hits != [n - 1] or report.solution != rules[-1] or report.attempts != n:
                return "seed %d: search did not stop at the first solving draw" % seed
        elif hits or n != SEARCH_BUDGET:
            return "seed %d: unsolved search missed a solving draw" % seed
        best = max(range(n), key=lambda k: (scores[rules[k]], -k))
        if (report.best_rule, report.best_score) != (rules[best], scores[rules[best]]):
            return "seed %d: best rule or score differs from the log" % seed
        return None

    return Op("random", run, check)


def _exhaustive_op(problem, solving: list[int], hidden: int) -> Op:
    def check(out) -> str | None:
        if out != solving or hidden not in out:
            return "exhaustive set %s differs from the reference %s" % (out, solving)
        return None

    return Op("exhaustive", lambda: search.exhaustive_search(problem), check)


def ca_search_round(seed: int, k: int) -> list[Op]:
    """16 problems on a grid of ring sizes and step counts, half with one
    solving rule and half with several; each gets a random search, an
    exhaustive search and a second random search, in that order.

    The round's two search seeds are shared by its problems, which differ in
    their solving rules and so stop at different draws; the reference draws
    of each seed are then computed once per round.
    """
    rng = _rng(seed, k)
    first, second = (_Draws(int(s)) for s in rng.integers(0, 2**31, size=2))
    ops = []
    for i, (p, steps) in enumerate(itertools.product(CA_SIZES, CA_STEPS)):
        unique = (i + i // len(CA_STEPS)) % 2 == 0
        problem, hidden, solving, scores = _ring_problem(rng, p, steps, unique)
        ops += [
            _random_op(problem, solving, scores, first),
            _exhaustive_op(problem, solving, hidden),
            _random_op(problem, solving, scores, second),
        ]
    return ops


# --- ann-train ----------------------------------------------------------------

ANN_LAYERS = (10, 15, 20)
ANN_WIDTHS = (16, 31, 48)


def _train_op(layers: int, width: int, rng: np.random.Generator) -> Op:
    """make_network with seeded random weights, then train to a random target."""
    pattern = rng.integers(0, 2, size=width).astype(np.int64)
    target = rng.integers(0, 2, size=width).astype(np.int64)
    net_seed = _net_seed(rng)

    def run():
        net = ann.make_network(layers, width, pattern, rng=np.random.default_rng(net_seed))
        return ann.train(net, target)

    def check(out) -> str | None:
        trained, report = out
        if not report.exact:
            return "%dx%d net did not reach its target (best %r)" % (layers, width, report.best_match)
        got = reference.net_output(layers, width, trained.milieu, trained.update.bias, pattern)
        if got != target.tolist():
            return "%dx%d net: reference forward pass misses the target" % (layers, width)
        return None

    return Op("train", run, check)


def ann_train_round(seed: int, k: int) -> list[Op]:
    """One net of each size on a 3x3 grid of layers and widths around 15x31."""
    rng = _rng(seed, k)
    return [_train_op(layers, width, rng) for layers, width in itertools.product(ANN_LAYERS, ANN_WIDTHS)]


# --- amp-verify ---------------------------------------------------------------

AMP_RINGS = ((31, 15), (95, 30), (191, 45), (255, 60))
AMP_NETS = ((4, 8), (8, 16), (12, 24), (15, 31))


def _ring_document(rng: np.random.Generator, p: int, steps: int):
    rule = int(rng.integers(0, reference.RULES))
    init = rng.integers(0, 2, size=p).astype(np.int64)
    doc = autoprog.Document(system=ca.make_automaton(rule, init), steps=steps)
    return doc, reference.render(reference.ring_trajectory(init, rule, steps))


def _net_document(rng: np.random.Generator, layers: int, width: int):
    pattern = rng.integers(0, 2, size=width).astype(np.int64)
    net = ann.make_network(layers, width, pattern, rng=np.random.default_rng(_net_seed(rng)))
    steps = layers - 1
    rows = reference.net_trajectory(layers, width, net.milieu, net.update.bias, net.init, steps)
    return autoprog.Document(system=net, steps=steps), reference.render(rows)


def _amp_op(doc, expected: str, backend: str) -> Op:
    def run():
        text = autoprog.emit(doc)
        parsed = autoprog.parse(text)
        return text, parsed, autoprog.verify(parsed, backend)

    def check(out) -> str | None:
        text, parsed, report = out
        if not report.equal:
            return "%s: verify reports a mismatch at line %s" % (backend, report.mismatch_line)
        if report.actual != expected:
            return "%s: program output differs from the reference trajectory" % backend
        if parsed != doc:
            return "parse(emit(d)) != d"
        if autoprog.emit(parsed) != text:
            return "emit(parse(t)) != t"
        return None

    return Op("verify-" + backend, run, check)


def amp_verify_round(seed: int, k: int) -> list[Op]:
    """Four ring and four net documents, rings and nets alternating; each
    document is verified once with C and once with Python, and consecutive
    operations alternate between the two backends."""
    rng = _rng(seed, k)
    docs = []
    for (p, steps), (layers, width) in zip(AMP_RINGS, AMP_NETS):
        docs.append(_ring_document(rng, p, steps))
        docs.append(_net_document(rng, layers, width))
    swapped = [docs[i ^ 1] for i in range(len(docs))]
    backends = itertools.cycle(("c", "python"))
    return [_amp_op(doc, expected, next(backends)) for doc, expected in docs + swapped]


WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "ca-search": ca_search_round,
    "ann-train": ann_train_round,
    "amp-verify": amp_verify_round,
}
