"""Search for rules that carry an initial state to a target state.

``evaluate`` is the reference path for one rule: it binds a system, runs it
for the problem's steps, and scores the final state against the target.
The rule space has only 256 members, so both searches instead score all of
them at once: ``score_table`` steps one (256, p) array, a row per rule
number, and gives each rule exactly the float ``evaluate`` gives it.

``random_search`` draws one rule per attempt and looks its score up in the
problem's table. Each attempt draws from its own child stream of the seed
(``SeedSequence(seed, spawn_key=(k,))`` for attempt index k), so attempt k's
rule depends only on the seed and k. That makes runs reproducible however the
attempts are executed or distributed.

``exhaustive_search`` reads the table in rule order and returns every exact
solution, which also pins down how many exist.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import ca, core
from .errors import DimensionMismatch, OutOfRange


@dataclasses.dataclass(frozen=True)
class Problem:
    """Initial state, target state, and how many steps lie between them."""

    init: np.ndarray
    target: np.ndarray
    steps: int

    @classmethod
    def from_strings(cls, init: str, target: str, steps: int) -> "Problem":
        init_vec = core.parse_state_string(init)
        target_vec = core.parse_state_string(target)
        if init_vec.size != target_vec.size:
            raise DimensionMismatch(
                "init has %d cells but target has %d" % (init_vec.size, target_vec.size)
            )
        if steps < 0:
            raise OutOfRange("step count must not be negative, got %d" % steps)
        return cls(init=init_vec, target=target_vec, steps=steps)


@dataclasses.dataclass(frozen=True)
class Attempt:
    """One evaluated candidate: 1-based index, rule number, match score."""

    index: int
    rule: int
    score: float


@dataclasses.dataclass
class SearchReport:
    """Outcome of a search: the solution if one turned up, else the best seen."""

    solution: int | None
    attempts: int
    best_rule: int
    best_score: float

    @property
    def solved(self) -> bool:
        return self.solution is not None


def rule_for_attempt(seed: int, index: int) -> int:
    """Rule drawn by attempt ``index`` (0-based) under ``seed``."""
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
    return int(stream.integers(0, ca.RULE_COUNT))


def evaluate(rule: int, problem: Problem) -> float:
    """Bind the rule, run the problem's steps, and score the final state."""
    final = core.advance(ca.make_automaton(rule, problem.init), problem.steps).current
    return core.match(final, problem.target)


def score_table(problem: Problem) -> np.ndarray:
    """Scores of all 256 rules on ``problem``; entry r equals ``evaluate(r, problem)``.

    One run steps a (256, p) array of ``uint8`` cells, row r under rule r:
    each step forms every cell's neighbourhood code from its left, centre and
    right neighbours and reads that bit of the row's rule number. A problem
    ``evaluate`` would reject raises the same typed error here.
    """
    system = ca.make_automaton(0, problem.init)
    if problem.steps < 0:
        raise OutOfRange("step count must not be negative, got %d" % problem.steps)
    count = system.count
    target = np.asarray(problem.target)
    if target.shape != (count,):
        raise DimensionMismatch("cannot match shapes %s and %s" % ((count,), target.shape))
    rules = np.arange(ca.RULE_COUNT, dtype=np.uint8)[:, None]
    cells = np.repeat(system.init.astype(np.uint8)[None, :], ca.RULE_COUNT, axis=0)
    for _ in range(problem.steps):
        # bit ``code`` of rule r is its output for that code
        cells = (rules >> ca.ring_codes(cells)) & 1
    # core.match's mean, row by row: a count of equal cells is exact in
    # float64, so each row's score is the same float as evaluate's.
    return np.mean(cells == target, axis=1)


def random_search(
    problem: Problem,
    budget: int,
    seed: int,
    log: Callable[[Attempt], None] | None = None,
) -> SearchReport:
    """Draw up to ``budget`` rules at random, stopping at the first exact hit.

    Each draw's score is looked up in the problem's ``score_table``, built
    once per call, so no rule is run twice; ``evaluate`` stays the reference
    path that the table agrees with bit for bit.
    """
    if budget < 1:
        raise OutOfRange("attempt budget must be at least 1, got %d" % budget)
    if seed < 0:
        raise OutOfRange("seed must not be negative, got %d" % seed)
    scores = score_table(problem).tolist()
    best_rule = -1
    best_score = -1.0
    for k in range(budget):
        rule = rule_for_attempt(seed, k)
        score = scores[rule]
        if log is not None:
            log(Attempt(index=k + 1, rule=rule, score=score))
        if score > best_score:
            best_rule = rule
            best_score = score
        if score == 1.0:
            return SearchReport(solution=rule, attempts=k + 1, best_rule=rule, best_score=1.0)
    return SearchReport(solution=None, attempts=budget, best_rule=best_rule, best_score=best_score)


def exhaustive_search(
    problem: Problem,
    log: Callable[[Attempt], None] | None = None,
) -> list[int]:
    """Score all 256 rules in order; return every rule that hits the target."""
    solutions = []
    for rule, score in enumerate(score_table(problem).tolist()):
        if log is not None:
            log(Attempt(index=rule + 1, rule=rule, score=score))
        if score == 1.0:
            solutions.append(rule)
    return solutions
