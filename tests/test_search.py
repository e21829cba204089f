"""Random and exhaustive rule search, with pinned reproducibility facts."""

import itertools

import numpy as np
import pytest

from conftest import INIT, STEPS, TARGET, make_rng
from metastable import core, search
from metastable.errors import DimensionMismatch, OutOfRange, StateDomainViolation, TooFewEntities

ZEROS = "0" * 31
# seeds one, two, three, four and seven 32-bit words wide
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 1, 2**100 + 3, 2**200 + 7]
# the first 32 rules drawn under seed 2019, taken with numpy 2.4.6
PINNED_2019 = [
    111, 11, 69, 85, 67, 84, 172, 154, 160, 251, 75, 110, 33, 155, 197, 238,
    173, 210, 198, 125, 120, 241, 143, 10, 59, 4, 68, 187, 50, 100, 200, 240,
]


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        search.Problem("010", "0101", 1)
    with pytest.raises(OutOfRange):
        search.Problem("010", "010", -1)
    for steps in (2.5, 2.0, "3"):
        with pytest.raises(OutOfRange):
            search.Problem("010", "010", steps)


def test_problems_compare_by_value():
    problem = search.Problem("00100", "11101", 3)
    assert problem == search.Problem(np.array([0, 0, 1, 0, 0]), np.array([1, 1, 1, 0, 1]), 3)
    assert problem != search.Problem("00100", "11101", 4)
    assert problem != search.Problem("00100", "11100", 3)
    with pytest.raises(TypeError):  # arrays inside: unhashable, as autoprog.Document is
        hash(problem)


def test_attempt_draws_are_pinned_to_seed_and_index():
    # frozen draws from the per-attempt child streams
    assert search.rule_for_attempt(163, 0) == 0
    assert search.rule_for_attempt(163, 0) == search.rule_for_attempt(163, 0)


def test_attempt_draws_are_independent_of_evaluation_order():
    forward = [search.rule_for_attempt(31, k) for k in range(40)]
    backward = [search.rule_for_attempt(31, k) for k in reversed(range(40))]
    assert forward == list(reversed(backward))


def test_attempt_draws_reject_negative_seeds_and_indices():
    with pytest.raises(OutOfRange):
        search.rule_for_attempt(-1, 0)
    with pytest.raises(OutOfRange):
        search.rule_for_attempt(0, -1)
    with pytest.raises(OutOfRange):
        search.rules_for_attempts(-1, 0, 5)
    with pytest.raises(OutOfRange):
        search.rules_for_attempts(0, -1, 5)
    with pytest.raises(OutOfRange):
        search.rules_for_attempts(0, 5, 4)


@pytest.mark.parametrize("seed", WIDE_SEEDS, ids=["0", "1", "2^32-1", "2^32+5", "2^64+1", "2^100+3", "2^200+7"])
@pytest.mark.parametrize(
    "start, stop",
    [(0, 300), (0, 1), (137, 400), (2**32 - 40, 2**32 + 40), (2**64 - 3, 2**64 + 3), (9, 9)],
    ids=["from-0", "one", "mid-stream", "across-2^32", "across-2^64", "empty"],
)
def test_batched_draws_equal_the_per_attempt_draws(seed, start, stop):
    reference = [search.rule_for_attempt(seed, k) for k in range(start, stop)]
    assert search.rules_for_attempts(seed, start, stop) == reference


def test_batched_draws_agree_across_array_passes():
    # a range longer than one array pass is cut into passes
    whole = search.rules_for_attempts(1, 0, 2**14 + 50)
    edge = [search.rule_for_attempt(1, k) for k in range(2**14 - 50, 2**14 + 50)]
    assert whole[-100:] == edge
    assert search.rules_for_attempts(1, 2**14 - 50, 2**14 + 50) == edge


def test_the_draw_stream_is_pinned_across_numpy_versions():
    message = (
        "numpy %s draws a different stream: NEP 19 lets Generator.integers change between "
        "versions, and every seeded search's attempts would change with it" % np.__version__
    )
    assert [search.rule_for_attempt(2019, k) for k in range(32)] == PINNED_2019, message
    assert search.rules_for_attempts(2019, 0, 32) == PINNED_2019, message


def test_attempt_draws_cover_the_rule_space_uniformly():
    draws = np.array(search.rules_for_attempts(12345, 0, 51200))
    counts = np.bincount(draws, minlength=256)
    expected = 51200 / 256
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 99.9th percentile of chi-square with 255 degrees of freedom
    assert chi2 == pytest.approx(245.280, abs=0.01)
    assert chi2 < 330.520


def test_random_search_finds_the_reference_rule(reference_problem):
    log = []
    report = search.random_search(reference_problem, budget=5000, seed=42, log=log.append)
    assert report.solved
    assert report.solution == 110
    assert report.attempts == 19
    assert report.best_score == 1.0
    # the log carries one entry per attempt, 1-based, scores in range
    assert [a.index for a in log] == list(range(1, 20))
    assert all(0.0 <= a.score <= 1.0 for a in log)
    assert log[-1].rule == 110 and log[-1].score == 1.0

    report = search.random_search(reference_problem, budget=5000, seed=0)
    assert report.solution == 110
    assert report.attempts == 30


def test_random_search_is_deterministic(reference_problem):
    a = search.random_search(reference_problem, budget=200, seed=7)
    b = search.random_search(reference_problem, budget=200, seed=7)
    assert a == b


def test_random_search_respects_the_budget(reference_problem):
    report = search.random_search(reference_problem, budget=5, seed=163)
    assert not report.solved
    assert report.attempts == 5
    assert 0 <= report.best_rule < 256
    assert report.best_score < 1.0
    with pytest.raises(OutOfRange):
        search.random_search(reference_problem, budget=0, seed=1)


def _first_seed_new_at(attempt: int) -> tuple[int, list[int]]:
    """The first seed whose rule at ``attempt`` (1-based) was not drawn
    before it, with its first ``attempt`` rules."""
    for seed in itertools.count():
        draws = [search.rule_for_attempt(seed, k) for k in range(attempt)]
        if draws[-1] not in draws[:-1]:
            return seed, draws


@pytest.mark.parametrize("hit", [1, 64, 65, 192])
def test_random_search_logs_the_per_attempt_draws_across_chunks(monkeypatch, reference_problem, hit):
    # the draws come in chunks of 64, 128, ...; a table that only the rule
    # drawn at ``hit`` solves makes the search stop exactly there
    seed, draws = _first_seed_new_at(hit)
    table = np.arange(256) / 512
    table[draws[-1]] = 1.0
    monkeypatch.setattr(search, "score_table", lambda problem: table)
    log = []
    report = search.random_search(reference_problem, budget=5000, seed=seed, log=log.append)
    assert log == [search.Attempt(index=k + 1, rule=r, score=table[r]) for k, r in enumerate(draws)]
    assert report == search.SearchReport(solution=draws[-1], attempts=hit, best_rule=draws[-1], best_score=1.0)


@pytest.mark.parametrize("budget", [64, 200])
def test_random_search_ends_on_its_budget_across_chunks(monkeypatch, reference_problem, budget):
    table = np.arange(256) / 512  # no rule solves; rule r scores r/512
    monkeypatch.setattr(search, "score_table", lambda problem: table)
    log = []
    report = search.random_search(reference_problem, budget=budget, seed=5, log=log.append)
    draws = [search.rule_for_attempt(5, k) for k in range(budget)]
    assert log == [search.Attempt(index=k + 1, rule=r, score=table[r]) for k, r in enumerate(draws)]
    assert report == search.SearchReport(solution=None, attempts=budget, best_rule=max(draws), best_score=max(draws) / 512)


def test_random_search_rejects_negative_seeds(reference_problem):
    with pytest.raises(OutOfRange):
        search.random_search(reference_problem, budget=5, seed=-1)


def test_exhaustive_search_pins_the_solution_set(reference_problem):
    assert search.exhaustive_search(reference_problem) == [110]


def test_exhaustive_search_finds_all_quiescent_rules():
    # from a dead ring, one step later the ring is dead again exactly for
    # rules whose 000 entry is 0, which is every even rule number
    problem = search.Problem(ZEROS, ZEROS, 1)
    solutions = search.exhaustive_search(problem)
    assert len(solutions) == 128
    assert solutions == [r for r in range(256) if r % 2 == 0]


def test_exhaustive_search_sees_the_identity_rule():
    problem = search.Problem(INIT, INIT, 4)
    assert 204 in search.exhaustive_search(problem)


def test_evaluate_scores_the_final_state(reference_problem):
    assert search.evaluate(110, reference_problem) == 1.0
    assert search.evaluate(0, reference_problem) == pytest.approx(20 / 31)


def test_score_table_agrees_with_evaluate_bit_for_bit():
    rng = make_rng(2024)
    # a dead ring stays uniform under every rule, so no rule reaches this
    unsolvable = search.Problem(ZEROS, "01" * 15 + "0", 3)
    problems = [
        search.Problem(INIT, TARGET, STEPS),
        search.Problem("010", "111", 2),
        search.Problem(INIT, TARGET, 0),
        unsolvable,
    ]
    for _ in range(12):
        count = int(rng.integers(3, 40))
        problems.append(
            search.Problem(
                init=rng.integers(0, 2, count),
                target=rng.integers(0, 2, count),
                steps=int(rng.integers(0, 25)),
            )
        )
    for problem in problems:
        table = search.score_table(problem)
        reference = np.array([search.evaluate(rule, problem) for rule in range(256)])
        assert table.shape == (256,)
        assert np.array_equal(table.view(np.uint64), reference.view(np.uint64))
    assert search.exhaustive_search(unsolvable) == []


@pytest.mark.parametrize(
    "init, target, steps, error",
    [
        ([0, 2, 0, 1], [0, 0, 0, 0], 1, StateDomainViolation),
        ([0, 1], [0, 1], 1, TooFewEntities),
        ([0, 1, 0, 1], [0, 1, 0], 1, DimensionMismatch),
        ([0, 1, 0, 1], [0, 1, 0, 1], -1, OutOfRange),
        ([0.5, 1.0, 0.0, 1.7], [0, 1, 0, 1], 1, StateDomainViolation),
        ([0, 1, 0, 1], [0, 1, 0, 1], 2.5, OutOfRange),
    ],
)
def test_searches_raise_the_errors_evaluate_raises(init, target, steps, error):
    # a Problem checks itself when it is made, so what evaluate would refuse
    # (a ring that does not bind, a target of another size, a bad step count)
    # never reaches evaluate or either search
    with pytest.raises(error):
        search.Problem(init=np.array(init), target=np.array(target), steps=steps)
