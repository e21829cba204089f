"""Search for rules that carry an initial state to a target state.

A ``Problem`` is checked once, when it is made. ``evaluate`` is the reference
path for one rule: it binds a system, runs it for the problem's steps, and
scores the final state against the target. The rule space has only 256
members, so both searches instead score all of them at once: ``score_table``
steps one (256, p) array, a row per rule number, and gives each rule exactly
the float ``evaluate`` gives it.

``random_search`` draws one rule per attempt and looks its score up in the
problem's table. The draw contract: attempt k (0-based) draws
``Generator(PCG64(SeedSequence(seed, spawn_key=(k,)))).integers(0, 256)``,
its own child stream of the seed, so attempt k's rule depends only on the seed
and k. That makes runs reproducible however the attempts are executed or
distributed. ``rule_for_attempt`` is that contract, one attempt at a time.

``rules_for_attempts`` computes the same rules for a whole range of k with
array operations, and ``random_search`` draws through it in doubling chunks.
It follows numpy's code step by step (O'Neill's ``seed_seq_fe`` hash for the
seed sequence, PCG64 for the stream):

* The seed's part of the entropy pool, ``SeedSequence(seed).pool``, is the
  same for every k; each of k's 32-bit spawn words is then hashed and mixed
  into all four pool words. The hash constants do not depend on the data, so
  every k is mixed at once as ``uint32`` arrays.
* ``generate_state(4, uint64)`` hashes the pool into PCG64's 128-bit seed s
  and stream number q. Seeding and the first step fold into one closed form,
  ``state = ((inc + s)·M + inc)·M + inc mod 2**128`` with ``inc = 2q + 1``,
  computed on 32-bit limbs held in ``uint64``; the output is XSL-RR of it.
* ``integers(0, 256)`` is Lemire's bounded draw on the low 32 bits of that
  output, which for a range of 256 never rejects: the rule is bits 24-31.

NEP 19 lets ``Generator.integers`` change between numpy versions; the tests
pin the stream, so such a change fails them rather than moving the draws.

``exhaustive_search`` reads the table in rule order and returns every exact
solution, which also pins down how many exist.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable

import numpy as np

from . import ca, core
from .errors import OutOfRange


@dataclasses.dataclass(frozen=True, eq=False)
class Problem:
    """Initial state, target state (each a '0'/'1' string or an array) and the steps between them,
    checked when made: ``init`` binds as a ring, ``target`` has as many cells, ``steps`` is an int >= 0."""

    init: np.ndarray
    target: np.ndarray
    steps: int

    def __post_init__(self):
        init = ca.make_automaton(0, self.init).init
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "target", core.state_vector(self.target, init.size, "target"))
        core.check_steps(self.steps)

    __eq__ = core.fields_equal


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


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise OutOfRange("seed must not be negative, got %d" % seed)


def rule_for_attempt(seed: int, index: int) -> int:
    """Rule drawn by attempt ``index`` (0-based) under ``seed``."""
    _check_seed(seed)
    if index < 0:
        raise OutOfRange("attempt index must not be negative, got %d" % index)
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
    return int(stream.integers(0, ca.RULE_COUNT))


_MASK32 = 0xFFFFFFFF
# SeedSequence's hash: pool mixing, generate_state, and the word mix
_POOL_INIT, _POOL_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_FIRST_CHUNK = 64
_BLOCK = 1 << 14  # indices per array pass, so temporaries stay bounded


def _word_count(value: int) -> int:
    """How many 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


def _hash_steps(h: int, count: int, mult: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``count`` steps of the hash ``v ^= h; h *= mult; v *= h`` from ``h``:
    the xor and multiply constants as (count, 1) columns, and the h after."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    columns = np.array([xors, mults], np.uint32)[:, :, None]
    return columns[0], columns[1], h


def _limbs(value: int) -> list[int]:
    """The four little-endian 32-bit limbs of a 128-bit int."""
    return [(value >> 32 * c) & _MASK32 for c in range(4)]


def _limb_products(*factors: int) -> np.ndarray:
    """Row 4f + i, column c holds limb c - i of factor f (0 for c < i), so that
    summing limb i of x_f times row 4f + i gives column c of sum(x_f * factor_f)
    mod 2**128 before carries."""
    rows = []
    for limbs in map(_limbs, factors):
        rows += [[limbs[c - i] if c >= i else 0 for c in range(4)] for i in range(4)]
    return np.array(rows, dtype=np.uint64)


# PCG64 takes generate_state's uint64 words 0 and 1 as the high and low
# halves of s, and words 2 and 3 as those of q. Its eight uint32 words, uint32
# word d hashing pool word d % 4, are listed as the little-endian limbs of s
# and then of q.
_STATE_ORDER = [2, 3, 0, 1, 6, 7, 4, 5]
_STATE_ROWS = [d % 4 for d in _STATE_ORDER]
_STATE_XORS, _STATE_MULTS = (a[_STATE_ORDER] for a in _hash_steps(_STATE_INIT, 8, _STATE_MULT)[:2])
# state = s·M² + inc·(M² + M + 1) = s·M² + q·2(M² + M + 1) + (M² + M + 1)
_SQUARE = _PCG_MULT * _PCG_MULT % 2**128
_TAIL = (_SQUARE + _PCG_MULT + 1) % 2**128
_FACTORS = _limb_products(_SQUARE, 2 * _TAIL % 2**128)
_TAIL_LIMBS = np.array(_limbs(_TAIL), dtype=np.uint64)[:, None]


def _draw_block(pool: np.ndarray, h: int, indices: np.ndarray, words: int) -> list[int]:
    """The rules of ``indices``, which all split into ``words`` spawn words,
    from the seed's ``pool`` and the hash constant ``h`` reached after it."""
    mixed = pool[:, None]
    for j in range(words):
        word = ((indices >> 32 * j) & _MASK32).astype(np.uint32)
        xors, mults, h = _hash_steps(h, 4, _POOL_MULT)
        hashed = (word ^ xors) * mults
        hashed ^= hashed >> 16
        mixed = _MIX_LEFT * mixed - _MIX_RIGHT * hashed
        mixed ^= mixed >> 16
    limbs = (mixed[_STATE_ROWS] ^ _STATE_XORS) * _STATE_MULTS
    limbs ^= limbs >> 16
    # 32×32-bit partial products, their low and high halves summed per column
    parts = _FACTORS[:, :, None] * limbs.astype(np.uint64)[:, None, :]
    state = (parts & _MASK32).sum(axis=0) + _TAIL_LIMBS
    state[1:] += (parts[:, :3] >> 32).sum(axis=0)
    for c in range(3):
        state[c + 1] += state[c] >> 32
    state &= _MASK32
    high = state[3] << 32 | state[2]
    folded = (state[1] << 32 | state[0]) ^ high
    turn = high >> 58
    output = folded >> turn | folded << ((64 - turn) & 63)
    return ((output & _MASK32) >> 24).tolist()


def rules_for_attempts(seed: int, start: int, stop: int) -> list[int]:
    """Rules drawn by attempts ``start`` to ``stop - 1``, in order: entry i is
    ``rule_for_attempt(seed, start + i)``, computed for the whole range with
    array operations (see the module docstring)."""
    seed, start, stop = operator.index(seed), operator.index(start), operator.index(stop)
    _check_seed(seed)
    if start < 0 or stop < start:
        raise OutOfRange("attempt range [%d, %d) must not start below 0 or end before it starts" % (start, stop))
    pool = np.random.SeedSequence(seed).pool
    # the pool's 4 hashes and 12 pairwise mixes, then 4 per seed word past 4
    h = _POOL_INIT * pow(_POOL_MULT, 16 + 4 * max(0, _word_count(seed) - 4), 2**32) & _MASK32
    rules: list[int] = []
    while start < stop:
        words = _word_count(start)
        end = min(stop, start + _BLOCK, 2 ** (32 * words))
        indices = np.arange(start, end, dtype=np.uint64 if end <= 2**64 else object)
        rules += _draw_block(pool, h, indices, words)
        start = end
    return rules


def evaluate(rule: int, problem: Problem) -> float:
    """Bind the rule, run the problem's steps, and score the final state."""
    final = core.advance(ca.make_automaton(rule, problem.init), problem.steps).current
    return core.match(final, problem.target)


def score_table(problem: Problem) -> np.ndarray:
    """Scores of all 256 rules on ``problem``; entry r equals ``evaluate(r, problem)``.

    One run steps a (256, p) array of ``uint8`` cells, row r under rule r:
    each step forms every cell's neighbourhood code from its left, centre and
    right neighbours and reads that bit of the row's rule number.
    """
    rules = np.arange(ca.RULE_COUNT, dtype=np.uint8)[:, None]
    cells = np.repeat(problem.init.astype(np.uint8)[None, :], ca.RULE_COUNT, axis=0)
    for _ in range(problem.steps):
        # bit ``code`` of rule r is its output for that code
        cells = (rules >> ca.ring_codes(cells)) & 1
    # core.match's mean, row by row: a count of equal cells is exact in
    # float64, so each row's score is the same float as evaluate's.
    return np.mean(cells == problem.target, axis=1)


def random_search(
    problem: Problem,
    budget: int,
    seed: int,
    log: Callable[[Attempt], None] | None = None,
) -> SearchReport:
    """Draw up to ``budget`` rules at random, stopping at the first exact hit.

    Each draw's score is looked up in the problem's ``score_table``, built
    once per call, so no rule is run twice; ``evaluate`` stays the reference
    path that the table agrees with bit for bit. Rules come from
    ``rules_for_attempts`` in chunks of 64, 128, 256, ... attempts, cut at the
    budget, so the work and memory follow the attempts actually made.
    """
    if budget < 1:
        raise OutOfRange("attempt budget must be at least 1, got %d" % budget)
    _check_seed(seed)
    scores = score_table(problem).tolist()
    best_rule = -1
    best_score = -1.0
    start, size = 0, _FIRST_CHUNK
    while start < budget:
        stop = min(start + size, budget)
        for k, rule in enumerate(rules_for_attempts(seed, start, stop), start):
            score = scores[rule]
            if log is not None:
                log(Attempt(index=k + 1, rule=rule, score=score))
            if score > best_score:
                best_rule = rule
                best_score = score
            if score == 1.0:
                return SearchReport(solution=rule, attempts=k + 1, best_rule=rule, best_score=1.0)
        start, size = stop, 2 * size
    return SearchReport(solution=None, attempts=budget, best_rule=best_rule, best_score=best_score)


def exhaustive_search(problem: Problem) -> list[int]:
    """Score all 256 rules in order; return every rule that hits the target."""
    return np.flatnonzero(score_table(problem) == 1.0).tolist()
