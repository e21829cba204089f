"""Shared fixtures, frozen reference values and oracles for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from metastable.errors import NonFiniteInput, StateDomainViolation

# 31-cell reference problem: a single live cell maps to the target below
# after 15 steps under rule 110. Both strings and the step count are pinned.
INIT = "0000000000000001000000000000000"
TARGET = "1101011001111101000000000000000"
STEPS = 15

# First step of the reference trajectory: the live cell grows one to the left.
STEP1 = "0000000000000011000000000000000"

RULE_110_BITS = (0, 1, 1, 1, 0, 1, 1, 0)

# every line boundary str.splitlines knows but "\n"; "\r\n" is one break
LINE_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.fixture
def reference_problem():
    from metastable import search

    return search.Problem(INIT, TARGET, STEPS)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# --- document mutations: a model document's lines as token lists, edited ---

MUTATION_TOKENS = st.sampled_from(
    [
        "0", "1", "-1", "2", "3", "7", "1000000", "99999999999", "1e400", "1e300",
        "nan", "inf", "row", "0:", "9:", "3=0.5", "0=nan", "bias", "p", "init",
        "steps", "target", "010", "layered", "synchronous", "milieu:", "update:",
    ]
) | st.text(alphabet="01-=:.e9x #", max_size=6)

# each edit sets or inserts a token, or drops or copies a line, at positions taken modulo the sizes
DOCUMENT_EDITS = st.lists(
    st.tuples(st.sampled_from(("set", "insert", "drop", "copy")), st.integers(0, 99), st.integers(0, 99), MUTATION_TOKENS),
    min_size=1,
    max_size=4,
)


def mutate(text: str, edits) -> str:
    """``text`` after ``edits`` from ``DOCUMENT_EDITS``."""
    lines = [line.split() for line in text.splitlines()]
    for op, at, pos, token in edits:
        if not lines:
            break
        line = lines[at % len(lines)]
        if op == "set":
            line[pos % len(line)] = token
        elif op == "insert":
            line.insert(pos % (len(line) + 1), token)
        elif op == "drop":
            lines.remove(line)
        else:
            lines.insert(at % len(lines), list(line))
    return "\n".join(" ".join(line) for line in lines)


# --- oracles: one cell or one unit at a time, for checking the vector steps ---


def rule_lookup(table, left: int, center: int, right: int) -> int:
    """One cell's next state under a ``RuleTable``: its bit for code ``4*left + 2*center + right``."""
    for v in (left, center, right):
        if v not in (0, 1):
            raise StateDomainViolation("cell states must be 0 or 1, got %r" % (v,))
    return table.bits[4 * left + 2 * center + right]


def threshold_activation(value: float) -> int:
    """One unit's gate: 1 when its input sum reaches 0.5, 0 below it."""
    if not math.isfinite(value):
        raise NonFiniteInput("input sum is not finite: %r" % value)
    return 1 if value >= 0.5 else 0
