"""Shared fixtures, frozen reference values and oracles for the test suite."""

import math

import numpy as np
import pytest

from metastable.errors import NonFiniteInput, StateDomainViolation

# 31-cell reference problem: a single live cell maps to the target below
# after 15 steps under rule 110. Both strings and the step count are pinned.
INIT = "0000000000000001000000000000000"
TARGET = "1101011001111101000000000000000"
STEPS = 15

# First step of the reference trajectory: the live cell grows one to the left.
STEP1 = "0000000000000011000000000000000"

RULE_110_BITS = (0, 1, 1, 1, 0, 1, 1, 0)


@pytest.fixture
def reference_problem():
    from metastable import search

    return search.Problem(INIT, TARGET, STEPS)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


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
