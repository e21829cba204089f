"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ``metastable``: each function restates a documented
contract of the package in its own code, so a fault in the package cannot
hide by agreeing with itself.

* Ring cellular automata: cell i's next state is bit ``4*l + 2*c + r`` of the
  rule number, where l, c and r are cells i-1, i and i+1, wrapping at the ends.
* Threshold nets: a unit's input sum is its bias plus the weighted
  activations of the previous layer, added in ascending entity order; the
  gate fires when the sum is at least 0.5.
* Random search: attempt k (0-based) under seed s draws
  ``Generator(PCG64(SeedSequence(s, spawn_key=(k,)))).integers(0, 256)``.
"""

from __future__ import annotations

import numpy as np

RULES = 256
THRESHOLD = 0.5


# --- ring cellular automata --------------------------------------------------


def ring_step(cells: np.ndarray, rules: np.ndarray) -> np.ndarray:
    """One synchronous step of every row of ``cells`` under its row's rule.

    ``cells`` is (rows, p) of 0/1 and ``rules`` is (rows, 1) of rule numbers,
    both ``uint8``: every code and rule fits in a byte.
    """
    left = np.roll(cells, 1, axis=1)
    right = np.roll(cells, -1, axis=1)
    code = 4 * left + 2 * cells + right
    return (rules >> code) & 1


def ring_trajectory(init, rule: int, steps: int) -> np.ndarray:
    """States 0..steps of one ring under one rule: a (steps+1, p) array."""
    cells = np.asarray(init, dtype=np.uint8)[None, :]
    rules = np.array([[rule]], dtype=np.uint8)
    rows = [cells[0]]
    for _ in range(steps):
        cells = ring_step(cells, rules)
        rows.append(cells[0])
    return np.array(rows, dtype=np.int64)


def final_states(init, steps: int) -> np.ndarray:
    """Row r is the state rule r reaches from ``init`` after ``steps`` steps."""
    cells = np.repeat(np.asarray(init, dtype=np.uint8)[None, :], RULES, axis=0)
    rules = np.arange(RULES, dtype=np.uint8)[:, None]
    for _ in range(steps):
        cells = ring_step(cells, rules)
    return cells


def scores(finals: np.ndarray, target) -> list[float]:
    """For each row of ``finals``, the share of its cells equal to ``target``."""
    equal = (finals == np.asarray(target, dtype=np.uint8)[None, :]).sum(axis=1)
    return [int(n) / finals.shape[1] for n in equal]


# --- random-search draws ------------------------------------------------------


def draw(seed: int, k: int) -> int:
    """The rule attempt ``k`` (0-based) draws under ``seed``."""
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
    return int(stream.integers(0, RULES))


# --- threshold nets -----------------------------------------------------------


def gate(total: float) -> int:
    """The unit fires when its input sum reaches the threshold."""
    return 1 if total >= THRESHOLD else 0


def unit_sum(bias: float, weights: list[float], inputs: list[int]) -> float:
    """Bias plus the weighted inputs, added one by one in ascending order."""
    total = bias
    for w, x in zip(weights, inputs):
        total += w * x
    return total


def net_trajectory(layers: int, width: int, weights: np.ndarray, bias: np.ndarray, init, steps: int) -> list[list[int]]:
    """States 0..steps of a layered net that updates one layer per step.

    ``weights`` is the dense (count, count) matrix, of which only the blocks
    from layer l-1 into layer l are read; step t updates layer
    ``t % (layers - 1) + 1`` from the layer below it.
    """
    state = [int(v) for v in np.asarray(init)]
    rows = [list(state)]
    for t in range(steps):
        layer = t % (layers - 1) + 1
        lo, hi = layer * width, (layer + 1) * width
        inputs = state[lo - width : lo]
        block = weights[lo:hi, lo - width : lo].tolist()
        unit_bias = bias[lo:hi].tolist()
        state[lo:hi] = [gate(unit_sum(b, w, inputs)) for b, w in zip(unit_bias, block)]
        rows.append(list(state))
    return rows


def net_output(layers: int, width: int, weights: np.ndarray, bias: np.ndarray, pattern) -> list[int]:
    """The output layer after one full sweep from ``pattern`` (all other units at 0)."""
    init = np.zeros(layers * width, dtype=np.int64)
    init[:width] = np.asarray(pattern)
    return net_trajectory(layers, width, weights, bias, init, layers - 1)[-1][-width:]


def render(rows) -> str:
    """A trajectory as text: one line of 0/1 characters per state."""
    return "".join("".join("1" if v else "0" for v in row) + "\n" for row in rows)
