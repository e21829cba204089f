"""Cellular automata on a ring: each cell reads its two neighbours and itself.

A rule is its number, 0 to 255, packed the usual way: bit b of the number
is the output for the neighbourhood code b = ``4*left + 2*center + right``,
and ``bits`` lists those eight outputs in code order.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np

from . import core
from .errors import OutOfRange

RULE_COUNT = 256


@dataclasses.dataclass(frozen=True)
class RuleTable:
    """Update function for a ring of cells: a rule number read as an 8-entry bit table."""

    number: int
    kind = "ca"

    def __post_init__(self):
        if not (isinstance(self.number, numbers.Integral) and 0 <= self.number < RULE_COUNT):
            raise OutOfRange("rule number must be an integer in [0, 255], got %r" % (self.number,))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.number >> code) & 1 for code in range(8))

    def propagate(self, system: core.MetastableSystem, active: slice) -> np.ndarray:
        return ((self.number >> ring_codes(system.current[None])[0]) & 1)[active]


def ring_codes(rings: np.ndarray) -> np.ndarray:
    """Code ``4*left + 2*centre + right`` of every cell of a (rows, p) array of rings."""
    # wrapped one cell past both ends, so left, centre and right are three views
    ring = np.concatenate([rings[:, -1:], rings, rings[:, :1]], axis=1)
    return 4 * ring[:, :-2] + 2 * ring[:, 1:-1] + ring[:, 2:]


def make_automaton(rule, init) -> core.MetastableSystem:
    """Bind a rule (a ``RuleTable`` or its number) and an initial state into a ring system."""
    table = rule if isinstance(rule, RuleTable) else RuleTable(rule)
    structural = core.Structural(init=init, current=init)
    operational = core.Operational(update=table, wiring=None)
    return core.modulate(structural, operational)  # modulate reads and copies both vectors
