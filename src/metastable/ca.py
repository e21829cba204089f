"""Cellular automata on a ring: each cell reads its two neighbours and itself.

A rule is an 8-entry lookup table indexed by the neighbourhood code
``4*left + 2*center + right``; the table is packed into a single byte the
usual way, with bit b of the rule number giving the output for code b.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import core
from .errors import OutOfRange, StateDomainViolation

RULE_COUNT = 256


@dataclasses.dataclass(frozen=True)
class RuleTable:
    """Update function for a ring of cells, driven by an 8-entry bit table."""

    bits: tuple[int, ...]
    kind = "ca"

    def __post_init__(self):
        if len(self.bits) != 8:
            raise OutOfRange("a rule table needs exactly 8 entries, got %d" % len(self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise StateDomainViolation("rule table entries must be 0 or 1")
        object.__setattr__(self, "_table", np.asarray(self.bits, dtype=np.int64))

    @classmethod
    def from_number(cls, number: int) -> "RuleTable":
        if not 0 <= number < RULE_COUNT:
            raise OutOfRange("rule number must be in [0, 255], got %d" % number)
        return cls(tuple((number >> code) & 1 for code in range(8)))

    @property
    def number(self) -> int:
        return sum(bit << code for code, bit in enumerate(self.bits))

    def __call__(self, left: int, center: int, right: int) -> int:
        for v in (left, center, right):
            if v not in (0, 1):
                raise StateDomainViolation("cell states must be 0 or 1, got %r" % (v,))
        return self.bits[4 * left + 2 * center + right]

    def propagate(self, system: core.MetastableSystem, active: np.ndarray) -> np.ndarray:
        full = self._table[ring_codes(system.current[None])[0]]
        return full if active.size == system.count else full[active]


def ring_codes(rings: np.ndarray) -> np.ndarray:
    """Code ``4*left + 2*centre + right`` of every cell of a (rows, p) array of rings."""
    # wrapped one cell past both ends, so left, centre and right are three views
    ring = np.concatenate([rings[:, -1:], rings, rings[:, :1]], axis=1)
    return 4 * ring[:, :-2] + 2 * ring[:, 1:-1] + ring[:, 2:]


def make_automaton(rule, init, current=None) -> core.MetastableSystem:
    """Bind a rule and an initial state string (or vector) into a ring system."""
    table = rule if isinstance(rule, RuleTable) else RuleTable.from_number(rule)
    structural = core.Structural(init=init, current=init if current is None else current)
    operational = core.Operational(update=table, wiring=None, schedule=core.Synchronous())
    return core.modulate(structural, operational)  # modulate reads and copies both vectors
