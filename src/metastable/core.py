"""Binding and stepping for entity populations under a shared update rule.

A system description has two halves. The structural half says what the
population is: its initial and current state vectors. The operational half
says how it evolves: the update function, the milieu wiring entities
together, and the schedule choosing who fires at each step. What follows
from these is read off a bound system, not given: its kind (the update's),
its entity count (the size of ``init``), its state alphabet (always
``BINARY``) and its fan-in. The milieu travels as ``wiring``,
in the form its kind steps through: ``None`` for a ring, whose neighbours
are ``ring_columns(count)``, and a net's (layers-1, width, width) weight
blocks, block l-1 running from layer l-1 into layer l.

``modulate`` binds the two halves into a runnable ``MetastableSystem`` after
checking every cross-field invariant. ``demodulate`` splits it back
into fresh copies of the halves. ``modulate(*demodulate(s)) == s``
holds for every bound system. ``step`` and ``run`` drive a bound system
forward in time.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import (
    BadCharacter,
    BadDimensions,
    DimensionMismatch,
    EmptyInput,
    NonFiniteInput,
    OutOfRange,
    StateDomainViolation,
    TooFewEntities,
    UnsupportedKind,
    UpdateDomainViolation,
)

BINARY = (0, 1)
WEIGHT_DECIMALS = 9


@runtime_checkable
class UpdateFunction(Protocol):
    """Anything that can produce new state values for a set of entities."""

    kind: str

    def propagate(self, system: "MetastableSystem", active: np.ndarray) -> np.ndarray:
        """Return new states for the entities listed in ``active``."""
        ...


@dataclasses.dataclass(frozen=True)
class Synchronous:
    """Every entity updates at every step."""

    def active(self, t: int, count: int) -> np.ndarray:
        return np.arange(count)


@dataclasses.dataclass(frozen=True)
class LayeredSweep:
    """Entities form ``layers`` rows of ``width``; one row updates per step.

    Row 0 is held fixed as input. Step t updates row ``(t % (layers-1)) + 1``,
    so ``layers - 1`` consecutive steps sweep the whole population once and
    the cycle then repeats.
    """

    layers: int
    width: int

    def __post_init__(self):
        if self.layers < 2:
            raise BadDimensions("need at least 2 layers, got %d" % self.layers)
        if self.width < 1:
            raise BadDimensions("need width of at least 1, got %d" % self.width)

    def layer_at(self, t: int) -> int:
        return (t % (self.layers - 1)) + 1

    def slice_of(self, layer: int) -> slice:
        return slice(layer * self.width, (layer + 1) * self.width)

    def active(self, t: int, count: int) -> np.ndarray:
        start = self.layer_at(t) * self.width
        return np.arange(start, start + self.width)


Schedule = Synchronous | LayeredSweep


def fields_equal(self, other):
    """``__eq__`` for dataclasses that hold arrays: same type, and every field
    equal, arrays compared by shape and value with ``np.array_equal``."""
    if type(other) is not type(self):
        return NotImplemented
    for field in dataclasses.fields(self):
        a, b = getattr(self, field.name), getattr(other, field.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


@dataclasses.dataclass
class Structural:
    """What the population is: its initial and current states, each a '0'/'1'
    string or an array; ``modulate`` reads both through ``state_vector``."""

    init: np.ndarray
    current: np.ndarray

    __eq__ = fields_equal


@dataclasses.dataclass
class Operational:
    """How the population evolves: rule, wiring, schedule."""

    update: UpdateFunction
    wiring: np.ndarray | None
    schedule: Schedule

    __eq__ = fields_equal


@dataclasses.dataclass
class MetastableSystem:
    """A bound, runnable system: both halves checked against each other.

    ``wiring`` is stored as ``Operational`` carries it; ``milieu`` rebuilds
    the dense (count, count) form."""

    update: UpdateFunction
    wiring: np.ndarray | None
    schedule: Schedule
    init: np.ndarray
    current: np.ndarray

    states = BINARY

    __eq__ = fields_equal

    @property
    def kind(self) -> str:
        return self.update.kind

    @property
    def count(self) -> int:
        return int(self.init.size)

    @property
    def fan_in(self) -> int:
        """Inputs per update: a cell and its two neighbours, or a unit's bias and previous layer."""
        return 3 if self.wiring is None else self.schedule.width + 1

    @property
    def milieu(self) -> np.ndarray:
        """The dense (count, count) milieu, built afresh on every access."""
        if self.wiring is None:
            return ring_milieu(self.count)
        dense, schedule = np.zeros((self.count, self.count)), self.schedule
        for layer in range(1, schedule.layers):
            dense[schedule.slice_of(layer), schedule.slice_of(layer - 1)] = self.wiring[layer - 1]
        return dense


def parse_state_string(text: str) -> np.ndarray:
    """Turn a string of '0' and '1' characters into a state vector."""
    if not text:
        raise EmptyInput("state string is empty")
    bad = set(text) - {"0", "1"}
    if bad:
        raise BadCharacter("state string may only contain 0 and 1, got %r" % sorted(bad)[0])
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("0")


def render_state(values: np.ndarray) -> str:
    """Turn a state vector back into a string of '0' and '1' characters."""
    return "".join("1" if v else "0" for v in values)


def match(a, b) -> float:
    """Fraction of positions where two equal-length state vectors agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch("cannot match shapes %s and %s" % (a.shape, b.shape))
    if a.size == 0:
        raise EmptyInput("cannot match empty vectors")
    return float(np.mean(a == b))


def _binary(vec: np.ndarray) -> bool:
    return not np.count_nonzero((vec != 0) & (vec != 1))


def state_vector(given, count: int | None = None, name: str = "state vector") -> np.ndarray:
    """A fresh int64 state vector from a '0'/'1' string or an array of 0s and 1s.

    It must be 1-D, with ``count`` cells when ``count`` is given. Values are
    checked before the cast, so a fractional state is not truncated."""
    vec = parse_state_string(given) if isinstance(given, str) else np.asarray(given)
    if vec.ndim != 1 or count is not None and vec.size != count:
        expected = "1-D" if count is None else "(%d,)" % count
        raise DimensionMismatch("%s has shape %s, expected %s" % (name, vec.shape, expected))
    if not _binary(vec):
        raise StateDomainViolation("%s contains values outside %s" % (name, BINARY))
    return vec.astype(np.int64)


def _check_layered(wiring: np.ndarray | None, bias: np.ndarray, schedule: LayeredSweep, count: int) -> np.ndarray:
    if schedule.layers * schedule.width != count:
        raise BadDimensions(
            "%d layers of width %d need %d entities, got %d"
            % (schedule.layers, schedule.width, schedule.layers * schedule.width, count)
        )
    if bias.shape != (count,):
        raise DimensionMismatch("bias has shape %s, expected (%d,)" % (bias.shape, count))
    if not np.isfinite(bias).all():
        raise NonFiniteInput("bias contains non-finite values")
    shape = (schedule.layers - 1, schedule.width, schedule.width)
    if np.shape(wiring) != shape:  # None has shape ()
        raise DimensionMismatch("wiring has shape %s, expected %s" % (np.shape(wiring), shape))
    # weights live on a 9-decimal grid so the text form is lossless
    blocks = np.round(np.asarray(wiring, dtype=np.float64), WEIGHT_DECIMALS)
    if not np.isfinite(blocks).all():
        raise NonFiniteInput("wiring contains non-finite values")
    if bias[: schedule.width].any():
        raise UnsupportedKind("input-layer entities cannot carry a bias")
    return blocks


def ring_columns(count: int) -> np.ndarray:
    """Each cell's neighbours in code order: row i is (i-1, i, i+1), wrapping."""
    cells = np.arange(count)
    return np.stack([(cells - 1) % count, cells, (cells + 1) % count], axis=1)


def ring_milieu(count: int) -> np.ndarray:
    """Adjacency of a ring: row i is nonzero at i-1, i, i+1 (wrapping)."""
    if count < 3:
        raise TooFewEntities("a ring needs at least 3 entities, got %d" % count)
    milieu = np.zeros((count, count), dtype=np.int64)
    np.put_along_axis(milieu, ring_columns(count), 1, axis=1)
    return milieu


def modulate(structural: Structural, operational: Operational) -> MetastableSystem:
    """Bind the two halves into a runnable system, checking every invariant."""
    init = state_vector(structural.init, name="init")
    count = init.size
    if count < 1:
        raise TooFewEntities("need at least one entity, got %d" % count)
    current = state_vector(structural.current, count, "current")

    update = operational.update
    kind = update.kind
    schedule = operational.schedule
    if kind == "ca":
        if not isinstance(schedule, Synchronous):
            raise UnsupportedKind("cell populations update synchronously")
        if count < 3:
            raise TooFewEntities("a ring needs at least 3 entities, got %d" % count)
        if operational.wiring is not None:
            raise UnsupportedKind("a ring's wiring is None: its neighbours are ring_columns(count)")
        wiring = None
    elif kind == "ann":
        if not isinstance(schedule, LayeredSweep):
            raise UnsupportedKind("perceptron populations update one layer per step")
        wiring = _check_layered(operational.wiring, update.bias, schedule, count)
    else:
        raise UnsupportedKind("unknown system kind %r" % kind)

    return MetastableSystem(update=update, wiring=wiring, schedule=schedule, init=init, current=current)


def demodulate(system: MetastableSystem) -> tuple[Structural, Operational]:
    """Split a bound system back into independent structural and operational halves."""
    structural = Structural(init=system.init.copy(), current=system.current.copy())
    wiring = None if system.wiring is None else system.wiring.copy()
    return structural, Operational(update=system.update, wiring=wiring, schedule=system.schedule)


def _next_state(system: MetastableSystem, t: int) -> np.ndarray:
    """One step's resulting state vector, freshly allocated."""
    count = system.count
    active = system.schedule.active(t, count)
    values = system.update.propagate(system, active)
    if not _binary(values):
        raise UpdateDomainViolation("update produced values outside %s" % (system.states,))
    if active.size == count:
        return values
    nxt = system.current.copy()
    nxt[active] = values
    return nxt


def step(system: MetastableSystem, t: int = 0) -> MetastableSystem:
    """Advance one step: scheduled entities update, the rest carry over."""
    return dataclasses.replace(system, current=_next_state(system, t))


def _walk(system: MetastableSystem, steps: int, t0: int, record: bool):
    """Take ``steps`` steps from ``t0``: the final system, and the
    (steps+1, count) trajectory when ``record`` is set (else None)."""
    if steps < 0:
        raise OutOfRange("step count must not be negative, got %d" % steps)
    out = None
    if record:
        out = np.empty((steps + 1, system.count), dtype=np.int64)
        out[0] = system.current
    work = dataclasses.replace(system)
    for t in range(steps):
        work.current = _next_state(work, t0 + t)
        if record:
            out[t + 1] = work.current
    return work, out


def run(system: MetastableSystem, steps: int, t0: int = 0) -> np.ndarray:
    """Record ``steps`` steps; returns a (steps+1, count) array starting at ``current``."""
    return _walk(system, steps, t0, record=True)[1]


def advance(system: MetastableSystem, steps: int, t0: int = 0) -> MetastableSystem:
    """Like ``run`` but returns only the final system, recording nothing."""
    return _walk(system, steps, t0, record=False)[0]
