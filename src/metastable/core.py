"""Binding and stepping for entity populations under a shared update rule.

A system description has two halves. The structural half says what the
population is: entity count, state alphabet, initial and current state
vectors. The operational half says how it evolves: the update function, the
milieu matrix wiring entities together, the schedule choosing who fires at
each step, and the update function's fan-in.

``modulate`` binds the two halves into a runnable ``MetastableSystem`` after
checking every cross-field invariant, and ``demodulate`` splits a bound
system back into fresh copies of the halves. ``modulate(*demodulate(s)) == s``
holds for every bound system. ``step`` and ``run`` drive a bound system
forward in time.
"""

from __future__ import annotations

import dataclasses
import functools
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
    """What the population is: size, alphabet, initial and current states."""

    count: int
    states: tuple[int, ...]
    init: np.ndarray
    current: np.ndarray

    __eq__ = fields_equal


@dataclasses.dataclass
class Operational:
    """How the population evolves: rule, wiring, schedule, fan-in."""

    update: UpdateFunction
    milieu: np.ndarray
    schedule: Schedule
    fan_in: int

    __eq__ = fields_equal


@dataclasses.dataclass
class MetastableSystem:
    """A bound, runnable system: both halves checked against each other."""

    kind: str
    states: tuple[int, ...]
    update: UpdateFunction
    milieu: np.ndarray
    schedule: Schedule
    init: np.ndarray
    current: np.ndarray
    fan_in: int

    __eq__ = fields_equal

    @property
    def count(self) -> int:
        return int(self.init.size)


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
    return bool(((vec == 0) | (vec == 1)).all())


def _check_states(name: str, vec: np.ndarray, count: int, states: tuple[int, ...]):
    if vec.shape != (count,):
        raise DimensionMismatch("%s has shape %s, expected (%d,)" % (name, vec.shape, count))
    if not _binary(vec):
        raise StateDomainViolation("%s contains values outside %s" % (name, states))


def _check_ring(milieu: np.ndarray, count: int):
    if count < 3:
        raise TooFewEntities("a ring needs at least 3 entities, got %d" % count)
    if not np.array_equal(milieu, _ring_cached(count)):
        raise UnsupportedKind("milieu is not the 0/1 ring each cell needs")


def _check_layered(milieu: np.ndarray, bias: np.ndarray, schedule: LayeredSweep, count: int):
    if schedule.layers * schedule.width != count:
        raise BadDimensions(
            "%d layers of width %d need %d entities, got %d"
            % (schedule.layers, schedule.width, schedule.layers * schedule.width, count)
        )
    if bias.shape != (count,):
        raise DimensionMismatch("bias has shape %s, expected (%d,)" % (bias.shape, count))
    if not np.isfinite(bias).all():
        raise NonFiniteInput("bias contains non-finite values")
    if not np.isfinite(milieu).all():
        raise NonFiniteInput("milieu contains non-finite values")
    w = schedule.width
    if bias[:w].any():
        raise UnsupportedKind("input-layer entities cannot carry a bias")
    # Edges may only run from layer l-1 into layer l: every nonzero weight
    # lies in one of those (disjoint) blocks.
    in_blocks = sum(
        np.count_nonzero(milieu[schedule.slice_of(layer), schedule.slice_of(layer - 1)])
        for layer in range(1, schedule.layers)
    )
    if np.count_nonzero(milieu) != in_blocks:
        raise UnsupportedKind("weights must connect consecutive layers only")


def ring_columns(count: int) -> np.ndarray:
    """Each cell's neighbours in code order: row i is (i-1, i, i+1), wrapping."""
    cells = np.arange(count)
    return np.stack([(cells - 1) % count, cells, (cells + 1) % count], axis=1)


@functools.lru_cache(maxsize=64)
def _ring_cached(count: int) -> np.ndarray:
    m = np.zeros((count, count), dtype=np.int64)
    np.put_along_axis(m, ring_columns(count), 1, axis=1)
    m.setflags(write=False)
    return m


def ring_milieu(count: int) -> np.ndarray:
    """Adjacency of a ring: row i is nonzero at i-1, i, i+1 (wrapping)."""
    if count < 3:
        raise TooFewEntities("a ring needs at least 3 entities, got %d" % count)
    return _ring_cached(count).copy()


def modulate(structural: Structural, operational: Operational) -> MetastableSystem:
    """Bind the two halves into a runnable system, checking every invariant."""
    if tuple(structural.states) != BINARY:
        raise UnsupportedKind("only the binary state alphabet (0, 1) is supported")
    count = structural.count
    if count < 1:
        raise TooFewEntities("need at least one entity, got %d" % count)

    init = np.asarray(structural.init, dtype=np.int64).copy()
    current = np.asarray(structural.current, dtype=np.int64).copy()
    _check_states("init", init, count, BINARY)
    _check_states("current", current, count, BINARY)

    # each kind's astype below copies, so the bound system never shares this array
    milieu = np.asarray(operational.milieu)
    if milieu.shape != (count, count):
        raise DimensionMismatch(
            "milieu has shape %s, expected (%d, %d)" % (milieu.shape, count, count)
        )

    update = operational.update
    kind = update.kind
    schedule = operational.schedule
    if kind == "ca":
        if not isinstance(schedule, Synchronous):
            raise UnsupportedKind("cell populations update synchronously")
        _check_ring(milieu, count)
        milieu = milieu.astype(np.int64)
        expected_fan_in = 3
    elif kind == "ann":
        if not isinstance(schedule, LayeredSweep):
            raise UnsupportedKind("perceptron populations update one layer per step")
        # Weights live on a 9-decimal grid so the text form is lossless.
        milieu = milieu.astype(np.float64)
        np.round(milieu, WEIGHT_DECIMALS, out=milieu)
        _check_layered(milieu, update.bias, schedule, count)
        expected_fan_in = schedule.width + 1
    else:
        raise UnsupportedKind("unknown system kind %r" % kind)

    if operational.fan_in != expected_fan_in:
        raise DimensionMismatch(
            "fan-in %d does not fit this system, expected %d"
            % (operational.fan_in, expected_fan_in)
        )

    return MetastableSystem(
        kind=kind,
        states=BINARY,
        update=update,
        milieu=milieu,
        schedule=schedule,
        init=init,
        current=current,
        fan_in=operational.fan_in,
    )


def demodulate(system: MetastableSystem) -> tuple[Structural, Operational]:
    """Split a bound system back into independent structural and operational halves."""
    structural = Structural(
        count=system.count,
        states=system.states,
        init=system.init.copy(),
        current=system.current.copy(),
    )
    operational = Operational(
        update=system.update,
        milieu=system.milieu.copy(),
        schedule=system.schedule,
        fan_in=system.fan_in,
    )
    return structural, operational


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
