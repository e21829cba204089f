"""Binding and stepping for entity populations under a shared update rule.

A system description has two halves. The structural half says what the
population is: its initial and current state vectors. The operational half
says how it evolves: the update function and the milieu wiring entities
together. What follows from these is read off a bound system, not given:
its kind (the update's), its entity count (the size of ``init``), its state
alphabet (always ``BINARY``), its fan-in and its ``width``: a ring is one
layer of all its cells, a net ``count // width`` layers. The milieu travels
as ``wiring``, in the form its kind steps through: ``None`` for a ring, whose
neighbours are ``ring_columns(count)``, and a net's (layers-1, width, width)
weight blocks, block l-1 running from layer l-1 into layer l.

``modulate`` binds the two halves into a runnable ``MetastableSystem`` after
checking every cross-field invariant. ``demodulate`` splits it back into
fresh copies of the halves; ``modulate(*demodulate(s)) == s`` holds for every
bound system. ``active(system, t)`` is the ``[lo, hi)`` slice of entities
that fires at step t. ``step``, ``walk`` (one state at a time), ``run`` and
``advance`` drive a bound system forward in time.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Iterator, Protocol

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
MAX_WEIGHTS = 2**26  # 512 MiB of float64 weight blocks


class UpdateFunction(Protocol):
    """Anything that can produce new state values for a set of entities."""

    kind: str

    def propagate(self, system: "MetastableSystem", active: slice) -> np.ndarray:
        """Return new states for the entities in ``active``, a ``[lo, hi)`` slice."""
        ...


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
    """How the population evolves: rule and wiring."""

    update: UpdateFunction
    wiring: np.ndarray | None

    __eq__ = fields_equal


@dataclasses.dataclass
class MetastableSystem:
    """A bound, runnable system: both halves checked against each other.

    ``wiring`` is stored as ``Operational`` carries it; ``milieu`` rebuilds
    the dense (count, count) form."""

    update: UpdateFunction
    wiring: np.ndarray | None
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
        return 3 if self.wiring is None else self.width + 1

    @property
    def width(self) -> int:
        """Entities per layer: all of a ring's cells, or the side of a net's square weight blocks."""
        return self.count if self.wiring is None else self.wiring.shape[1]

    @property
    def milieu(self) -> np.ndarray:
        """The dense (count, count) milieu, built afresh on every access."""
        if self.wiring is None:
            dense = np.zeros((self.count, self.count), dtype=np.int64)
            np.put_along_axis(dense, ring_columns(self.count), 1, axis=1)
            return dense
        dense, w = np.zeros((self.count, self.count)), self.width
        for layer, block in enumerate(self.wiring, 1):
            dense[layer * w : (layer + 1) * w, (layer - 1) * w : layer * w] = block
        return dense


def render_state(values: np.ndarray) -> str:
    """Turn a state vector back into a string of '0' and '1' characters."""
    return (np.asarray(values, dtype=bool).view(np.uint8) + ord("0")).tobytes().decode("ascii")


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
    if isinstance(given, str):
        if not given:
            raise EmptyInput("state string is empty")
        if given.strip("01"):
            cell = len(given) - len(given.lstrip("01"))
            raise BadCharacter("state string may only contain 0 and 1, got %r at cell %d" % (given[cell], cell))
        given = np.frombuffer(given.encode("ascii"), dtype=np.uint8) - ord("0")
    vec = np.asarray(given)
    if vec.ndim != 1 or count is not None and vec.size != count:
        expected = "1-D" if count is None else "(%d,)" % count
        raise DimensionMismatch("%s has shape %s, expected %s" % (name, vec.shape, expected))
    if not _binary(vec):
        cell = np.flatnonzero((vec != 0) & (vec != 1))[0]
        raise StateDomainViolation("%s has %r at cell %d, outside %s" % (name, vec[cell].item(), cell, BINARY))
    return vec.astype(np.int64)


def quantize(values) -> np.ndarray:
    """Snap weights to the 9-decimal grid, on which the text form is lossless.

    NaN and infinities pass through. A finite weight too large to scale onto
    the grid raises ``OutOfRange``; only such a weight overflows the scaling."""
    try:
        with np.errstate(over="raise"):
            return np.round(np.asarray(values, dtype=np.float64), WEIGHT_DECIMALS)
    except FloatingPointError:
        limit = np.finfo(np.float64).max / 10**WEIGHT_DECIMALS
        raise OutOfRange("a weight beyond %.6g in magnitude does not fit the 9-decimal grid" % limit) from None


def check_layers(layers: int, width: int, count: int | None = None) -> None:
    """Raise ``BadDimensions`` unless a net has an input layer and one more, each of one unit or more,
    ``DimensionMismatch`` unless its layers make ``count`` entities, when that is given, and
    ``OutOfRange`` if its weight blocks would hold more than ``MAX_WEIGHTS`` weights."""
    if layers < 2:
        raise BadDimensions("need at least 2 layers, got %d" % layers)
    if width < 1:
        raise BadDimensions("need width of at least 1, got %d" % width)
    if count is not None and layers * width != count:
        raise DimensionMismatch(
            "wiring has shape %s: %d layers of width %d make %d entities, not %d"
            % ((layers - 1, width, width), layers, width, layers * width, count)
        )
    weights = (layers - 1) * width * width
    if weights > MAX_WEIGHTS:
        raise OutOfRange("%d layers of width %d need %d weights, more than %d" % (layers, width, weights, MAX_WEIGHTS))


def check_steps(steps) -> None:
    """Raise ``OutOfRange`` unless ``steps`` is an integer of at least 0."""
    if not isinstance(steps, numbers.Integral):
        raise OutOfRange("step count must be an integer, got %r" % (steps,))
    if steps < 0:
        raise OutOfRange("step count must not be negative, got %d" % steps)


def _check_layered(wiring: np.ndarray | None, bias: np.ndarray, count: int) -> np.ndarray:
    shape = np.shape(wiring)  # None has shape ()
    if len(shape) != 3 or shape[1] != shape[2]:
        raise DimensionMismatch("wiring has shape %s, expected (layers-1, width, width)" % (shape,))
    width = shape[1]
    check_layers(shape[0] + 1, width, count)
    if bias.shape != (count,):
        raise DimensionMismatch("bias has shape %s, expected (%d,)" % (bias.shape, count))
    if not np.isfinite(bias).all():
        raise NonFiniteInput("bias contains non-finite values")
    blocks = quantize(wiring)
    if not np.isfinite(blocks).all():
        raise NonFiniteInput("wiring contains non-finite values")
    if bias[:width].any():
        raise UnsupportedKind("input-layer entities cannot carry a bias")
    return blocks


def ring_columns(count: int) -> np.ndarray:
    """Each cell's neighbours in code order: row i is (i-1, i, i+1), wrapping."""
    cells = np.arange(count)
    return np.stack([(cells - 1) % count, cells, (cells + 1) % count], axis=1)


def modulate(structural: Structural, operational: Operational) -> MetastableSystem:
    """Bind the two halves into a runnable system, checking every invariant."""
    init = state_vector(structural.init, name="init")
    count = init.size
    if count < 1:
        raise TooFewEntities("need at least one entity, got %d" % count)
    current = state_vector(structural.current, count, "current")

    update = operational.update
    kind = update.kind
    if kind == "ca":
        if count < 3:
            raise TooFewEntities("a ring needs at least 3 entities, got %d" % count)
        if operational.wiring is not None:
            raise UnsupportedKind("a ring's wiring is None: its neighbours are ring_columns(count)")
        wiring = None
    elif kind == "ann":
        wiring = _check_layered(operational.wiring, update.bias, count)
    else:
        raise UnsupportedKind("unknown system kind %r" % kind)

    return MetastableSystem(update=update, wiring=wiring, init=init, current=current)


def demodulate(system: MetastableSystem) -> tuple[Structural, Operational]:
    """Split a bound system back into independent structural and operational halves."""
    structural = Structural(init=system.init.copy(), current=system.current.copy())
    wiring = None if system.wiring is None else system.wiring.copy()
    return structural, Operational(update=system.update, wiring=wiring)


def active(system: MetastableSystem, t: int) -> slice:
    """The entities ``[lo, hi)`` that update at step t: all of a ring, or net layer ``t % (layers-1) + 1``,
    so ``layers - 1`` steps sweep a net once with its input layer held fixed, and the cycle repeats."""
    width = system.width
    if system.wiring is None:
        return slice(0, width)
    lo = (t % len(system.wiring) + 1) * width
    return slice(lo, lo + width)


def _next_state(system: MetastableSystem, t: int) -> np.ndarray:
    """The state vector after step t's active entities update, freshly allocated."""
    cells = active(system, t)
    values = system.update.propagate(system, cells)
    if not _binary(values):
        k = np.flatnonzero((values != 0) & (values != 1))[0]
        message = "step %d: update produced %r at cell %d, outside %s"
        raise UpdateDomainViolation(message % (t, values[k].item(), cells.start + k, system.states))
    nxt = system.current.copy()
    nxt[cells] = values
    return nxt


def step(system: MetastableSystem, t: int = 0) -> MetastableSystem:
    """Advance one step: the active entities update, the rest carry over."""
    return dataclasses.replace(system, current=_next_state(system, t))


def walk(system: MetastableSystem, steps: int) -> Iterator[np.ndarray]:
    """Yield ``current``, then a fresh state vector after each of ``steps`` steps from t = 0.
    ``steps`` is checked at the call, before anything is yielded; ``system`` is left as it is."""
    check_steps(steps)
    work = dataclasses.replace(system)

    def states():
        yield work.current
        for t in range(steps):
            work.current = _next_state(work, t)
            yield work.current

    return states()


def run(system: MetastableSystem, steps: int) -> np.ndarray:
    """Record ``steps`` steps; returns a (steps+1, count) array starting at ``current``."""
    states = walk(system, steps)  # checks ``steps`` before the array is sized
    out = np.empty((steps + 1, system.count), dtype=np.int64)
    for t, state in enumerate(states):
        out[t] = state
    return out


def advance(system: MetastableSystem, steps: int) -> MetastableSystem:
    """Like ``run`` but returns only the final system, recording nothing."""
    for state in walk(system, steps):
        pass
    return dataclasses.replace(system, current=state)
