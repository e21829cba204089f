"""Layered threshold perceptrons and single-pattern perceptron-rule training.

Entities form ``layers`` rows of ``width``. Row 0 holds the input pattern and
never updates; each unit in row l sums a bias plus weighted activations from
row l-1 and fires when the sum reaches the threshold. Weights are kept on a
9-decimal grid so a system survives a round trip through its text form
unchanged.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import core
from .errors import (
    BadDimensions,
    DimensionMismatch,
    NonFiniteInput,
    OutOfRange,
    UnsupportedKind,
)

THRESHOLD = 0.5
WEIGHT_DECIMALS = core.WEIGHT_DECIMALS


def quantize(values):
    """Snap weights to the 9-decimal grid used by the text form."""
    return np.round(values, WEIGHT_DECIMALS)


def threshold_activation(value: float) -> int:
    """1 when the input sum reaches the threshold, 0 below it."""
    if not math.isfinite(value):
        raise NonFiniteInput("input sum is not finite: %r" % value)
    return 1 if value >= THRESHOLD else 0


@dataclasses.dataclass
class ThresholdGate:
    """Update function for layered perceptrons: weighted sum, then threshold.

    The unit's input sum is its bias plus the weighted activations of the
    previous layer, accumulated in ascending entity order. That order is part
    of the contract: generated programs reproduce it term for term so both
    routes land on bit-identical activations.
    """

    bias: np.ndarray
    kind = "ann"

    __eq__ = core.fields_equal

    def __post_init__(self):
        self.bias = quantize(np.asarray(self.bias, dtype=np.float64))

    def propagate(self, system: core.MetastableSystem, active: np.ndarray) -> np.ndarray:
        schedule = system.schedule
        layer = int(active[0]) // schedule.width
        prev = system.current
        sums = self.bias[active].astype(np.float64, copy=True)
        lo = (layer - 1) * schedule.width
        for j in range(lo, lo + schedule.width):
            sums += system.milieu[active, j] * float(prev[j])
        return (sums >= THRESHOLD).astype(np.int64)


def make_network(layers: int, width: int, pattern, *, weights=None, bias=None, rng=None) -> core.MetastableSystem:
    """Bind a layered perceptron system around an input pattern.

    ``pattern`` fills row 0; every other entity starts at 0. Weights and
    biases are taken as given, or drawn uniformly from [-1, 1) with ``rng``
    (layer by layer, weights before bias), or left at zero.
    """
    if layers < 2:
        raise BadDimensions("need at least 2 layers, got %d" % layers)
    if width < 1:
        raise BadDimensions("need width of at least 1, got %d" % width)
    count = layers * width
    pattern_vec = core.parse_state_string(pattern) if isinstance(pattern, str) else np.asarray(pattern)
    if pattern_vec.size != width:
        raise DimensionMismatch(
            "input pattern has %d entries, expected width %d" % (pattern_vec.size, width)
        )
    init = np.zeros(count, dtype=np.int64)
    init[:width] = pattern_vec

    schedule = core.LayeredSweep(layers=layers, width=width)
    if weights is None and bias is None and rng is not None:
        weights = np.zeros((count, count), dtype=np.float64)
        bias = np.zeros(count, dtype=np.float64)
        for layer in range(1, layers):
            rows = schedule.slice_of(layer)
            cols = schedule.slice_of(layer - 1)
            weights[rows, cols] = rng.uniform(-1.0, 1.0, size=(width, width))
            bias[rows] = rng.uniform(-1.0, 1.0, size=width)
    if weights is None:
        weights = np.zeros((count, count), dtype=np.float64)
    if bias is None:
        bias = np.zeros(count, dtype=np.float64)

    structural = core.Structural(count=count, states=core.BINARY, init=init, current=init.copy())
    # modulate and ThresholdGate put weights and bias on the text form's grid
    operational = core.Operational(
        update=ThresholdGate(bias=bias),
        milieu=weights,
        schedule=schedule,
        fan_in=width + 1,
    )
    return core.modulate(structural, operational)


def forward(system: core.MetastableSystem) -> np.ndarray:
    """One full sweep from the initial state; returns the final full state."""
    fresh = dataclasses.replace(system, current=system.init.copy())
    return core.advance(fresh, system.schedule.layers - 1).current


@dataclasses.dataclass(frozen=True)
class TrainingConfig:
    """Knobs for single-pattern training.

    ``epochs`` caps pattern presentations; ``budget`` caps individual
    weight-vector corrections across the whole run. A rate of 0 is allowed
    and leaves weights untouched.
    """

    rate: float = 0.1
    epochs: int = 200
    budget: int = 100000

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise OutOfRange("learning rate must be finite and >= 0, got %r" % self.rate)
        if self.epochs < 1:
            raise OutOfRange("epoch cap must be at least 1, got %d" % self.epochs)
        if self.budget < 1:
            raise OutOfRange("correction budget must be at least 1, got %d" % self.budget)


@dataclasses.dataclass
class TrainingReport:
    """What a training run did and how close it got."""

    best_match: float
    best_epoch: int
    final_match: float
    epochs_run: int
    corrections: int
    exact: bool
    history: list[float]


def train(system: core.MetastableSystem, target, config: TrainingConfig | None = None) -> tuple[core.MetastableSystem, TrainingReport]:
    """Fit the output layer to ``target`` with the perceptron rule.

    Each epoch runs one full sweep, scores the output row against the target,
    and corrects every output unit whose activation disagrees: the unit's
    bias and incoming weights move by rate * (want - got) * input. Unit
    corrections stop once ``budget`` of them have been applied. Training ends
    early on an exact match.
    """
    if config is None:
        config = TrainingConfig()
    if system.kind != "ann":
        raise UnsupportedKind("training applies to layered perceptron systems")
    schedule = system.schedule
    target_vec = core.parse_state_string(target) if isinstance(target, str) else np.asarray(target)
    if target_vec.size != schedule.width:
        raise DimensionMismatch(
            "target has %d entries, expected width %d" % (target_vec.size, schedule.width)
        )

    weights = system.milieu.copy()
    bias = system.update.bias.copy()
    out_rows = schedule.slice_of(schedule.layers - 1)
    prev_rows = schedule.slice_of(schedule.layers - 2)

    best_match = -1.0
    best_epoch = 0
    final_match = 0.0
    corrections = 0
    exact = False
    history: list[float] = []
    epochs_run = 0

    current = system
    for epoch in range(1, config.epochs + 1):
        current = dataclasses.replace(current, milieu=weights, update=ThresholdGate(bias=bias))
        state = forward(current)
        output = state[out_rows]
        score = core.match(output, target_vec)
        history.append(score)
        epochs_run = epoch
        final_match = score
        if score > best_match:
            best_match = score
            best_epoch = epoch
        if score == 1.0:
            exact = True
            break
        prev = state[prev_rows].astype(np.float64)
        exhausted = False
        for j in range(schedule.width):
            want = int(target_vec[j])
            got = int(output[j])
            if want == got:
                continue
            if corrections >= config.budget:
                exhausted = True
                break
            g = out_rows.start + j
            delta = config.rate * float(want - got)
            bias[g] = quantize(bias[g] + delta)
            weights[g, prev_rows] = quantize(weights[g, prev_rows] + delta * prev)
            corrections += 1
        if exhausted:
            break

    trained = dataclasses.replace(current, milieu=weights, update=ThresholdGate(bias=bias))
    report = TrainingReport(
        best_match=best_match,
        best_epoch=best_epoch,
        final_match=final_match,
        epochs_run=epochs_run,
        corrections=corrections,
        exact=exact,
        history=history,
    )
    return trained, report
