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
from .errors import NonFiniteInput, OutOfRange, UnsupportedKind

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
        width = system.schedule.width
        prev = slice(int(active[0]) - width, int(active[0]))
        # columns [bias | w*x] summed strictly left to right: add.accumulate
        # is sequential where np.sum would pair terms up
        terms = np.empty((active.size, width + 1))
        terms[:, 0] = self.bias[active]
        # block l-1 holds the weights into layer l, and ``active`` is that layer in order
        np.multiply(system.wiring[prev.stop // width - 1], system.current[prev], out=terms[:, 1:])
        return (np.add.accumulate(terms, axis=1)[:, -1] >= THRESHOLD).astype(np.int64)


def make_network(layers: int, width: int, pattern, *, weights=None, bias=None, rng=None) -> core.MetastableSystem:
    """Bind a layered perceptron system around an input pattern.

    ``pattern`` fills row 0; every other entity starts at 0. ``weights`` are
    the (layers-1, width, width) blocks, block l-1 running from layer l-1
    into layer l. Weights and biases are taken as given, or drawn uniformly
    from [-1, 1) with ``rng`` (layer by layer, weights before bias), or left
    at zero.
    """
    schedule = core.LayeredSweep(layers=layers, width=width)  # checks both counts
    count = layers * width
    init = np.zeros(count, dtype=np.int64)
    init[:width] = core.state_vector(pattern, width, "input pattern")

    if weights is None and bias is None and rng is not None:
        # one stream of draws: each layer's weight block, then its bias row
        draws = rng.uniform(-1.0, 1.0, size=(layers - 1, width + 1, width))
        weights = draws[:, :width]
        bias = np.concatenate([np.zeros(width), draws[:, width].ravel()])
    if weights is None:
        weights = np.zeros((layers - 1, width, width))
    if bias is None:
        bias = np.zeros(count, dtype=np.float64)

    structural = core.Structural(init=init, current=init.copy())
    # modulate and ThresholdGate put weights and bias on the text form's grid
    operational = core.Operational(update=ThresholdGate(bias=bias), wiring=weights, schedule=schedule)
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
    target_vec = core.state_vector(target, schedule.width, "target")

    weights, gate = system.wiring.copy(), ThresholdGate(bias=system.update.bias)
    trained = dataclasses.replace(system, wiring=weights, update=gate)
    out_rows = schedule.slice_of(schedule.layers - 1)
    prev_rows = schedule.slice_of(schedule.layers - 2)

    corrections = 0
    history: list[float] = []
    for _ in range(config.epochs):
        state = forward(trained)
        output = state[out_rows]
        history.append(core.match(output, target_vec))
        if history[-1] == 1.0:
            break
        # every wrong output unit, in ascending order, as far as the budget goes
        wrong = np.flatnonzero(output != target_vec)
        fixed = wrong[: config.budget - corrections]
        g = out_rows.start + fixed
        delta = config.rate * (target_vec[fixed] - output[fixed]).astype(np.float64)
        gate.bias[g] = quantize(gate.bias[g] + delta)
        weights[-1, fixed] = quantize(weights[-1, fixed] + delta[:, None] * state[prev_rows])
        corrections += fixed.size
        if fixed.size < wrong.size:
            break

    report = TrainingReport(
        best_match=max(history),
        best_epoch=history.index(max(history)) + 1,
        final_match=history[-1],
        epochs_run=len(history),
        corrections=corrections,
        exact=history[-1] == 1.0,
        history=history,
    )
    return trained, report
