"""Threshold gates, weight quantization, and perceptron-rule training."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, threshold_activation
from metastable import ann, autoprog, ca, core
from metastable.errors import (
    BadDimensions,
    DimensionMismatch,
    NonFiniteInput,
    OutOfRange,
    StateDomainViolation,
    UnsupportedKind,
)


# --- gate ------------------------------------------------------------------


def test_gate_fires_exactly_at_the_threshold():
    assert threshold_activation(0.5) == 1
    assert threshold_activation(0.4999999) == 0
    assert threshold_activation(12.0) == 1
    assert threshold_activation(-3.0) == 0
    assert threshold_activation(0.0) == 0


def test_gate_rejects_non_finite_sums():
    with pytest.raises(NonFiniteInput):
        threshold_activation(float("nan"))
    with pytest.raises(NonFiniteInput):
        threshold_activation(float("inf"))


def test_boundary_inside_a_running_system():
    # one input at 1, weight 0.25, bias 0.25: the sum sits exactly on 0.5
    system = ann.make_network(
        2, 1, "1", weights=_edge(2, 1, {(1, 0): 0.25}), bias=[0.0, 0.25]
    )
    assert core.step(system).current[1] == 1
    # a hair below stays off
    system = ann.make_network(
        2, 1, "1", weights=_edge(2, 1, {(1, 0): 0.25}), bias=[0.0, 0.249999999]
    )
    assert core.step(system).current[1] == 0


def _order_sensitive_net():
    """Two units whose gate flips with the order of their input sum.

    All 16 inputs are on. Unit 16 sums 0.5 + 1e16 + 1 - 1e16: 0.0 in
    ascending order, 0.5 with the bias added last. Unit 17 sums 0.5 + 1e16,
    fourteen 1s, then -1e16: 0.0 in order, but np.sum's pairwise blocks keep
    the 1s apart from 1e16 and give 14.0.
    """
    weights = np.zeros((1, 16, 16))  # units 16 and 17 are rows 0 and 1 of block 0
    weights[0, 0, :3] = [1e16, 1.0, -1e16]
    weights[0, 1, :16] = [1e16] + [1.0] * 14 + [-1e16]
    bias = np.zeros(32)
    bias[16:18] = 0.5
    return ann.make_network(2, 16, "1" * 16, weights=weights, bias=bias)


@pytest.mark.parametrize(
    "backend",
    [
        "python",
        pytest.param(
            "c",
            marks=pytest.mark.skipif(
                not autoprog.toolchain_available("c"), reason="no C toolchain"
            ),
        ),
    ],
)
def test_gate_sums_in_ascending_order(backend):
    net = _order_sensitive_net()
    # the two units do flip under the other orders
    assert net.update.bias[16] + net.milieu[16, :16] @ net.current[:16] >= 0.5
    assert np.sum(np.concatenate([[0.5], net.milieu[17, :16]])) >= 0.5
    for unit in (16, 17):
        total = net.update.bias[unit]
        for weight in net.milieu[unit, :16]:
            total += weight
        assert total < 0.5
    assert not core.step(net).current[16:].any()
    assert not ann.forward(net)[16:].any()
    doc = autoprog.Document(system=net, steps=1)
    source = autoprog.generate(doc, backend)
    toolchain = autoprog.default_toolchain(backend)
    out = autoprog.compile_and_run(source, toolchain, autoprog.BACKENDS[backend]["suffix"])
    assert out.splitlines()[-1] == "1" * 16 + "0" * 16


def _edge(layers, width, entries):
    """Weight blocks from ``{(unit, input): weight}``, the input one layer below the unit."""
    w = np.zeros((layers - 1, width, width))
    for (i, j), value in entries.items():
        assert j // width == i // width - 1
        w[j // width, i % width, j % width] = value
    return w


# --- quantization ----------------------------------------------------------


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_quantized_weights_survive_text_form(x):
    q = float(core.quantize(x))
    assert float("%.9f" % q) == q
    assert float(core.quantize(q)) == q  # idempotent


def test_quantize_rejects_finite_weights_beyond_the_grid():
    assert np.array_equal(core.quantize([1.7e299, -1.7e299]), [1.7e299, -1.7e299])
    for big in (1.8e299, -1.8e299, 1e300, np.finfo(np.float64).max):
        with pytest.raises(OutOfRange):
            core.quantize([0.5, big])
    # NaN and infinities pass through for the caller's NonFiniteInput check
    q = core.quantize([np.nan, np.inf, -np.inf])
    assert np.isnan(q[0]) and q[1] == np.inf and q[2] == -np.inf


# --- construction ----------------------------------------------------------


def test_make_network_layout():
    rng = make_rng(0)
    system = ann.make_network(3, 4, "1010", rng=rng)
    assert system.count == 12
    assert system.kind == "ann"
    assert system.fan_in == 5
    assert core.render_state(system.init[:4]) == "1010"
    assert not system.init[4:].any()
    # no bias and no incoming weights on the input layer
    assert not system.update.bias[:4].any()
    assert not system.milieu[:4].any()
    # weights connect consecutive layers only
    assert not system.milieu[4:8, 4:].any()
    assert not system.milieu[8:, :4].any()
    assert not system.milieu[8:, 8:].any()


def test_make_network_draw_order_is_pinned():
    """Per layer: the weight block is drawn first, then the bias row."""
    seed = 99
    system = ann.make_network(3, 2, "10", rng=make_rng(seed))
    rng = make_rng(seed)
    w1 = core.quantize(rng.uniform(-1.0, 1.0, size=(2, 2)))
    b1 = core.quantize(rng.uniform(-1.0, 1.0, size=2))
    w2 = core.quantize(rng.uniform(-1.0, 1.0, size=(2, 2)))
    b2 = core.quantize(rng.uniform(-1.0, 1.0, size=2))
    assert np.array_equal(system.milieu[2:4, 0:2], w1)
    assert np.array_equal(system.update.bias[2:4], b1)
    assert np.array_equal(system.milieu[4:6, 2:4], w2)
    assert np.array_equal(system.update.bias[4:6], b2)


def test_make_network_rejects_bad_dimensions():
    with pytest.raises(BadDimensions):
        ann.make_network(1, 3, "101")
    with pytest.raises(BadDimensions):
        ann.make_network(3, 0, "")
    with pytest.raises(DimensionMismatch):
        ann.make_network(2, 3, "10")
    with pytest.raises(DimensionMismatch):
        ann.make_network(2, 2, np.array([[0], [1]]))


@pytest.mark.parametrize("layers, width", [(100_000, 1000), (3_000_000, 16), (2, 8193)])
def test_make_network_refuses_a_net_past_the_weight_cap_before_sizing_it(layers, width):
    # 746 GiB, 6.08 GiB, and one 8193 x 8193 block just past the cap; one 8192 x 8192 block is at it
    core.check_layers(2, 8192)
    assert (layers - 1) * width * width > core.MAX_WEIGHTS
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="more than %d" % core.MAX_WEIGHTS):
            ann.make_network(layers, width, "0" * width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_make_network_rejects_a_fractional_pattern():
    with pytest.raises(StateDomainViolation):
        ann.make_network(2, 2, np.array([0.5, 1.0]))
    assert ann.make_network(2, 2, np.array([0.0, 1.0])) == ann.make_network(2, 2, "01")


def test_make_network_rejects_finite_weights_beyond_the_grid():
    for big in (1e300, -1e300):
        with pytest.raises(OutOfRange):
            ann.make_network(2, 2, "10", weights=np.full((1, 2, 2), big))
        with pytest.raises(OutOfRange):
            ann.make_network(2, 2, "10", bias=[0.0, 0.0, big, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteInput):
            ann.make_network(2, 2, "10", weights=np.full((1, 2, 2), bad))
    system = ann.make_network(2, 2, "10", weights=np.full((1, 2, 2), -1.7e299), bias=[0, 0, 1.7e299, 0])
    assert system.wiring[0, 0, 0] == -1.7e299 and system.update.bias[2] == 1.7e299


def test_forward_pass_hand_check():
    # 2 layers, width 2, input "10":
    # unit 2 reads 0.5*1 + 0.5*0 + bias 0.0 = 0.5 -> fires
    # unit 3 reads 0.4*1 + 0.0*0 + bias 0.0 = 0.4 -> stays off
    weights = _edge(2, 2, {(2, 0): 0.5, (2, 1): 0.5, (3, 0): 0.4})
    system = ann.make_network(2, 2, "10", weights=weights)
    state = ann.forward(system)
    assert core.render_state(state) == "1010"


def test_full_sweep_carries_layers_forward():
    # identity weights layer to layer: the pattern should reach the far end
    layers, width = 4, 3
    weights = np.zeros((layers - 1, width, width))
    bias = np.zeros(12)
    for layer in range(1, layers):
        for j in range(width):
            weights[layer - 1, j, j] = 1.0
    system = ann.make_network(layers, width, "101", weights=weights, bias=bias)
    state = ann.forward(system)
    assert core.render_state(state) == "101101101101"


# --- training config -------------------------------------------------------


def test_training_config_defaults_and_validation():
    config = ann.TrainingConfig()
    assert config.rate == 0.1
    assert config.epochs == 200
    assert config.budget == 100000
    ann.TrainingConfig(rate=0.0)  # a frozen rate is allowed
    with pytest.raises(OutOfRange):
        ann.TrainingConfig(rate=-0.1)
    with pytest.raises(OutOfRange):
        ann.TrainingConfig(rate=float("nan"))
    with pytest.raises(OutOfRange):
        ann.TrainingConfig(epochs=0)
    with pytest.raises(OutOfRange):
        ann.TrainingConfig(budget=0)


# --- training --------------------------------------------------------------


def test_correct_outputs_are_left_alone():
    """No correction happens where the output already agrees."""
    system = ann.make_network(2, 2, "10", rng=make_rng(1))
    output = ann.forward(system)[2:]
    trained, report = ann.train(system, output, ann.TrainingConfig(epochs=5))
    assert report.exact
    assert report.epochs_run == 1
    assert report.corrections == 0
    assert trained == system


def test_zero_rate_never_changes_weights():
    system = ann.make_network(2, 3, "101", rng=make_rng(2))
    config = ann.TrainingConfig(rate=0.0, epochs=4)
    trained, report = ann.train(system, "010", config)
    assert np.array_equal(trained.milieu, system.milieu)
    assert np.array_equal(trained.update.bias, system.update.bias)
    assert len(set(report.history)) == 1  # score cannot move


def test_budget_caps_unit_corrections():
    # zero weights keep every output at 0, so all four units want correcting
    system = ann.make_network(2, 4, "1111")
    config = ann.TrainingConfig(rate=0.001, epochs=50, budget=3)
    _, report = ann.train(system, "1111", config)
    assert report.corrections == 3
    assert not report.exact


def test_single_correction_moves_weights_by_the_rule():
    # craft a net whose sole output unit is off while the target wants 1
    weights = _edge(2, 2, {(2, 0): 0.1, (2, 1): 0.1})
    system = ann.make_network(2, 2, "11", weights=weights, bias=[0, 0, 0.1, 0])
    config = ann.TrainingConfig(rate=0.05, epochs=1, budget=10)
    trained, report = ann.train(system, "10", config)
    # unit 2: want 1, got 0, both inputs active -> every term grows by 0.05
    assert trained.update.bias[2] == pytest.approx(0.15)
    assert trained.milieu[2, 0] == pytest.approx(0.15)
    assert trained.milieu[2, 1] == pytest.approx(0.15)
    # unit 3: want 0, got 0 -> untouched
    assert trained.milieu[3, 0] == 0.0
    assert report.corrections == 1


def test_training_converges_to_exact_on_one_pattern():
    system = ann.make_network(3, 4, "1010", rng=make_rng(5))
    trained, report = ann.train(system, "0110")
    assert report.exact
    assert report.best_match == 1.0
    assert core.render_state(ann.forward(trained)[8:]) == "0110"
    # the trained system still passes every binding invariant
    assert core.modulate(*core.demodulate(trained)) == trained


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        system = ann.make_network(3, 4, "1010", rng=make_rng(11))
        runs.append(ann.train(system, "0111"))
    (sys_a, rep_a), (sys_b, rep_b) = runs
    assert rep_a == rep_b
    assert sys_a == sys_b


def test_train_rejects_wrong_inputs():
    system = ann.make_network(2, 2, "10")
    with pytest.raises(DimensionMismatch):
        ann.train(system, "101")
    with pytest.raises(StateDomainViolation):
        ann.train(system, np.array([0.5, 1.0]))
    with pytest.raises(UnsupportedKind):
        ann.train(ca.make_automaton(110, "010"), "010")


def test_train_rejects_a_correction_beyond_the_grid():
    system = ann.make_network(3, 4, "1010", rng=make_rng(1))
    with pytest.raises(OutOfRange):
        ann.train(system, "0110", ann.TrainingConfig(rate=1e300))


# --- pinned runs -----------------------------------------------------------


def _pinned_network():
    rng = make_rng(21)
    pattern = rng.integers(0, 2, size=48)
    target = rng.integers(0, 2, size=48)
    return ann.make_network(20, 48, pattern, rng=rng), target


@pytest.mark.parametrize(
    "budget, matched, corrections, digest",
    [
        (100000, [22, 39, 45, 47, 48], 39, "5f5ec265c467745559e91e07d8eb73b7676b839190b407c5bd8dff951e2b9a1e"),
        # 26 + 9 corrections, then the third epoch has 3 wrong units and 1 left
        (36, [22, 39, 45], 36, "4e52aebfef16a77a1cda4686f1cea13a8e3ff1b18d44edc30df73a70b461b7bb"),
    ],
)
def test_training_is_pinned_bit_for_bit(budget, matched, corrections, digest):
    net, target = _pinned_network()
    trained, report = ann.train(net, target, ann.TrainingConfig(budget=budget))
    assert report.history == [m / 48 for m in matched]
    assert report.corrections == corrections
    assert report.epochs_run == report.best_epoch == len(matched)
    assert report.exact == (matched[-1] == 48)
    data = trained.milieu.tobytes() + trained.update.bias.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_best_epoch_is_the_first_at_the_best_score():
    system = ann.make_network(2, 3, "101", rng=make_rng(2))
    _, report = ann.train(system, "010", ann.TrainingConfig(rate=0.0, epochs=3))
    assert report.epochs_run == 3
    assert report.best_epoch == 1
    assert report.final_match == report.best_match == report.history[0]
