"""Binding, partitioning, schedules, and the generic step loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INIT, make_rng, rule_lookup, threshold_activation
from metastable import ann, ca, core
from metastable.errors import (
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

bit = st.integers(min_value=0, max_value=1)


def binary_vectors(min_size=1, max_size=48):
    return st.lists(bit, min_size=min_size, max_size=max_size).map(
        lambda v: np.array(v, dtype=np.int64)
    )


def binary_strings(min_size=3, max_size=48):
    return st.text(alphabet="01", min_size=min_size, max_size=max_size)


# --- match -----------------------------------------------------------------


@given(st.integers(1, 48).flatmap(lambda n: st.tuples(binary_vectors(n, n), binary_vectors(n, n))))
def test_match_axioms(pair):
    a, b = pair
    score = core.match(a, b)
    assert 0.0 <= score <= 1.0
    assert score == core.match(b, a)
    assert core.match(a, a) == 1.0
    assert score == np.count_nonzero(a == b) / a.size


def test_match_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        core.match([0, 1], [0, 1, 1])


def test_match_rejects_empty():
    with pytest.raises(EmptyInput):
        core.match([], [])


# --- state strings ---------------------------------------------------------


@given(binary_strings())
def test_state_string_round_trip(text):
    assert core.render_state(core.state_vector(text)) == text


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300))
def test_render_state_writes_each_cell_by_its_truth(values):
    values = np.array(values, dtype=np.int64)
    assert core.render_state(values) == "".join("1" if x else "0" for x in values)


def test_state_vector_rejects_bad_characters():
    with pytest.raises(BadCharacter):
        core.state_vector("0102")


@pytest.mark.parametrize(
    "given, error, message",
    [
        ("0120", BadCharacter, "got '2' at cell 2"),
        ([0, 1, 2, 1], StateDomainViolation, "has 2 at cell 2, outside (0, 1)"),
        (np.array([1.0, 0.0, 1.0, 0.5]), StateDomainViolation, "has 0.5 at cell 3, outside (0, 1)"),
    ],
)
def test_state_errors_name_the_first_bad_cell(given, error, message):
    with pytest.raises(error) as caught:
        core.state_vector(given)
    assert message in str(caught.value)


def test_state_vector_rejects_empty_strings():
    with pytest.raises(EmptyInput):
        core.state_vector("")


# --- the active range of a step --------------------------------------------


def test_synchronous_covers_everyone():
    ring = ca.make_automaton(110, "01011")
    assert [core.active(ring, t) for t in range(7)] == [slice(0, 5)] * 7
    assert core.active(ring, 17) == slice(0, 5)


def test_layered_sweep_cycles_over_non_input_layers():
    net = ann.make_network(4, 3, "101")
    layer = [slice(3 * i, 3 * (i + 1)) for i in range(4)]
    assert [core.active(net, t) for t in range(7)] == [layer[i] for i in (1, 2, 3, 1, 2, 3, 1)]
    assert core.active(net, 0) == slice(3, 6)
    assert core.active(net, 2) == slice(9, 12)


def test_layered_sweep_rejects_bad_dimensions():
    with pytest.raises(BadDimensions):
        ann.make_network(1, 3, "101")
    with pytest.raises(BadDimensions):
        ann.make_network(3, 0, "")


# --- modulate / demodulate -------------------------------------------------


@given(st.integers(0, 255), binary_strings(min_size=3, max_size=24))
def test_ca_partition_round_trip(rule, init):
    system = ca.make_automaton(rule, init)
    structural, operational = core.demodulate(system)
    rebound = core.modulate(structural, operational)
    assert rebound == system
    # the halves themselves survive another split
    s2, o2 = core.demodulate(rebound)
    assert s2 == structural
    assert o2 == operational


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4))
@settings(max_examples=25)
def test_ann_partition_round_trip(seed, layers, width):
    rng = make_rng(seed)
    pattern = rng.integers(0, 2, size=width)
    system = ann.make_network(layers, width, pattern, rng=rng)
    rebound = core.modulate(*core.demodulate(system))
    assert rebound == system


def test_a_bound_system_reads_off_what_its_halves_imply():
    ring = ca.make_automaton(110, "01011")
    net = ann.make_network(3, 4, "1010")
    assert (ring.kind, ring.count, ring.fan_in, ring.states) == ("ca", 5, 3, (0, 1))
    assert (net.kind, net.count, net.fan_in, net.states) == ("ann", 12, 5, (0, 1))
    names = {cls: tuple(f.name for f in dataclasses.fields(cls))
             for cls in (core.Structural, core.Operational, core.MetastableSystem)}
    assert names == {
        core.Structural: ("init", "current"),
        core.Operational: ("update", "wiring"),
        core.MetastableSystem: ("update", "wiring", "init", "current"),
    }
    assert ring.width == 5
    assert net.width == 4


def test_milieu_is_a_fresh_dense_copy_of_the_stored_wiring():
    ring = ca.make_automaton(110, "01011")
    net = ann.make_network(3, 2, "10", rng=make_rng(3))
    assert ring.wiring is None and net.wiring.shape == (2, 2, 2)
    for system, dtype in ((ring, np.int64), (net, np.float64)):
        first, second = system.milieu, system.milieu
        assert first.dtype == dtype and first.shape == (system.count, system.count)
        assert first is not second and np.array_equal(first, second)
        assert first.flags.writeable
        first[:] = 7
        assert np.array_equal(system.milieu, second)
        assert core.modulate(*core.demodulate(system)) == system
    assert np.array_equal(net.milieu[2:4, 0:2], net.wiring[0])
    assert np.array_equal(net.milieu[4:6, 2:4], net.wiring[1])


def test_binding_a_wide_net_makes_no_count_by_count_array():
    # 40 layers of 100: a dense milieu would be 128 MB, the stored weights are 3.1 MB
    net = ann.make_network(40, 100, make_rng(5).integers(0, 2, size=100), rng=make_rng(6))
    structural, operational = core.demodulate(net)
    tracemalloc.start()
    try:
        rebound = core.modulate(structural, operational)
        bind_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ann.train(rebound, "01" * 50, ann.TrainingConfig(epochs=2))
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebound == net
    assert bind_peak < 16 << 20
    assert train_peak < 16 << 20


def test_binding_a_wide_ring_makes_no_count_by_count_array():
    # 100,000 cells: a dense (count, count) int64 milieu alone would be 80 GB
    init = make_rng(7).integers(0, 2, size=100_000)
    tracemalloc.start()
    try:
        ring = ca.make_automaton(30, init)
        rows = core.run(ring, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert rows.shape == (11, 100_000)
    assert np.array_equal(rows[0], init)
    # each step reads a cell and its two neighbours, wrapping at both ends
    left, right = np.roll(rows[:-1], 1, axis=1), np.roll(rows[:-1], -1, axis=1)
    assert np.array_equal(rows[1:], left ^ (rows[:-1] | right))  # rule 30


def test_demodulate_returns_independent_copies():
    system = ca.make_automaton(110, "010")
    structural, operational = core.demodulate(system)
    structural.init[0] = 1
    assert system.init[0] == 0
    assert operational.wiring is None
    net = ann.make_network(2, 2, "10", rng=make_rng(1))
    _, operational = core.demodulate(net)
    operational.wiring[0, 0, 0] = 0
    assert net.wiring[0, 0, 0] != 0


def test_modulate_rejects_state_vector_shape_and_domain():
    system = ca.make_automaton(110, "0101")
    structural, operational = core.demodulate(system)
    structural.init = np.array([0, 1, 0])
    with pytest.raises(DimensionMismatch):
        core.modulate(structural, operational)
    structural.init = np.array([0, 1, 2, 0])
    with pytest.raises(StateDomainViolation):
        core.modulate(structural, operational)


def test_modulate_rejects_fractional_states_before_casting():
    with pytest.raises(StateDomainViolation):
        ca.make_automaton(110, np.array([0.5, 1.0, 0.0, 1.7]))
    structural, operational = core.demodulate(ca.make_automaton(110, "0101"))
    structural.current = np.array([0.0, 1.0, 0.0, 0.5])
    with pytest.raises(StateDomainViolation):
        core.modulate(structural, operational)
    # whole floats are states
    structural.current = np.array([0.0, 1.0, 1.0, 0.0])
    rebound = core.modulate(structural, operational)
    assert rebound.current.dtype == np.int64
    assert core.render_state(rebound.current) == "0110"
    assert ca.make_automaton(110, np.array([0.0, 1.0, 0.0, 1.0])) == ca.make_automaton(110, "0101")


def test_modulate_rejects_wrong_milieu_shape():
    # a net's wiring is its (layers-1, width, width) blocks, nothing else
    system = ann.make_network(3, 2, "10")
    structural, operational = core.demodulate(system)
    for wiring in (np.ones((2, 2, 3)), np.ones((3, 2, 2)), system.milieu, None):
        operational.wiring = wiring
        with pytest.raises(DimensionMismatch):
            core.modulate(structural, operational)


def test_modulate_rejects_broken_ring():
    # a ring's neighbours are ring_columns(count): any wiring given is not its ring
    system = ca.make_automaton(110, "01011")
    structural, operational = core.demodulate(system)
    for wiring in (system.milieu, core.ring_columns(5), np.zeros(0)):
        operational.wiring = wiring
        with pytest.raises(UnsupportedKind):
            core.modulate(structural, operational)


def test_modulate_rejects_tiny_ring():
    with pytest.raises(TooFewEntities):
        ca.make_automaton(110, "01")


def test_modulate_rejects_layer_count_mismatch():
    # two blocks of width 2 make 3 layers of 2: 6 entities, not 4
    structural = core.Structural(
        init=np.zeros(4, dtype=np.int64),
        current=np.zeros(4, dtype=np.int64),
    )
    operational = core.Operational(update=ann.ThresholdGate(bias=np.zeros(4)), wiring=np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        core.modulate(structural, operational)


def test_modulate_rejects_a_net_wiring_with_no_blocks_or_no_width():
    structural = core.Structural(init="1000", current="1000")
    for wiring in (np.zeros((0, 2, 2)), np.zeros((0, 4, 4)), np.zeros((3, 0, 0))):
        operational = core.Operational(update=ann.ThresholdGate(bias=np.zeros(4)), wiring=wiring)
        with pytest.raises(BadDimensions):
            core.modulate(structural, operational)


def test_modulate_rejects_input_layer_bias():
    system = ann.make_network(3, 2, "10")
    structural, operational = core.demodulate(system)
    operational.update = ann.ThresholdGate(bias=np.array([0.5, 0, 0, 0, 0, 0]))
    with pytest.raises(UnsupportedKind):
        core.modulate(structural, operational)


def test_modulate_rejects_non_finite_weights():
    system = ann.make_network(3, 2, "10")
    structural, operational = core.demodulate(system)
    operational.wiring[0, 0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        core.modulate(structural, operational)
    for bad in (np.nan, np.inf, -np.inf):
        operational.wiring = system.wiring.copy()
        operational.wiring[1, 0, 0] = bad
        with pytest.raises(NonFiniteInput):
            core.modulate(structural, operational)


def test_modulate_quantizes_weights_to_the_text_grid():
    system = ann.make_network(2, 2, "10")
    structural, operational = core.demodulate(system)
    operational.wiring[0, 0, 0] = 0.1234567894
    rebound = core.modulate(structural, operational)
    assert rebound.milieu[2, 0] == 0.123456789
    # a weight 1e-12 off the grid rounds back onto it
    system = ann.make_network(3, 2, "10", rng=make_rng(2))
    structural, operational = core.demodulate(system)
    operational.wiring[1, 0, 0] = system.wiring[1, 0, 0] + 1e-12
    assert core.modulate(structural, operational) == system


# --- step / run ------------------------------------------------------------


def test_run_zero_steps_is_just_the_current_state():
    system = ca.make_automaton(110, "01101")
    rows = core.run(system, 0)
    assert rows.shape == (1, 5)
    assert np.array_equal(rows[0], system.current)


def test_run_rejects_negative_steps():
    system = ca.make_automaton(110, "01101")
    with pytest.raises(OutOfRange):
        core.run(system, -1)
    with pytest.raises(OutOfRange):
        core.advance(system, -2)


@pytest.mark.parametrize("steps", [2.5, 2.0, "3", None])
def test_the_walk_rejects_a_step_count_that_is_not_an_integer(steps):
    system = ca.make_automaton(110, "01101")
    for drive in (core.run, core.advance, core.walk):
        with pytest.raises(OutOfRange):
            drive(system, steps)
    assert core.run(system, np.int64(2)).shape == (3, 5)


def test_walk_checks_its_step_count_at_the_call_and_then_yields_one_state_at_a_time():
    system = ca.make_automaton(110, "00100")
    with pytest.raises(OutOfRange):
        core.walk(system, -1)  # raised before the first next()
    states = core.walk(system, 10**12)
    assert [core.render_state(next(states)) for _ in range(4)] == ["00100", "01100", "11100", "10101"]
    assert core.render_state(system.current) == "00100"
    net = ann.make_network(3, 2, "10", rng=make_rng(5))
    assert np.array_equal(np.array(list(core.walk(net, 5))), core.run(net, 5))


@given(st.integers(0, 255), binary_strings(min_size=3, max_size=16), st.integers(0, 6))
@settings(max_examples=40)
def test_run_equals_step_composition(rule, init, steps):
    system = ca.make_automaton(rule, init)
    rows = core.run(system, steps)
    s = system
    for t in range(steps):
        s = core.step(s, t)
        assert np.array_equal(rows[t + 1], s.current)
    assert np.array_equal(core.advance(system, steps).current, rows[-1])


def test_step_leaves_the_original_system_alone():
    system = ca.make_automaton(110, "00100")
    before = system.current.copy()
    core.step(system)
    core.run(system, 4)
    assert np.array_equal(system.current, before)


@given(st.integers(0, 255), binary_strings(min_size=3, max_size=16))
@settings(max_examples=40)
def test_synchronous_update_is_order_independent(rule, init):
    """Computing cells one at a time, in any order, matches the vector step."""
    system = ca.make_automaton(rule, init)
    stepped = core.step(system).current
    table = ca.RuleTable(rule)
    frozen = system.current.copy()
    n = frozen.size
    order = np.random.default_rng(int(init, 2)).permutation(n)
    manual = np.zeros(n, dtype=np.int64)
    for i in order:
        manual[i] = rule_lookup(table, int(frozen[(i - 1) % n]), int(frozen[i]), int(frozen[(i + 1) % n]))
    assert np.array_equal(manual, stepped)


def test_layer_update_is_order_independent():
    """Units of one layer can be evaluated in any order with equal results."""
    rng = make_rng(3)
    system = ann.make_network(2, 5, "10110", rng=rng)
    stepped = core.step(system).current
    width = system.width
    out = np.zeros(5, dtype=np.int64)
    for j in reversed(range(5)):  # deliberately backwards
        g = width + j
        s = float(system.update.bias[g])
        for i in range(width):
            s += float(system.milieu[g, i]) * float(system.current[i])
        out[j] = threshold_activation(s)
    assert np.array_equal(out, stepped[width : 2 * width])


def test_step_rejects_update_outside_the_state_set():
    class Broken:
        kind = "ca"

        def propagate(self, system, active):
            return np.full(active.stop - active.start, 7, dtype=np.int64)

    system = ca.make_automaton(110, "010")
    bad = dataclasses.replace(system, update=Broken())
    with pytest.raises(UpdateDomainViolation):
        core.step(bad)


def test_an_update_outside_the_state_set_names_its_step_and_first_bad_cell():
    class WrongAtStepOne:
        """Keeps every active entity as it is, but at step 1 puts 7 and 5 in its second and third."""

        def __init__(self, kind):
            self.kind, self.calls = kind, 0

        def propagate(self, system, active):
            values = system.current[active].copy()
            if self.calls == 1:
                values[1:3] = (7, 5)
            self.calls += 1
            return values

    ring = ca.make_automaton(110, "01011")
    with pytest.raises(UpdateDomainViolation, match=r"^step 1: update produced 7 at cell 1, outside \(0, 1\)$"):
        core.run(dataclasses.replace(ring, update=WrongAtStepOne("ca")), 3)
    # step 1 of a 4-layer net of width 3 updates layer 2, cells 6 to 8
    net = ann.make_network(4, 3, "101", rng=np.random.default_rng(0))
    with pytest.raises(UpdateDomainViolation, match=r"^step 1: update produced 7 at cell 7, outside \(0, 1\)$"):
        core.run(dataclasses.replace(net, update=WrongAtStepOne("ann")), 3)


def test_trajectories_are_deterministic():
    a = core.run(ca.make_automaton(110, INIT), 15)
    b = core.run(ca.make_automaton(110, INIT), 15)
    assert np.array_equal(a, b)
