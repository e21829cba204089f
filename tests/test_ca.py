"""Ring automata: rule tables, the reference trajectory, and symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INIT, RULE_110_BITS, STEP1, STEPS, TARGET
from metastable import ca, core
from metastable.errors import OutOfRange, StateDomainViolation


def test_table_number_round_trip():
    for n in range(256):
        assert sum(bit << code for code, bit in enumerate(ca.RuleTable(n).bits)) == n


def test_rule_110_table_is_pinned():
    assert ca.RuleTable(110).bits == RULE_110_BITS


def test_table_lookup_uses_the_packed_bit_convention():
    table = ca.RuleTable(110)
    # neighbourhood (left, center, right) -> bit 4*l + 2*c + r of the number
    assert table(0, 0, 0) == 0
    assert table(0, 0, 1) == 1
    assert table(0, 1, 1) == 1
    assert table(1, 1, 0) == 1
    assert table(1, 1, 1) == 0


def test_table_rejects_bad_input():
    with pytest.raises(OutOfRange):
        ca.RuleTable(256)
    with pytest.raises(OutOfRange):
        ca.RuleTable(-1)
    for number in (3.5, "30", None):  # not an integer: typed at once, not at the first step
        with pytest.raises(OutOfRange):
            ca.make_automaton(number, "0110")
    assert ca.RuleTable(np.int64(30)).bits == ca.RuleTable(30).bits
    with pytest.raises(StateDomainViolation):
        ca.RuleTable(110)(0, 2, 0)


def test_ring_system_milieu_shape():
    m = ca.make_automaton(110, "00100").milieu
    expected = np.array(
        [
            [1, 1, 0, 0, 1],
            [1, 1, 1, 0, 0],
            [0, 1, 1, 1, 0],
            [0, 0, 1, 1, 1],
            [1, 0, 0, 1, 1],
        ]
    )
    assert np.array_equal(m, expected)


def test_reference_trajectory_is_reproduced_exactly():
    rows = core.run(ca.make_automaton(110, INIT), STEPS)
    assert core.render_state(rows[0]) == INIT
    assert core.render_state(rows[1]) == STEP1
    assert core.render_state(rows[-1]) == TARGET


def test_identity_rule_keeps_any_state():
    # the table that maps every neighbourhood to its own center is rule 204
    identity = ca.RuleTable(204)
    assert identity.bits == tuple((code >> 1) & 1 for code in range(8))
    rows = core.run(ca.make_automaton(204, INIT), 7)
    for row in rows:
        assert core.render_state(row) == INIT


def test_null_rule_clears_everything():
    rows = core.run(ca.make_automaton(0, INIT), STEPS)
    assert not rows[1].any()
    assert not rows[-1].any()
    # agreement with the reference target is exactly the target's zero count
    score = core.match(rows[-1], core.state_vector(TARGET))
    assert score == pytest.approx(20 / 31)


@given(
    st.integers(0, 255),
    st.text(alphabet="01", min_size=3, max_size=24),
    st.integers(0, 23),
    st.integers(1, 8),
)
@settings(max_examples=40)
def test_shift_equivariance(rule, init, shift, steps):
    """Rotating the ring then running equals running then rotating."""
    base = core.state_vector(init)
    rolled = np.roll(base, shift)
    a = core.run(ca.make_automaton(rule, rolled), steps)
    b = core.run(ca.make_automaton(rule, base), steps)
    assert np.array_equal(a, np.roll(b, shift, axis=1))


@given(st.integers(0, 255), st.text(alphabet="01", min_size=3, max_size=24))
@settings(max_examples=40)
def test_propagation_respects_the_ring(rule, init):
    """A cell's next state depends only on its three-cell neighbourhood."""
    table = ca.RuleTable(rule)
    cells = core.state_vector(init)
    stepped = core.step(ca.make_automaton(table, cells)).current
    n = cells.size
    for i in range(n):
        want = table(int(cells[(i - 1) % n]), int(cells[i]), int(cells[(i + 1) % n]))
        assert stepped[i] == want
