"""Pin the benchmark's references to hand-worked cases.

    python3 -m pytest -q perfbench
"""

import importlib.util
import math
import os
import subprocess
import sys

import numpy as np

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _conftest():
    spec = importlib.util.spec_from_file_location("package_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells(text):
    return [int(c) for c in text]


def test_references_do_not_import_the_package():
    code = "import sys; sys.path.insert(0, %r); import reference; print('metastable' in sys.modules)" % (
        os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_rule_110_takes_the_reference_problem_to_its_target():
    conf = _conftest()
    rows = reference.ring_trajectory(_cells(conf.INIT), 110, conf.STEPS)
    assert rows[1].tolist() == _cells(conf.STEP1)
    assert rows[-1].tolist() == _cells(conf.TARGET)
    scores = reference.scores(reference.final_states(_cells(conf.INIT), conf.STEPS), _cells(conf.TARGET))
    assert [r for r, s in enumerate(scores) if s == 1.0] == [110]


def test_rule_90_from_one_live_cell_is_pascals_triangle_mod_2():
    steps = 20
    p = 2 * steps + 3
    centre = p // 2
    init = [0] * p
    init[centre] = 1
    rows = reference.ring_trajectory(init, 90, steps)
    for t, row in enumerate(rows):
        want = [0] * p
        for i in range(t + 1):
            want[centre - t + 2 * i] = math.comb(t, i) % 2
        assert row.tolist() == want, t


def test_the_ring_wraps_at_both_ends():
    # rule 170 copies the right neighbour, so the pattern moves one cell left
    rows = reference.ring_trajectory([1, 0, 0, 0, 1, 1], 170, 1)
    assert rows[1].tolist() == [0, 0, 0, 1, 1, 1]
    # rule 240 copies the left neighbour, so it moves one cell right
    rows = reference.ring_trajectory([1, 0, 0, 0, 1, 1], 240, 1)
    assert rows[1].tolist() == [1, 1, 0, 0, 0, 1]


def test_rule_scores_count_equal_cells():
    scores = reference.scores(reference.final_states([0, 1, 0, 1], 1), [0, 0, 0, 0])
    assert scores[0] == 1.0  # rule 0 clears every cell
    assert scores[255] == 0.0  # rule 255 sets every cell
    assert scores[204] == 0.5  # rule 204 keeps every cell


def test_the_gate_fires_at_exactly_one_half():
    assert reference.gate(0.5) == 1
    assert reference.gate(np.nextafter(0.5, 0.0)) == 0
    assert reference.gate(-3.0) == 0


def test_unit_sum_adds_in_ascending_order():
    # (0 + 1e16) + 1 rounds the 1 away before -1e16 cancels the big term
    assert reference.unit_sum(0.0, [1e16, 1.0, -1e16], [1, 1, 1]) == 0.0
    assert reference.unit_sum(0.25, [0.5, 0.125], [1, 0]) == 0.75


def test_net_output_by_hand():
    # 2 layers of width 2: unit 2 = 0.1 + 0.3*x0 + 0.2*x1, unit 3 = -0.6 + 1.0*x1
    weights = np.zeros((4, 4))
    weights[2, 0:2] = [0.3, 0.2]
    weights[3, 0:2] = [0.0, 1.0]
    bias = np.array([0.0, 0.0, 0.1, -0.6])
    assert reference.net_output(2, 2, weights, bias, [1, 1]) == [1, 0]
    assert reference.net_output(2, 2, weights, bias, [1, 0]) == [0, 0]


def test_draws_follow_the_documented_seed_contract():
    # the package README: random_search on the reference problem with seed 42
    # finds rule 110 on attempt 19, the first draw of rule 110 under that seed
    draws = [reference.draw(42, k) for k in range(19)]
    assert draws[-1] == 110 and 110 not in draws[:-1]
    assert all(0 <= r < 256 for r in draws)
