"""Build a system from its two halves, step it, and take it apart again.

A runnable system is a pair: a structural half (where the entities start)
and an operational half (the update function and the wiring between
entities). A ring's wiring is None: each cell reads itself and its two
neighbours, so there is nothing to spell out. `modulate` binds the two into
something you can run; `demodulate` splits a running system back into the
same two halves. What follows from the halves (the entity count, the state
alphabet, the fan-in, the `system.width` of a layer, here the whole ring) is
read off the bound system. `core.active(system, t)` is the slice of cells
that updates at step t, all of them for a ring, and `core.walk` yields the
states one step at a time.
"""

import numpy as np

from metastable import ca, core


def main():
    seed = core.state_vector("0000001000000")
    structural = core.Structural(init=seed, current=seed.copy())
    operational = core.Operational(
        update=ca.RuleTable(90),
        wiring=None,  # the ring's neighbours are core.ring_columns(13)
    )

    system = core.modulate(structural, operational)
    print("bound a %d-cell ring under rule %d" % (system.count, system.update.number))
    print("each cell reads %d cells and takes states %s" % (system.fan_in, system.states))
    print()

    for row in core.walk(system, 6):
        print(core.render_state(row).replace("0", ".").replace("1", "#"))
    print()

    # the two halves come back out unchanged
    s2, o2 = core.demodulate(system)
    assert np.array_equal(s2.init, structural.init)
    assert o2.update.number == 90
    assert core.modulate(s2, o2) == system
    print("demodulate returned both halves; rebinding them gives the same system")


if __name__ == "__main__":
    main()
