"""Teach a layered threshold network to map the reference input to its target.

The network is the same kind of object as the automaton in the other demos,
bound from the same two halves; only the update function and milieu differ.
Its `system.width` is read off the weight blocks, and `core.active` sweeps
one layer per step where a ring updates every cell. Training presents the
input, compares the output layer to the target, and nudges the bias and
incoming weights of each wrong output unit. On this size the perceptron rule
converges to an exact reproduction.
"""

from metastable import ann, core
import numpy as np

INIT = "0000000000000001000000000000000"
TARGET = "1101011001111101000000000000000"


def main():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    net = ann.make_network(layers=15, width=31, pattern=INIT, rng=rng)
    print("built a %d-layer network, %d units per layer" % (15, 31))

    before = core.render_state(ann.forward(net)[-31:])
    print("untrained output:  %s  match %.3f"
          % (before, core.match(core.state_vector(before), core.state_vector(TARGET))))

    trained, report = ann.train(net, TARGET, ann.TrainingConfig(rate=0.1, epochs=200))
    for epoch, score in enumerate(report.history, start=1):
        if epoch <= 3 or epoch == len(report.history):
            print("epoch %2d  match %.3f" % (epoch, score))
        elif epoch == 4:
            print("...")

    after = core.render_state(ann.forward(trained)[-31:])
    print("trained output:    %s" % after)
    print()
    print("exact after %d epochs and %d weight corrections: %s"
          % (report.epochs_run, report.corrections, report.exact))


if __name__ == "__main__":
    main()
