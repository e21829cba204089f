"""Run the 31-cell reference automaton and score it against its target.

Rule 110 grows a characteristic triangle from a single seeded cell. After 15
synchronous steps the pattern agrees with the reference target in every
position, which is what makes this configuration a useful benchmark for the
search and training demos.
"""

from metastable import ca, core

INIT = "0000000000000001000000000000000"
TARGET = "1101011001111101000000000000000"
STEPS = 15


def main():
    system = ca.make_automaton(110, INIT)
    rows = core.run(system, STEPS)

    for t, row in enumerate(rows):
        text = core.render_state(row)
        score = core.match(row, core.state_vector(TARGET))
        print("t=%2d  %s  match %.3f" % (t, text.replace("0", ".").replace("1", "#"), score))

    final = core.render_state(rows[-1])
    print()
    print("final state reproduces the target:", final == TARGET)


if __name__ == "__main__":
    main()
