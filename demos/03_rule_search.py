"""Find the rule behind a trajectory, first by luck and then by brute force.

Given only an initial state, a target state, and a step count, random search
draws rule numbers from a seeded stream until one reproduces the target.
The exhaustive scan then confirms the answer is unique: exactly one of the
256 elementary rules maps this initial state onto this target in 15 steps.
"""

from metastable import search

INIT = "0000000000000001000000000000000"
TARGET = "1101011001111101000000000000000"
STEPS = 15


def main():
    problem = search.Problem(INIT, TARGET, STEPS)

    def log(attempt):
        if attempt.index <= 5 or attempt.score == 1.0:
            print("attempt %3d  rule %3d  match %.3f" % (attempt.index, attempt.rule, attempt.score))
        elif attempt.index == 6:
            print("...")

    result = search.random_search(problem, budget=5000, seed=42, log=log)
    print()
    print("random search found rule %d after %d attempts" % (result.solution, result.attempts))

    solutions = search.exhaustive_search(problem)
    print("exhaustive scan of all 256 rules finds the solution set %s" % solutions)


if __name__ == "__main__":
    main()
