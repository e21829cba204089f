"""Command line entry points.

Subcommands: ca-run, ca-search, ca-enumerate, ann-train, codegen, verify,
demodulate. Results go to stdout; seeds, notes, and errors go to stderr.

Exit codes: 0 on success, 1 when a stated goal was not met, 2 on bad usage
or bad input, 3 when an external toolchain failed, 130 when interrupted.

A config file (--config) holds one "key value" pair per line, keys the full
names of the subcommand's long flags; each line is read as --key=value ahead
of the command line's flags, so argparse types it and a command-line flag wins.
"""

from __future__ import annotations

import argparse
import secrets
import sys

import numpy as np

from . import ann, autoprog, ca, core, search
from .errors import CompileFailed, MetastableError, OutOfRange, RunTimeout

SCORE = "%.9f"


def _fail(message: str) -> None:
    print("error: %s" % message, file=sys.stderr)


def _pick_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise OutOfRange("seed must not be negative, got %d" % args.seed)
        return args.seed
    seed = secrets.randbits(32)
    print("seed %d" % seed, file=sys.stderr)
    return seed


def _read_text(path: str) -> str:
    """A file's whole text; bytes that are not UTF-8 raise an error naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise MetastableError("%s is not UTF-8 text: %s" % (path, err)) from None


def _cmd_ca_run(args) -> int:
    system = ca.make_automaton(args.rule, args.init)
    target = None if args.target is None else core.state_vector(args.target, system.count, "target")
    for state in core.walk(system, args.steps):
        print(core.render_state(state))
    if target is None:
        return 0
    score = core.match(state, target)
    print("match %s" % (SCORE % score))
    return 0 if score == 1.0 else 1


def _cmd_ca_search(args) -> int:
    problem = search.Problem(args.init, args.target, args.steps)
    seed = _pick_seed(args)

    def show(attempt: search.Attempt) -> None:
        print("attempt %d rule %d match %s" % (attempt.index, attempt.rule, SCORE % attempt.score))

    report = search.random_search(problem, budget=args.budget, seed=seed, log=show)
    if report.solved:
        print("solution %d attempts %d" % (report.solution, report.attempts))
        return 0
    print("exhausted best %d match %s" % (report.best_rule, SCORE % report.best_score))
    return 1


def _cmd_ca_enumerate(args) -> int:
    problem = search.Problem(args.init, args.target, args.steps)
    solutions = search.exhaustive_search(problem)
    for rule in solutions:
        print(rule)
    print("count %d" % len(solutions))
    return 0


def _cmd_ann_train(args) -> int:
    if not 0 <= args.goal <= 1:  # nan fails this too
        raise OutOfRange("goal must lie in [0, 1], got %r" % args.goal)
    seed = _pick_seed(args)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    system = ann.make_network(args.layers, args.width, args.init, rng=rng)
    config = ann.TrainingConfig(rate=args.rate, epochs=args.epochs, budget=args.budget)
    _, report = ann.train(system, args.target, config)
    for epoch, score in enumerate(report.history, 1):
        print("epoch %d match %s" % (epoch, SCORE % score))
    print("best %s epoch %d" % (SCORE % report.best_match, report.best_epoch))
    if report.exact:
        print("exact epoch %d" % report.epochs_run)
    return 0 if report.best_match >= args.goal else 1


def _cmd_codegen(args) -> int:
    doc = autoprog.parse(_read_text(args.model))
    source = autoprog.generate(doc, args.backend)
    if args.output is None:
        sys.stdout.write(source)
    else:
        with open(args.output, "w") as handle:
            handle.write(source)
    return 0


def _cmd_verify(args) -> int:
    doc = autoprog.parse(_read_text(args.model))
    command = args.toolchain
    if command is None:
        command = autoprog.default_toolchain(args.backend).command
    toolchain = autoprog.ToolchainConfig(command=command, timeout=args.timeout)
    report = autoprog.verify(doc, args.backend, toolchain)
    if report.equal:
        print("equal")
        return 0
    print("mismatch line %d" % report.mismatch_line)
    return 1


def _cmd_demodulate(args) -> int:
    system = autoprog.parse(_read_text(args.model)).system
    structural, operational = core.demodulate(system)
    print("structural count %d" % system.count)
    print("structural states %s" % "".join(str(s) for s in system.states))
    print("structural init %s" % core.render_state(structural.init))
    print("structural current %s" % core.render_state(structural.current))
    print("operational kind %s" % system.kind)
    print("operational %s" % autoprog.schedule_line(system))
    print("operational fan-in %d" % system.fan_in)
    if system.kind == "ca":
        print("operational update table %s" % " ".join(str(b) for b in operational.update.bits))
    else:
        print("operational update threshold")
    wiring = operational.wiring  # None for a ring, whose cells read three each
    print("operational milieu nonzeros %d" % (3 * system.count if wiring is None else np.count_nonzero(wiring)))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, list[str]]]:
    """The parser, and per subcommand the names of its long flags."""
    parser = argparse.ArgumentParser(
        prog="metastable",
        description="Bind, run, search, train, and translate entity populations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    index: dict[str, list[str]] = {}

    def sub(name: str, func, help_text: str):
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        names = index[name] = []

        def flag(option: str, **kwargs) -> None:
            names.append(option[2:])
            p.add_argument(option, **kwargs)

        flag("--config", help="file of 'key value' defaults for this subcommand")
        return flag

    flag = sub("ca-run", _cmd_ca_run, "run one rule and print its trajectory")
    flag("--rule", type=int, required=True, help="rule number, 0 to 255")
    flag("--init", required=True, help="initial state, a string of 0s and 1s")
    flag("--steps", type=int, required=True, help="number of steps")
    flag("--target", help="compare the final state against this and set the exit code")

    flag = sub("ca-search", _cmd_ca_search, "draw random rules until one hits the target")
    flag("--init", required=True, help="initial state")
    flag("--target", required=True, help="state the rule should reach")
    flag("--steps", type=int, required=True, help="steps between init and target")
    flag("--budget", type=int, default=1000, help="attempt budget (default 1000)")
    flag("--seed", type=int, help="search seed (default: fresh, echoed to stderr)")

    flag = sub("ca-enumerate", _cmd_ca_enumerate, "try all 256 rules and list the exact hits")
    flag("--init", required=True, help="initial state")
    flag("--target", required=True, help="state a rule should reach")
    flag("--steps", type=int, required=True, help="steps between init and target")

    flag = sub("ann-train", _cmd_ann_train, "fit a layered perceptron system to a target pattern")
    flag("--layers", type=int, required=True, help="layer count, input layer included")
    flag("--width", type=int, required=True, help="units per layer")
    flag("--init", required=True, help="input pattern, width characters of 0s and 1s")
    flag("--target", required=True, help="wanted output pattern, width characters")
    training = ann.TrainingConfig()
    flag("--rate", type=float, default=training.rate, help="learning rate (default %(default)s)")
    flag("--epochs", type=int, default=training.epochs, help="epoch cap (default %(default)s)")
    flag("--budget", type=int, default=training.budget, help="correction cap (default %(default)s)")
    flag("--goal", type=float, default=1.0, help="match that counts as success (default 1.0)")
    flag("--seed", type=int, help="weight seed (default: fresh, echoed to stderr)")

    flag = sub("codegen", _cmd_codegen, "translate a model program into C or Python source")
    flag("--model", required=True, help="model-program file")
    flag("--backend", required=True, help="c or python")
    flag("--output", help="write source here instead of stdout")

    flag = sub("verify", _cmd_verify, "check a generated program against the interpreter")
    flag("--model", required=True, help="model-program file")
    flag("--backend", required=True, help="c or python")
    flag("--toolchain", help="build-and-run command template; must mention {src}")
    timeout = autoprog.ToolchainConfig.timeout
    flag("--timeout", type=float, default=timeout, help="toolchain timeout in seconds")

    flag = sub("demodulate", _cmd_demodulate, "split a model program into its two halves")
    flag("--model", required=True, help="model-program file")

    return parser, index


def _load_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in _read_text(path).split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise MetastableError("config line needs a key and a value: %r" % raw.strip())
        pairs.append((parts[0], parts[1].strip()))
    return pairs


def _with_config(argv: list[str], index: dict[str, list[str]]) -> list[str]:
    """argv with the chosen subcommand's config lines as ``--key=value`` flags ahead of the
    command line's own, so argparse types them and, keeping the last value, lets a flag win."""
    if not argv or argv[0] not in index:
        return argv
    command, rest = argv[0], argv[1:]
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(rest)[0].config
    except argparse.ArgumentError:  # a --config with no value, which the full parser reports
        return argv
    if path is None:
        return argv
    try:
        pairs = _load_config(path)
    except (OSError, MetastableError) as err:
        raise MetastableError("cannot read config: %s" % err) from None
    for key, _ in pairs:
        if key == "config" or key not in index[command]:
            raise MetastableError("unknown config key '%s' for %s" % (key, command))
    return [command] + ["--%s=%s" % pair for pair in pairs] + rest


def main(argv: list[str] | None = None) -> int:
    parser, index = build_parser()
    try:
        args = parser.parse_args(_with_config(list(sys.argv[1:] if argv is None else argv), index))
        return args.func(args)
    except SystemExit as err:
        return int(err.code or 0)
    except OSError as err:
        _fail(str(err))
        return 2
    except (CompileFailed, RunTimeout) as err:
        _fail(str(err))
        if isinstance(err, CompileFailed) and err.diagnostics:
            print(err.diagnostics, file=sys.stderr)
        return 3
    except MetastableError as err:
        _fail(str(err))
        return 2
    except KeyboardInterrupt:
        _fail("interrupted")
        return 130


def entry() -> None:
    sys.exit(main())
