"""The behaviour contract, pinned: text form, generated sources, trajectories and CLI output.

One seeded corpus of rings and nets, with and without targets, is hashed
stream by stream: the ``emit`` text (each document parsing back to itself),
the C and Python sources, ``interpret_text``, and the stdout and exit code of
CLI runs over all seven subcommands. A change that moves one of these on
purpose updates its digest here and names the change and its reason in
CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import INIT, STEPS, TARGET, make_rng
from metastable import ann, autoprog, ca, cli

DIGESTS = {
    "emit": "46e2ad3448c74e0a",
    "c": "e3c2c5be4b910b30",
    "python": "43b9a1dcb5145889",
    "interpret": "a4bf774678ace89e",
    "cli": "6d9a0819546fad3d",
}


def _corpus() -> list[autoprog.Document]:
    """12 rings of 3-63 cells and 12 nets of up to 5 layers of 7, half of each with a target."""
    rng = make_rng(2019)
    docs = []
    for k in range(24):
        if k % 2 == 0:
            rule, p = int(rng.integers(0, 256)), int(rng.integers(3, 64))
            system = ca.make_automaton(rule, rng.integers(0, 2, p))
            steps = int(rng.integers(0, 9))
        else:
            layers, width = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            system = ann.make_network(layers, width, rng.integers(0, 2, width), rng=rng)
            steps = int(rng.integers(0, 2 * layers))
        target = rng.integers(0, 2, system.width) if k % 4 < 2 else None
        docs.append(autoprog.Document(system=system, steps=steps, target=target))
    return docs


CORPUS = _corpus()


def _digest(texts) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]


def _cli(argv: list[str]) -> str:
    """One in-process CLI run as its stdout and exit code; stderr is not part of the contract."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return "exit %d\n%s" % (code, out.getvalue())


def test_emit_text_is_pinned_and_parses_back():
    texts = [autoprog.emit(doc) for doc in CORPUS]
    for doc, text in zip(CORPUS, texts):
        assert autoprog.parse(text) == doc
    assert _digest(texts) == DIGESTS["emit"]


@pytest.mark.parametrize("backend", ["c", "python"])
def test_generated_sources_are_pinned(backend):
    assert _digest(autoprog.generate(doc, backend) for doc in CORPUS) == DIGESTS[backend]


def test_interpreter_text_is_pinned():
    assert _digest(autoprog.interpret_text(doc) for doc in CORPUS) == DIGESTS["interpret"]


def _files(tmp_path) -> dict[str, str]:
    """Corpus documents and malformed ones, written out, by name."""
    ring, net = autoprog.emit(CORPUS[0]), autoprog.emit(CORPUS[1])
    assert "row 0: 0 1 10\n" in ring and "schedule layered 3 3\nmilieu:" in net and "\nlayers 3\n" in net
    texts = {
        "ring": ring,
        "net": net,
        "plain": autoprog.emit(CORPUS[2]),
        "ring-layered": ring.replace("schedule synchronous", "schedule layered 1 11"),
        "one-layer": net.replace("layered 3 3", "layered 1 3").replace("\nlayers 3\n", "\nlayers 1\n"),
        "short-ring-target": ring.rsplit("target ", 1)[0] + "target 000\n",
        "short-net-target": net.rsplit("target ", 1)[0] + "target 0\n",
        "bad-column": ring.replace("row 0: 0 1 10", "row 0: 0 1 99"),
        "unfit-p": (
            "amp 1\nkind ann\np 3\nstates 01\nschedule layered 2 30000\nmilieu:\nupdate:\n"
            "layers 2\nwidth 30000\nstrategy threshold\ninit 100\nsteps 1\n"
        ),
        "config": "init %s\ntarget %s\nsteps %d\n" % (INIT, TARGET, STEPS),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    return paths


def _runs(paths: dict[str, str]) -> list[list[str]]:
    zeros = "0" * 31
    return [
        ["ca-run", "--rule", "110", "--init", INIT, "--steps", str(STEPS), "--target", TARGET],
        ["ca-run", "--rule", "30", "--init", INIT, "--steps", "5", "--target", TARGET],
        ["ca-run", "--rule", "90", "--init", "00100", "--steps", "4"],
        ["ca-run", "--rule", "256", "--init", "00100", "--steps", "4"],
        ["ca-run", "--rule", "90", "--init", "00120", "--steps", "4"],
        ["ca-search", "--init", INIT, "--target", TARGET, "--steps", str(STEPS), "--seed", "2019"],
        ["ca-search", "--init", zeros, "--target", "01" * 15 + "0", "--steps", "3", "--budget", "40", "--seed", "3"],
        ["ca-search", "--init", "00100", "--target", "111", "--steps", "3", "--seed", "1"],
        ["ca-search", "--init", "01", "--target", "01", "--steps", "3", "--seed", "1"],
        ["ca-search", "--init", "00100", "--target", "11101", "--steps", "-1", "--seed", "1"],
        ["ca-enumerate", "--config", paths["config"]],
        ["ca-enumerate", "--init", zeros, "--target", zeros, "--steps", "1"],
        ["ca-enumerate", "--init", "00100", "--target", "11101", "--steps", "3"],
        ["ca-enumerate", "--init", "00200", "--target", "11101", "--steps", "3"],
        ["ann-train", "--layers", "3", "--width", "4", "--init", "1010", "--target", "0110", "--seed", "7"],
        ["ann-train", "--layers", "4", "--width", "5", "--init", "10101", "--target", "01101", "--epochs", "3", "--seed", "2"],
        ["ann-train", "--layers", "1", "--width", "4", "--init", "1010", "--target", "0110", "--seed", "7"],
        ["codegen", "--model", paths["ring"], "--backend", "c"],
        ["codegen", "--model", paths["net"], "--backend", "python"],
        ["codegen", "--model", paths["net"], "--backend", "rust"],
        ["verify", "--model", paths["ring"], "--backend", "python"],
        ["verify", "--model", paths["net"], "--backend", "python"],
        ["verify", "--model", paths["plain"], "--backend", "python", "--toolchain", "cat {src}"],
        ["verify", "--model", paths["plain"], "--backend", "python", "--toolchain", "false {src}"],
        ["demodulate", "--model", paths["ring"]],
        ["demodulate", "--model", paths["net"]],
        ["demodulate", "--model", paths["ring-layered"]],
        ["demodulate", "--model", paths["one-layer"]],
        ["demodulate", "--model", paths["short-ring-target"]],
        ["demodulate", "--model", paths["short-net-target"]],
        ["demodulate", "--model", paths["bad-column"]],
        ["demodulate", "--model", paths["unfit-p"]],
        ["demodulate", "--model", paths["ring"] + ".missing"],
    ]


def test_cli_stdout_and_exit_codes_are_pinned(tmp_path):
    paths = _files(tmp_path)
    assert _digest(_cli(argv) for argv in _runs(paths)) == DIGESTS["cli"]
    if autoprog.toolchain_available("c"):
        for name in ("ring", "net"):
            assert _cli(["verify", "--model", paths[name], "--backend", "c"]) == "exit 0\nequal\n"
