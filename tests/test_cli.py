"""Command line behaviour: grammars, exit codes, seeds, and config files."""

import contextlib
import io
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DOCUMENT_EDITS, INIT, LINE_BREAKS, STEPS, TARGET, make_rng, mutate
from metastable import ann, autoprog, ca, cli, core
from metastable.errors import UnsupportedKind


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reference_model(tmp_path):
    doc = autoprog.Document(
        system=ca.make_automaton(110, INIT),
        steps=STEPS,
        target=core.state_vector(TARGET),
    )
    path = tmp_path / "reference.amp"
    path.write_text(autoprog.emit(doc))
    return str(path)


@pytest.fixture
def readme_ring(tmp_path):
    """The README's ring: rule 110 on 00100, whose rows are 00100 01100 11100 10101."""
    doc = autoprog.Document(system=ca.make_automaton(110, "00100"), steps=3, target=core.state_vector("11101"))
    path = tmp_path / "ring.amp"
    path.write_text(autoprog.emit(doc))
    return str(path)


@pytest.fixture
def layered_model(tmp_path):
    rng = make_rng(4)
    system = ann.make_network(3, 3, rng.integers(0, 2, size=3), rng=rng)
    path = tmp_path / "layered.amp"
    path.write_text(autoprog.emit(autoprog.Document(system=system, steps=2)))
    return str(path)


# --- ca-run ------------------------------------------------------------------


def test_ca_run_prints_the_trajectory(capsys):
    code, out, err = run_cli(
        capsys, ["ca-run", "--rule", "110", "--init", INIT, "--steps", str(STEPS)]
    )
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == STEPS + 1
    assert lines[0] == INIT
    assert lines[-1] == TARGET


def test_ca_run_scores_a_target(capsys):
    code, out, err = run_cli(
        capsys,
        ["ca-run", "--rule", "110", "--init", INIT, "--steps", str(STEPS), "--target", TARGET],
    )
    assert code == 0
    assert out.splitlines()[-1] == "match 1.000000000"


def test_ca_run_exits_one_when_the_target_is_missed(capsys):
    code, out, err = run_cli(
        capsys,
        ["ca-run", "--rule", "0", "--init", INIT, "--steps", str(STEPS), "--target", TARGET],
    )
    assert code == 1
    assert out.splitlines()[-1] == "match 0.645161290"


def test_ca_run_checks_the_target_before_stepping(capsys):
    argv = ["ca-run", "--rule", "110", "--init", "0100", "--steps", "1000", "--target", "01"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: target has shape (2,), expected (4,)"]


def _ca_run_peak(steps):
    """The tracemalloc peak of one ca-run on a 3-cell ring, its rows written to os.devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["ca-run", "--rule", "110", "--init", "001", "--steps", str(steps)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_ca_run_prints_each_row_as_it_steps():
    # a stored (steps+1, 3) trajectory would grow the peak a hundredfold
    assert _ca_run_peak(100_000) <= 2 * _ca_run_peak(1_000)


def test_ca_run_rejects_bad_rules(capsys):
    code, out, err = run_cli(capsys, ["ca-run", "--rule", "300", "--init", "010", "--steps", "1"])
    assert code == 2
    assert "error:" in err


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, ["ca-run", "--rule", "110"])[0] == 2
    assert run_cli(capsys, ["no-such-command"])[0] == 2
    assert run_cli(capsys, [])[0] == 2


# --- ca-search ---------------------------------------------------------------


def test_ca_search_streams_attempts_and_finds_the_rule(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "ca-search",
            "--init", INIT,
            "--target", TARGET,
            "--steps", str(STEPS),
            "--budget", "5000",
            "--seed", "42",
        ],
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "solution 110 attempts 19"
    assert len(lines) == 20
    for k, line in enumerate(lines[:-1], 1):
        parts = line.split()
        assert parts[0] == "attempt" and int(parts[1]) == k
        assert parts[2] == "rule" and 0 <= int(parts[3]) < 256
        assert parts[4] == "match" and 0.0 <= float(parts[5]) <= 1.0


def test_ca_search_reports_exhaustion(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "ca-search",
            "--init", INIT,
            "--target", TARGET,
            "--steps", str(STEPS),
            "--budget", "5",
            "--seed", "163",
        ],
    )
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 6
    assert lines[-1].startswith("exhausted best ")


def test_ca_search_echoes_a_fresh_seed_to_stderr(capsys):
    code, out, err = run_cli(
        capsys,
        ["ca-search", "--init", "010", "--target", "111", "--steps", "1", "--budget", "2"],
    )
    assert err.splitlines()[0].startswith("seed ")
    assert all(not line.startswith("seed") for line in out.splitlines())


def test_ca_search_is_reproducible_via_the_echoed_seed(capsys):
    code, out, err = run_cli(
        capsys,
        ["ca-search", "--init", INIT, "--target", TARGET, "--steps", str(STEPS), "--budget", "40"],
    )
    seed = int(err.splitlines()[0].split()[1])
    code2, out2, err2 = run_cli(
        capsys,
        [
            "ca-search",
            "--init", INIT,
            "--target", TARGET,
            "--steps", str(STEPS),
            "--budget", "40",
            "--seed", str(seed),
        ],
    )
    assert out2 == out


# --- ca-enumerate -------------------------------------------------------------


def test_ca_enumerate_lists_solutions_and_count(capsys):
    code, out, err = run_cli(
        capsys, ["ca-enumerate", "--init", INIT, "--target", TARGET, "--steps", str(STEPS)]
    )
    assert code == 0
    assert out.splitlines() == ["110", "count 1"]


def test_ca_enumerate_reports_empty_sets(capsys):
    code, out, err = run_cli(
        capsys, ["ca-enumerate", "--init", INIT, "--target", TARGET, "--steps", "1"]
    )
    assert code == 0
    assert out.splitlines() == ["count 0"]


# --- ann-train -----------------------------------------------------------------


def test_ann_train_reports_progress_and_success(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "ann-train",
            "--layers", "3",
            "--width", "4",
            "--init", "1010",
            "--target", "0110",
            "--seed", "5",
        ],
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("epoch 1 match ")
    assert lines[-2].startswith("best 1.000000000 epoch ")
    assert lines[-1].startswith("exact epoch ")


def test_ann_train_frozen_rate_cannot_learn(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "ann-train",
            "--layers", "3",
            "--width", "4",
            "--init", "1010",
            "--target", "0110",
            "--seed", "5",
            "--rate", "0",
            "--budget", "1",
        ],
    )
    lines = out.splitlines()
    assert code == 1
    assert lines[-1].startswith("best ")
    assert "exact" not in out


def test_ann_train_goal_can_be_relaxed(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "ann-train",
            "--layers", "3",
            "--width", "4",
            "--init", "1010",
            "--target", "0110",
            "--seed", "5",
            "--rate", "0",
            "--budget", "1",
            "--goal", "0",
        ],
    )
    assert code == 0


@pytest.mark.parametrize("goal", ["nan", "-0.1", "5"])
def test_ann_train_rejects_a_goal_outside_zero_to_one(capsys, goal):
    argv = ["ann-train", "--layers", "3", "--width", "4", "--init", "1010", "--target", "0110",
            "--seed", "5", "--goal", goal]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: goal must lie in [0, 1], got %r" % float(goal)]


def test_ann_train_rejects_a_rate_that_leaves_the_weight_grid(capsys):
    # one correction of 1e300 is finite but too large to scale onto the 9-decimal grid
    argv = ["ann-train", "--layers", "3", "--width", "4", "--init", "1010", "--target", "0110",
            "--rate", "1e300", "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "9-decimal grid" in err


@pytest.mark.parametrize("layers, width", [("100000", "1000"), ("3000000", "16")])
def test_ann_train_refuses_a_net_past_the_weight_cap(capsys, layers, width):
    argv = ["ann-train", "--layers", layers, "--width", width, "--init", "0" * int(width),
            "--target", "1" * int(width), "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: %s layers of width %s need " % (layers, width))


@pytest.mark.parametrize(
    "argv",
    [
        ["ca-search", "--init", INIT, "--target", TARGET, "--steps", str(STEPS), "--seed", "-1"],
        ["ann-train", "--layers", "3", "--width", "4", "--init", "1010", "--target", "0110",
         "--seed", "-5"],
    ],
)
def test_negative_seeds_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: seed must not be negative, got %s" % argv[-1]]


# --- codegen / verify / demodulate ---------------------------------------------


def test_codegen_writes_source(capsys, tmp_path, reference_model):
    out_path = tmp_path / "program.c"
    code, out, err = run_cli(
        capsys,
        ["codegen", "--model", reference_model, "--backend", "c", "--output", str(out_path)],
    )
    assert code == 0
    assert "/* main loop */" in out_path.read_text()


def test_codegen_prints_to_stdout_by_default(capsys, reference_model):
    code, out, err = run_cli(capsys, ["codegen", "--model", reference_model, "--backend", "python"])
    assert code == 0
    assert "# main loop" in out


def test_codegen_rejects_unknown_backends(capsys, reference_model):
    code, out, err = run_cli(capsys, ["codegen", "--model", reference_model, "--backend", "ada"])
    assert code == 2


def test_missing_model_files_exit_two(capsys):
    code, out, err = run_cli(capsys, ["demodulate", "--model", "/no/such/file.amp"])
    assert code == 2


def test_model_files_that_are_not_utf8_exit_two(capsys, tmp_path):
    path = tmp_path / "binary.amp"
    path.write_bytes(b"\xff\xfe\n")
    for argv in (["demodulate"], ["verify", "--backend", "python"]):
        code, out, err = run_cli(capsys, argv + ["--model", str(path)])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert str(path) in err


def test_verify_python_backend(capsys, reference_model, layered_model):
    for model in (reference_model, layered_model):
        code, out, err = run_cli(capsys, ["verify", "--model", model, "--backend", "python"])
        assert code == 0
        assert out.strip() == "equal"


def test_verify_reports_mismatches(capsys, reference_model):
    code, out, err = run_cli(
        capsys,
        [
            "verify",
            "--model", reference_model,
            "--backend", "python",
            "--toolchain", "test -f {src} && echo wrong",
        ],
    )
    assert code == 1
    assert out.strip() == "mismatch line 1"


def test_verify_compares_line_endings_byte_for_byte(capsys, readme_ring):
    base = ["verify", "--model", readme_ring, "--backend", "python", "--toolchain"]
    code, out, err = run_cli(capsys, base + [r"printf '00100\n01100\n11100\n10101\n' # {src}"])
    assert (code, out) == (0, "equal\n")
    # the same rows ended by \r\n, then by a bare \r
    for rows in (r"00100\r\n01100\r\n11100\r\n10101\r\n", r"00100\r01100\r11100\r10101\r"):
        code, out, err = run_cli(capsys, base + ["printf '%s' # {src}" % rows])
        assert (code, out, err) == (1, "mismatch line 1\n", "")


def test_verify_reports_output_that_is_not_utf8_as_a_mismatch(capsys, readme_ring):
    command = r"printf '\377\n' # {src}"
    assert autoprog.compile_and_run("", autoprog.ToolchainConfig(command)) == "\ufffd\n"
    code, out, err = run_cli(
        capsys, ["verify", "--model", readme_ring, "--backend", "python", "--toolchain", command]
    )
    assert (code, out, err) == (1, "mismatch line 1\n", "")


def test_verify_toolchain_failures_exit_three(capsys, reference_model):
    code, out, err = run_cli(
        capsys,
        [
            "verify",
            "--model", reference_model,
            "--backend", "python",
            "--toolchain", "test -f {src} && exit 9",
        ],
    )
    assert code == 3
    assert "error:" in err


def test_verify_builds_its_toolchain_from_the_flags(capsys, reference_model):
    base = ["verify", "--model", reference_model, "--backend", "python"]
    code, out, err = run_cli(capsys, base + ["--toolchain", ""])
    assert code == 2
    assert "{src}" in err
    code, out, err = run_cli(capsys, base + ["--timeout", "0"])
    assert code == 2
    code, out, err = run_cli(capsys, base + ["--timeout", "inf"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: toolchain timeout must be finite and positive, got inf"]
    code, out, err = run_cli(capsys, base + ["--timeout", "2147484"])  # poll() waits at most 2**31-1 ms
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: toolchain timeout must be at most 2147483.647 s, got 2147484.0"]
    code, out, err = run_cli(capsys, base + ["--timeout", "30"])
    assert code == 0
    assert out.strip() == "equal"


def test_an_interrupted_verify_exits_130_without_a_traceback(capsys, monkeypatch, reference_model):
    def interrupted(proc, timeout):
        raise KeyboardInterrupt

    # the interrupt lands in the wait; a missed seam times out in 2 s instead
    monkeypatch.setattr(autoprog, "_communicate", interrupted)
    argv = ["verify", "--model", reference_model, "--backend", "python", "--toolchain", "sleep 47.5; true {src}"]
    argv += ["--timeout", "2"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (130, "", "error: interrupted\n")


def test_malformed_toolchain_templates_exit_two(capsys, reference_model):
    base = ["verify", "--model", reference_model, "--backend", "python", "--toolchain"]
    for command in ("cat {src} {", "cat {src} }", "cat {src} {src!z}", "cat {src} {src.x}"):
        code, out, err = run_cli(capsys, base + [command])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_big_p_model_exits_two(capsys, tmp_path, reference_model):
    text = Path(reference_model).read_text().replace("p 31", "p 1000000")
    path = tmp_path / "big.amp"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["demodulate", "--model", str(path)])
    assert code == 2
    assert "init" in err


def test_a_net_shape_error_names_its_width_line(capsys, tmp_path):
    # the 127-byte document whose layers of width 30,000 do not make p 3
    path = tmp_path / "unfit.amp"
    path.write_text(
        "amp 1\nkind ann\np 3\nstates 01\nschedule layered 2 30000\nmilieu:\nupdate:\n"
        "layers 2\nwidth 30000\nstrategy threshold\ninit 100\nsteps 1\n"
    )
    code, out, err = run_cli(capsys, ["demodulate", "--model", str(path)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: line 9: wiring has shape (1, 30000, 30000): 2 layers of width 30000 make 60000")


def test_demodulate_prints_both_halves(capsys, reference_model):
    code, out, err = run_cli(capsys, ["demodulate", "--model", reference_model])
    lines = out.splitlines()
    assert code == 0
    assert "structural count 31" in lines
    assert "structural init %s" % INIT in lines
    assert "operational kind ca" in lines
    assert "operational schedule synchronous" in lines
    assert "operational fan-in 3" in lines
    assert "operational update table 0 1 1 1 0 1 1 0" in lines
    assert "operational milieu nonzeros 93" in lines


def test_demodulate_layered_model(capsys, layered_model):
    code, out, err = run_cli(capsys, ["demodulate", "--model", layered_model])
    lines = out.splitlines()
    assert code == 0
    assert "structural count 9" in lines
    assert "operational kind ann" in lines
    assert "operational schedule layered 3 3" in lines
    assert "operational fan-in 4" in lines
    assert "operational update threshold" in lines


def test_a_ring_document_with_a_layered_schedule_exits_two(capsys, tmp_path, readme_ring):
    text = Path(readme_ring).read_text().replace("schedule synchronous", "schedule layered 5 1")
    with pytest.raises(UnsupportedKind, match="^cell populations update synchronously$"):
        autoprog.parse(text)
    path = tmp_path / "layered_ring.amp"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["demodulate", "--model", str(path)])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: cell populations update synchronously"]


# --- config files ---------------------------------------------------------------


def test_config_file_supplies_defaults(capsys, tmp_path):
    conf = tmp_path / "search.conf"
    conf.write_text("budget 5000\nseed 42\n# a comment\n")
    code, out, err = run_cli(
        capsys,
        [
            "ca-search",
            "--config", str(conf),
            "--init", INIT,
            "--target", TARGET,
            "--steps", str(STEPS),
        ],
    )
    assert code == 0
    assert out.splitlines()[-1] == "solution 110 attempts 19"


def test_flags_override_the_config_file(capsys, tmp_path):
    conf = tmp_path / "search.conf"
    conf.write_text("budget 5000\nseed 42\n")
    code, out, err = run_cli(
        capsys,
        [
            "ca-search",
            "--config", str(conf),
            "--init", INIT,
            "--target", TARGET,
            "--steps", str(STEPS),
            "--budget", "3",
        ],
    )
    assert code == 1
    assert len(out.splitlines()) == 4  # three attempts, then the exhausted line


def test_config_flag_prefixes_load_the_file(capsys, tmp_path):
    # argparse accepts any unambiguous prefix of --config; each must load the file
    conf = tmp_path / "search.conf"
    conf.write_text("budget 3\nseed 42\n")
    problem = ["--init", INIT, "--target", TARGET, "--steps", str(STEPS)]
    for flag in (["--conf", str(conf)], ["--c", str(conf)], ["--con=%s" % conf]):
        code, out, err = run_cli(capsys, ["ca-search"] + flag + problem)
        assert code == 1
        assert len(out.splitlines()) == 4  # three attempts, then the exhausted line
        assert err == ""  # the seed came from the file, so none is echoed


def test_unknown_config_keys_exit_two(capsys, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("bandwidth 9\n")
    code, out, err = run_cli(
        capsys,
        ["ca-search", "--config", str(conf), "--init", "010", "--target", "010", "--steps", "1"],
    )
    assert code == 2
    assert "bandwidth" in err


def test_config_values_can_satisfy_required_flags(capsys, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("rule 110\ninit %s\nsteps %d\n" % (INIT, STEPS))
    code, out, err = run_cli(capsys, ["ca-run", "--config", str(conf)])
    assert code == 0
    assert out.splitlines()[-1] == TARGET


def test_config_lines_end_at_every_break_the_text_form_knows(capsys, tmp_path):
    conf = tmp_path / "enumerate.conf"
    lines = ["init %s" % INIT, "# a comment", "target %s" % TARGET, "steps %d" % STEPS]
    for brk in ["\n"] + LINE_BREAKS:
        conf.write_bytes(brk.join(lines).encode("utf-8") + brk.encode("utf-8"))
        code, out, err = run_cli(capsys, ["ca-enumerate", "--config", str(conf)])
        assert (code, out.splitlines(), err) == (0, ["110", "count 1"], ""), repr(brk)


def test_malformed_config_lines_exit_two(capsys, tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text("seed\n")
    code, out, err = run_cli(
        capsys,
        ["ca-search", "--config", str(conf), "--init", "010", "--target", "010", "--steps", "1"],
    )
    assert code == 2


def test_config_values_of_the_wrong_type_get_the_flags_usage_error(capsys, tmp_path):
    conf = tmp_path / "search.conf"
    conf.write_text("budget 1.5\n")
    code, out, err = run_cli(capsys, ["ca-search", "--config", str(conf), "--init", INIT, "--target", TARGET,
                                      "--steps", str(STEPS), "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --budget: invalid int value: '1.5'")


# one flag per subcommand, with the rest of its command line; {ring} is the README ring's file
FLAG_CASES = [
    ("ca-run", ["--init", INIT, "--steps", "3"], "rule", "110"),
    ("ca-search", ["--init", INIT, "--target", TARGET, "--steps", str(STEPS)], "seed", "42"),
    ("ca-enumerate", ["--init", INIT, "--target", TARGET], "steps", str(STEPS)),
    ("ann-train", ["--layers", "3", "--width", "4", "--init", "1010", "--target", "0110"], "seed", "7"),
    ("codegen", ["--model", "{ring}"], "backend", "python"),
    ("verify", ["--model", "{ring}", "--timeout", "30"], "backend", "python"),
    ("demodulate", [], "model", "{ring}"),
]


@pytest.mark.parametrize("command, argv, key, value", FLAG_CASES, ids=[case[0] for case in FLAG_CASES])
def test_a_config_line_acts_as_its_flag(capsys, tmp_path, readme_ring, command, argv, key, value):
    argv, value = [token.format(ring=readme_ring) for token in argv], value.format(ring=readme_ring)
    conf = tmp_path / "flag.conf"
    conf.write_text("%s %s\n" % (key, value))
    by_flag = run_cli(capsys, [command] + argv + ["--" + key, value])
    by_config = run_cli(capsys, [command, "--config", str(conf)] + argv)
    assert by_flag[0] in (0, 1)
    assert by_config[:2] == by_flag[:2]


def test_config_files_that_are_not_utf8_exit_two(capsys, tmp_path):
    conf = tmp_path / "binary.conf"
    conf.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(capsys, ["ca-run", "--config", str(conf), "--rule", "1", "--init", "010", "--steps", "1"])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read config:")
    assert str(conf) in err


@pytest.mark.parametrize("line", ["rul 110", "help 1"])
def test_config_keys_must_name_a_long_flag_in_full(capsys, tmp_path, line):
    # argparse takes prefixes and --help on the command line; a config key takes neither
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    code, out, err = run_cli(capsys, ["ca-run", "--config", str(conf), "--rule", "110", "--init", INIT, "--steps", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: unknown config key '%s' for ca-run\n" % line.split()[0]


# --- fuzzing the files the CLI reads ---------------------------------------------

FUZZ_DOCUMENTS = [
    autoprog.emit(autoprog.Document(ca.make_automaton(110, "0010110"), 3, core.state_vector("0110110"))),
    autoprog.emit(autoprog.Document(ann.make_network(3, 3, "101", rng=make_rng(4)), 2, core.state_vector("011"))),
]
# a valid, quick config per subcommand, which the fuzz then edits; verify is left out because a
# document with steps in the billions still exhausts its memory (the streaming verify will fix that)
FUZZ_CONFIGS = {
    "ca-run": {"rule": "110", "init": "0010110", "steps": "3", "target": "0110110"},
    "ca-search": {"init": "0010110", "target": "0110110", "steps": "3", "budget": "5", "seed": "1"},
    "ca-enumerate": {"init": "0010110", "target": "0110110", "steps": "3"},
    "ann-train": {"layers": "3", "width": "3", "init": "101", "target": "011", "epochs": "3", "seed": "1"},
    "codegen": {"model": "{doc}", "backend": "python"},
    "demodulate": {"model": "{doc}"},
}
# the keys that set the amount of work (steps, budget, epochs, layers, width) take small values only,
# as time follows them by design; {dir} is a directory and {doc} the example's mutated document
FUZZ_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x", "2.5", "1e3", "nan"])
FUZZ_JUNK = st.text(alphabet="01x -=#.", max_size=8)
FUZZ_VALUES = {
    "steps": FUZZ_SMALL,
    "budget": FUZZ_SMALL,
    "epochs": FUZZ_SMALL,
    "layers": FUZZ_SMALL,
    "width": FUZZ_SMALL,
    "rule": st.sampled_from(["-1", "0", "110", "255", "256", "1.5"]),
    "seed": st.sampled_from(["-1", "0", "42", "99999999999999999999"]),
    "rate": st.sampled_from(["0", "0.1", "-1", "nan", "inf", "1e300"]),
    "goal": st.sampled_from(["0", "0.5", "2", "-1", "nan"]),
    "backend": st.sampled_from(["c", "python", "fortran"]),
    "model": st.sampled_from(["{doc}", "{dir}", "{dir}/missing.amp", "{dir}/binary.amp"]),
    "output": st.sampled_from(["{dir}/out.src", "{dir}", "{dir}/missing/out.src"]),
}
FUZZ_KEYS = cli.build_parser()[1]  # each subcommand's long flags


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "binary.amp").write_bytes(b"\xff\xfe\n")
    return path


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_documents_and_config_files_exit_0_to_3_without_a_traceback(fuzz_dir, data):
    doc, conf = fuzz_dir / "model.amp", fuzz_dir / "fuzz.conf"
    doc.write_text(mutate(data.draw(st.sampled_from(FUZZ_DOCUMENTS)), data.draw(DOCUMENT_EDITS | st.just([]))))
    command = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    pairs = dict(FUZZ_CONFIGS[command])
    keys = FUZZ_KEYS[command] + ["help", "rul"]  # config among them
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=3)):
        pairs[key] = data.draw(FUZZ_VALUES.get(key, FUZZ_JUNK) | st.none())  # None drops the line
    lines = ["%s %s\n" % pair for pair in pairs.items() if pair[1] is not None]
    conf.write_text("".join(lines).format(doc=doc, dir=fuzz_dir))
    model = data.draw(st.just("{doc}") | FUZZ_VALUES["model"]).format(doc=doc, dir=fuzz_dir)
    backend = data.draw(st.sampled_from(["c", "python"]))
    for argv in (
        [command, "--config", str(conf)],
        ["codegen", "--model", model, "--backend", backend],
        ["demodulate", "--model", model],
    ):
        code, err = run_quietly(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err

