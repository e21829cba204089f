"""Model-program text form, interpreter, generated sources, and toolchains."""

import dataclasses
import os
import re
import subprocess
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DOCUMENT_EDITS, INIT, STEPS, TARGET, make_rng, mutate
from metastable import ann, autoprog, ca, core
from metastable.errors import (
    BadDimensions,
    CompileFailed,
    DimensionMismatch,
    MetastableError,
    NoBackendConfigured,
    OutOfRange,
    ParseError,
    RunTimeout,
    SemanticError,
    TooFewEntities,
    UnsupportedKind,
)


def ca_document(rule=110, init="0010110", steps=3, target=None):
    return autoprog.Document(
        system=ca.make_automaton(rule, init),
        steps=steps,
        target=None if target is None else core.state_vector(target),
    )


def ann_document(seed=4, layers=3, width=3, steps=None, target=None):
    rng = make_rng(seed)
    pattern = rng.integers(0, 2, size=width)
    system = ann.make_network(layers, width, pattern, rng=rng)
    return autoprog.Document(
        system=system,
        steps=(layers - 1) if steps is None else steps,
        target=None if target is None else core.state_vector(target),
    )


# --- round trips -----------------------------------------------------------


@given(
    st.integers(0, 255),
    st.text(alphabet="01", min_size=3, max_size=12),
    st.integers(0, 6),
    st.booleans(),
)
@settings(max_examples=40)
def test_ca_text_round_trip(rule, init, steps, with_target):
    target = core.state_vector(init[::-1]) if with_target else None
    doc = autoprog.Document(system=ca.make_automaton(rule, init), steps=steps, target=target)
    assert autoprog.parse(autoprog.emit(doc)) == doc


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=25)
def test_ann_text_round_trip(seed, layers, width, steps):
    rng = make_rng(seed)
    pattern = rng.integers(0, 2, size=width)
    system = ann.make_network(layers, width, pattern, rng=rng)
    target = core.state_vector("1" * width)
    doc = autoprog.Document(system=system, steps=steps, target=target)
    assert autoprog.parse(autoprog.emit(doc)) == doc


def test_comments_and_blank_lines_are_ignored():
    text = autoprog.emit(ca_document())
    sprinkled = "# a note\n\n" + text.replace("steps 3", "steps 3  # three steps")
    assert autoprog.parse(sprinkled) == ca_document()


# every line boundary str.splitlines knows; "\r\n" is one break
LINE_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_lines_end_at_every_break_that_splitlines_knows():
    doc = ann_document(target="101")
    lines = autoprog.emit(doc).splitlines()
    assert len(lines) > 2 * len(LINE_BREAKS)
    # line i ends in break i, cycling, so each break ends at least two lines
    assert autoprog.parse("".join(line + LINE_BREAKS[i % len(LINE_BREAKS)] for i, line in enumerate(lines))) == doc
    init = next(i for i, line in enumerate(lines) if line.startswith("init "))
    for brk in LINE_BREAKS:
        # a bad init after one of each break: the error names the line an editor shows, line init + 1
        text = "\n".join(lines[:init]) + brk + "init 1x1" + brk + "\n".join(lines[init + 1 :])
        with pytest.raises(SemanticError, match="^line %d: init: " % (init + 1)):
            autoprog.parse(text)


def test_emit_requires_a_fresh_system():
    doc = ca_document()
    stepped = dataclasses.replace(doc.system, current=core.step(doc.system).current)
    with pytest.raises(SemanticError):
        autoprog.emit(dataclasses.replace(doc, system=stepped))


def test_a_document_holds_only_a_fresh_system():
    # a stepped system would start the interpreter at current but the programs at init
    stepped = core.step(ca.make_automaton(110, "0010011"))
    with pytest.raises(SemanticError):
        autoprog.Document(system=stepped, steps=2)


def test_document_normalizes_string_targets():
    doc = autoprog.Document(system=ca.make_automaton(110, "00100"), steps=3, target="11101")
    assert "target 11101" in autoprog.emit(doc)
    assert doc == ca_document(init="00100", target="11101")


def test_document_rejects_bad_targets():
    from metastable.errors import DimensionMismatch, StateDomainViolation

    with pytest.raises(DimensionMismatch):
        autoprog.Document(system=ca.make_automaton(110, "00100"), steps=3, target="111")
    with pytest.raises(StateDomainViolation):
        autoprog.Document(system=ca.make_automaton(110, "00100"), steps=3, target=[1, 1, 1, 0, 2])
    with pytest.raises(DimensionMismatch):
        ann_document(width=3, target="11")


@pytest.mark.parametrize("steps", [-1, 2.7, 2.0, "3"])
def test_document_rejects_a_step_count_that_is_not_a_non_negative_integer(steps):
    # each would emit a steps line that parse rejects or that drops the fraction
    with pytest.raises(OutOfRange):
        autoprog.Document(system=ca.make_automaton(110, "00100"), steps=steps)


# --- parse errors ----------------------------------------------------------


def _lines(doc_text):
    return doc_text.splitlines()


def _swap(text, old, new):
    assert old in text
    return text.replace(old, new)


def test_parse_rejects_wrong_header():
    text = autoprog.emit(ca_document())
    with pytest.raises(ParseError):
        autoprog.parse(_swap(text, "amp 1", "amp 2"))
    with pytest.raises(ParseError):
        autoprog.parse(_swap(text, "amp 1", "mpa 1"))
    with pytest.raises(ParseError):
        autoprog.parse("")


def test_parse_error_carries_the_line_number():
    text = _swap(autoprog.emit(ca_document()), "p 7", "p seven")
    with pytest.raises(ParseError) as err:
        autoprog.parse(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_semantic_errors_carry_the_line_number():
    text = _swap(autoprog.emit(ca_document(init="010")), "row 0: 0 1 2", "row 0: 0 1 7")
    with pytest.raises(SemanticError) as err:
        autoprog.parse(text)
    assert err.value.line == 7
    assert str(err.value) == "line 7: column index 7 out of range for 3 entities"


def test_repeated_or_unordered_biases_are_parse_errors_on_their_line():
    text = autoprog.emit(ann_document(layers=3, width=3))
    lines = text.splitlines()
    at = lines.index(next(line for line in lines if line.startswith("bias 4 ")))
    for moved in (lines[at], lines[at - 1]):  # bias 4 again, or bias 3 after it
        with pytest.raises(ParseError) as err:
            autoprog.parse("\n".join(lines[: at + 1] + [moved] + lines[at + 1 :]))
        assert err.value.line == at + 2


def test_parse_rejects_unknown_kind():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "kind ca", "kind turing"))


def test_parse_rejects_other_alphabets():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "states 01", "states 012"))


def test_parse_rejects_bad_schedule():
    with pytest.raises(ParseError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "schedule synchronous", "schedule sometimes"))


def test_parse_rejects_rows_out_of_order():
    text = autoprog.emit(ca_document())
    lines = _lines(text)
    i = lines.index("row 0: 0 1 6")
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    with pytest.raises(ParseError):
        autoprog.parse("\n".join(lines) + "\n")


def test_parse_rejects_row_index_out_of_range():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "row 6:", "row 9:"))


def test_parse_rejects_column_out_of_range():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "row 0: 0 1 6", "row 0: 0 1 7"))


def test_parse_rejects_duplicate_columns():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "row 0: 0 1 6", "row 0: 0 1 1 6"))


def test_parse_rejects_weighted_entries_in_cell_documents():
    with pytest.raises(ParseError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "row 0: 0 1 6", "row 0: 0=1 1 6"))


def test_parse_rejects_bare_entries_in_weighted_documents():
    text = autoprog.emit(ann_document())
    lines = _lines(text)
    target = next(l for l in lines if l.startswith("row "))
    broken = target.split(":")[0] + ": 0"
    with pytest.raises(ParseError):
        autoprog.parse(text.replace(target, broken))


def test_parse_rejects_short_tables():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "table 0 1 1 1 0 1 1 0", "table 0 1 1"))


def test_parse_rejects_non_bit_tables():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "table 0 1 1 1 0 1 1 0", "table 0 1 1 1 0 1 1 2"))


def test_parse_rejects_update_schedule_disagreement():
    text = autoprog.emit(ann_document(layers=3, width=3))
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(text, "layers 3\n", "layers 4\n"))


def test_parse_rejects_unknown_strategy():
    text = autoprog.emit(ann_document())
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(text, "strategy threshold", "strategy sigmoid"))


def test_parse_rejects_bias_on_the_input_layer():
    text = autoprog.emit(ann_document(width=3))
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(text, "strategy threshold\n", "strategy threshold\nbias 0 0.5\n"))


def test_parse_rejects_non_finite_weights():
    text = autoprog.emit(ann_document())
    first_bias = next(l for l in text.splitlines() if l.startswith("bias "))
    parts = first_bias.split()
    with pytest.raises(SemanticError):
        autoprog.parse(text.replace(first_bias, "%s %s nan" % (parts[0], parts[1])))


def test_parse_rejects_wrong_init_length():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "init 0010110", "init 00101"))


def test_parse_rejects_bad_init_characters():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "init 0010110", "init 0010210"))


def test_parse_rejects_negative_steps():
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(ca_document()), "steps 3", "steps -1"))


def test_parse_rejects_wrong_target_length():
    doc = ca_document(target="0000000")
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(autoprog.emit(doc), "target 0000000", "target 000"))
    # a net's target is its output layer: 3 units, not the 9 entities of p
    text = autoprog.emit(ann_document(layers=3, width=3, target="101"))
    with pytest.raises(SemanticError, match="target has shape \\(9,\\), expected \\(3,\\)"):
        autoprog.parse(_swap(text, "target 101", "target 101101101"))


def test_parse_rejects_trailing_content():
    with pytest.raises(ParseError):
        autoprog.parse(autoprog.emit(ca_document()) + "more stuff\n")


def test_parse_rejects_non_ring_milieus():
    text = autoprog.emit(ca_document(init="00100"))
    for row in ("row 0: 0 1 2", "row 0: 0 1 2 4", "row 0: 0 1"):  # moved, extra, missing
        with pytest.raises(UnsupportedKind):
            autoprog.parse(_swap(text, "row 0: 0 1 4", row))


def test_parse_rejects_a_two_cell_ring():
    text = autoprog.emit(ca_document(init="010"))
    text = _swap(_swap(text, "p 3", "p 2"), "init 010", "init 01")
    text = _swap(text, "row 0: 0 1 2\nrow 1: 0 1 2\nrow 2: 0 1 2", "row 0: 0 1\nrow 1: 0 1")
    with pytest.raises(TooFewEntities):
        autoprog.parse(text)


def test_parse_rejects_weights_off_the_layer_blocks():
    text = autoprog.emit(ann_document(layers=3, width=2))
    # the output layer reading the input layer, and layer 1 reading layer 2
    for row, entry in (("row 4: ", "0=0.5 "), ("row 2: ", "4=0.5 ")):
        with pytest.raises(UnsupportedKind):
            autoprog.parse(_swap(text, row, row + entry))
    # off the blocks, a finite weight too large for the grid is out of range
    with pytest.raises(OutOfRange):
        autoprog.parse(_swap(text, "row 4: ", "row 4: 0=1e300 "))


def test_parse_drops_off_block_weights_that_round_to_zero():
    doc = ann_document(layers=3, width=2)
    text = autoprog.emit(doc)
    parsed = autoprog.parse(_swap(text, "row 4: ", "row 4: 0=0.000000000001 "))
    assert parsed == doc
    assert autoprog.emit(parsed) == text


def test_parse_sizes_nothing_by_an_unchecked_p():
    # a short document that claims a million entities: the init line
    # disagrees before any p-sized array exists
    text = _swap(autoprog.emit(ca_document(init="010")), "p 3", "p 1000000")
    assert len(text) < 200
    tracemalloc.start()
    try:
        with pytest.raises(SemanticError):
            autoprog.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(SemanticError):
        autoprog.parse(_swap(text, "p 1000000", "p 99999999999"))


def test_parse_sizes_no_weight_blocks_by_layers_that_do_not_make_p():
    # 127 bytes whose layers of width 30,000 would ask for 6.7 GiB of blocks
    text = (
        "amp 1\nkind ann\np 3\nstates 01\nschedule layered 2 30000\nmilieu:\nupdate:\n"
        "layers 2\nwidth 30000\nstrategy threshold\ninit 100\nsteps 1\n"
    )
    assert len(text) == 127
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="^line 9: .*2 layers of width 30000 make 60000 entities, not 3"):
            autoprog.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("layers, width", [(1, 3), (0, 3), (2, 0)])
def test_parse_refuses_a_net_shape_on_its_width_line(layers, width):
    text = (
        "amp 1\nkind ann\np 3\nstates 01\nschedule layered %d %d\nmilieu:\nupdate:\n"
        "layers %d\nwidth %d\nstrategy threshold\ninit 100\nsteps 1\n" % (layers, width, layers, width)
    )
    with pytest.raises(BadDimensions, match="^line 9: need "):
        autoprog.parse(text)


def test_parse_refuses_a_net_past_the_weight_cap_before_sizing_it():
    # 60,128 bytes whose 2 layers of width 30,000 make p but would ask for 6.7 GiB of blocks
    text = (
        "amp 1\nkind ann\np 60000\nstates 01\nschedule layered 2 30000\nmilieu:\nupdate:\n"
        "layers 2\nwidth 30000\nstrategy threshold\ninit %s\nsteps 1\n" % ("0" * 60000)
    )
    assert len(text) == 60128
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="^line 9: 2 layers of width 30000 need 900000000 weights"):
            autoprog.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_ring_that_fails_to_bind_leaves_nothing_behind():
    # 3,104 bytes whose init matches p 3000 but whose milieu has no rows: the
    # rows are checked against ring_columns, with no p×p array
    text = _swap(autoprog.emit(ca_document(init="010")), "init 010", "init " + "0" * 3000)
    text = _swap(text, "p 3", "p 3000")
    text = "\n".join(line for line in text.splitlines() if not line.startswith("row ")) + "\n"
    assert len(text) == 3104
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedKind):
            autoprog.parse(text)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert left < 1 << 20


def test_parse_memory_follows_the_document_size():
    # a valid 3,000-cell ring: 73,664 bytes of text, where a dense milieu is 9 MB
    doc = ca_document(init="0110" * 750)
    text = autoprog.emit(doc)
    assert len(text) == 73_664
    tracemalloc.start()
    try:
        parsed = autoprog.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == doc
    assert peak < 5 << 20


def test_parse_memory_streams_the_lines():
    # a 10x60 net: 545,142 bytes of text, read one line at a time
    doc = ann_document(layers=10, width=60, steps=1)
    text = autoprog.emit(doc)
    assert len(text) == 545_142
    tracemalloc.start()
    try:
        parsed = autoprog.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == doc
    assert peak < 7 * len(text)


MUTATION_BASES = {
    "ca": autoprog.emit(ca_document(target="0110110")),
    "ann": autoprog.emit(ann_document(target="101")),
}


@given(st.sampled_from(sorted(MUTATION_BASES)), DOCUMENT_EDITS)
@settings(max_examples=300, deadline=None)
def test_mutated_documents_parse_or_raise_typed_errors(kind, edits):
    try:
        autoprog.parse(mutate(MUTATION_BASES[kind], edits))
    except SemanticError as err:
        assert err.line is not None
    except MetastableError:
        pass


# --- interpreter -----------------------------------------------------------

def test_interpreter_matches_direct_running():
    doc = ca_document(rule=110, init=INIT, steps=STEPS)
    system = doc.system
    stepped = [core.render_state(system.current)]
    for t in range(doc.steps):
        system = core.step(system, t)
        stepped.append(core.render_state(system.current))
    text = autoprog.interpret_text(doc)
    lines = text.splitlines()
    assert lines == stepped
    assert len(lines) == STEPS + 1
    assert lines[0] == INIT
    assert lines[-1] == TARGET
    assert text.endswith("\n")


def test_interpreter_handles_layered_documents():
    doc = ann_document(layers=3, width=4)
    rows = core.run(doc.system, doc.steps)
    assert rows.shape == (doc.steps + 1, 12)
    assert np.array_equal(rows[0], doc.system.init)


# --- generation ------------------------------------------------------------


@pytest.mark.parametrize("backend,comment", [("c", "/* %s */"), ("python", "# %s")])
@pytest.mark.parametrize("docmaker", [ca_document, ann_document])
def test_generated_source_has_the_four_sections(backend, comment, docmaker):
    source = autoprog.generate(docmaker(), backend)
    for section in ("structure", "milieu", "update", "main loop"):
        assert comment % section in source


def test_generate_rejects_unknown_backends():
    with pytest.raises(NoBackendConfigured):
        autoprog.generate(ca_document(), "fortran")
    with pytest.raises(NoBackendConfigured):
        autoprog.default_toolchain("fortran")


def test_generated_programs_read_the_stored_wiring():
    # a ring computes its neighbours, and a net reads its weight blocks in order
    for doc in (ca_document(), ann_document(layers=4, width=3)):
        for backend in autoprog.BACKENDS:
            source = autoprog.generate(doc, backend)
            assert "ROW_START" not in source and "COL_INDEX" not in source
    # a net's doubles are decimal text, each value's repr in block order, read at start-up
    system = ann_document(layers=4, width=3).system
    values = system.wiring.ravel().tolist()
    doc = autoprog.Document(system=system, steps=3)
    blocks = {"python": r'WEIGHT = list\(map\(float, """(.*?)"""', "c": r"WEIGHT_TEXT =(.*?);"}
    for backend, block in blocks.items():
        text = re.search(block, autoprog.generate(doc, backend), re.S)[1]
        tokens = text.replace("\\n", " ").replace('"', " ").split()
        assert tokens == [repr(v) for v in values]
        assert [float(token) for token in tokens] == values


def test_default_python_toolchain_skips_site_imports():
    # generated programs use only builtins, so the interpreter starts without site
    assert autoprog.default_toolchain("python").command.endswith(" -S {src}")


def test_default_c_toolchain_builds_at_o0_without_fp_contraction():
    # programs run for milliseconds, so the build is not optimised; fused
    # multiply-adds would round differently from the interpreter's sums
    command = autoprog.default_toolchain("c").command.split()
    assert "-O0" in command and "-ffp-contract=off" in command
    assert not any(flag.startswith("-O") and flag != "-O0" for flag in command)


@pytest.mark.skipif(not autoprog.toolchain_available("c"), reason="no C toolchain")
def test_generated_c_includes_no_header_and_builds_without_warnings(tmp_path):
    # the program declares puts and strtod itself; gcc checks both against its built-ins
    flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-Wno-overlength-strings", "-ffp-contract=off"]
    for name, doc in (("ring", ca_document()), ("net", ann_document(layers=4, width=3))):
        source = autoprog.generate(doc, "c")
        assert "#include" not in source
        (tmp_path / (name + ".c")).write_text(source)
        command = ["cc", *flags, "-o", str(tmp_path / name), str(tmp_path / (name + ".c"))]
        built = subprocess.run(command, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr


# --- toolchain -------------------------------------------------------------


def test_toolchain_config_requires_src_placeholder():
    with pytest.raises(ParseError):
        autoprog.ToolchainConfig(command="cc -O2 prog.c")
    with pytest.raises(OutOfRange):
        autoprog.ToolchainConfig(command="cc {src}", timeout=0)


def test_toolchain_config_rejects_an_infinite_timeout():
    with pytest.raises(OutOfRange):
        autoprog.ToolchainConfig(command="cc {src}", timeout=float("inf"))


def test_toolchain_config_rejects_a_timeout_poll_cannot_wait():
    # poll() takes milliseconds as a C int, so 2147483.647 s is the longest wait
    autoprog.ToolchainConfig(command="cc {src}", timeout=(2**31 - 1) / 1000)
    for timeout in (2147484, 1e9):
        with pytest.raises(OutOfRange):
            autoprog.ToolchainConfig(command="cc {src}", timeout=timeout)


def test_toolchain_rejects_unknown_placeholders():
    config = autoprog.ToolchainConfig(command="cc {src} {flags}")
    with pytest.raises(ParseError):
        autoprog.compile_and_run("int main(void){}", config)
    # every way str.format can fail on a template is the same typed error
    for command in ("cat {src} {", "cat {src} }", "cat {src} {src!z}", "cat {src} {src.x}", "cat {src} {src[x]}"):
        with pytest.raises(ParseError):
            autoprog.compile_and_run("x", autoprog.ToolchainConfig(command=command))


def test_compile_and_run_returns_stdout():
    config = autoprog.ToolchainConfig(command="cat {src}")
    assert autoprog.compile_and_run("hello\n", config, suffix=".txt") == "hello\n"


def test_compile_and_run_reports_failures():
    config = autoprog.ToolchainConfig(command="test -f {src} && false")
    with pytest.raises(CompileFailed):
        autoprog.compile_and_run("x", config)


def test_compile_and_run_times_out():
    config = autoprog.ToolchainConfig(command="cat {src} && sleep 5", timeout=0.2)
    with pytest.raises(RunTimeout):
        autoprog.compile_and_run("x", config)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_compile_and_run_leaves_no_process_behind(tmp_path):
    """A timeout kills everything the toolchain started, not just its shell."""
    pid_file = tmp_path / "pid"
    config = autoprog.ToolchainConfig(
        command="true {src}; sleep 3.21 & echo $! > %s; wait" % pid_file, timeout=0.5
    )
    with pytest.raises(RunTimeout):
        autoprog.compile_and_run("x", config)
    pid = int(pid_file.read_text())

    def alive() -> bool:
        try:
            with open("/proc/%d/stat" % pid) as handle:
                stat = handle.read()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + 2.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not alive()


def _group_alive(pgid: int) -> bool:
    """Whether a process of group pgid is alive (not a zombie)."""
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_an_interrupted_toolchain_leaves_no_process_behind(monkeypatch):
    groups = []

    def interrupted(proc, timeout):
        groups.append(proc.pid)
        raise KeyboardInterrupt

    # the interrupt lands in the wait; a missed seam times out in 2 s instead
    monkeypatch.setattr(autoprog, "_communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        autoprog.compile_and_run("x", autoprog.ToolchainConfig("sleep 47.5; true {src}", timeout=2))
    assert not _group_alive(groups[0])


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs a pidfd")
def test_compile_and_run_wakes_on_exit_without_sleeping(monkeypatch):
    def sleep(seconds):
        raise AssertionError("time.sleep(%r) polled for the exit" % seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    config = autoprog.ToolchainConfig(command="cat {src}")
    for k in range(20):
        assert autoprog.compile_and_run("run %d\n" % k, config, suffix=".txt") == "run %d\n" % k


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_toolchain_that_closes_its_pipes_and_lingers_times_out(monkeypatch):
    groups, wait = [], autoprog._communicate

    def recorded(proc, timeout):
        groups.append(proc.pid)
        return wait(proc, timeout)

    monkeypatch.setattr(autoprog, "_communicate", recorded)
    config = autoprog.ToolchainConfig(command="exec >&- 2>&-; sleep 5; true {src}", timeout=0.5)
    with pytest.raises(RunTimeout):
        autoprog.compile_and_run("x", config)
    assert not _group_alive(groups[0])


def test_compile_and_run_falls_back_to_waiting_without_a_pidfd(monkeypatch):
    monkeypatch.delattr(os, "pidfd_open", raising=False)
    config = autoprog.ToolchainConfig(command="cat {src}")
    assert autoprog.compile_and_run("hello\n", config, suffix=".txt") == "hello\n"
    for command in ("cat {src} && sleep 5", "exec >&- 2>&-; sleep 5; true {src}"):
        with pytest.raises(RunTimeout):
            autoprog.compile_and_run("x", autoprog.ToolchainConfig(command=command, timeout=0.5))


def test_compile_failures_carry_diagnostics():
    config = autoprog.ToolchainConfig(command="ls {src}.missing")
    with pytest.raises(CompileFailed) as err:
        autoprog.compile_and_run("x", config)
    assert err.value.diagnostics


# --- verification ----------------------------------------------------------


def test_compare_spots_the_first_differing_line():
    report = autoprog.VerifyReport.compare("a\nb\nc\n", "a\nx\nc\n")
    assert not report.equal
    assert report.mismatch_line == 2
    report = autoprog.VerifyReport.compare("a\n", "a\nb\n")
    assert not report.equal
    assert report.mismatch_line == 2
    report = autoprog.VerifyReport.compare("a\nb\n", "a\n")
    assert not report.equal
    assert report.mismatch_line == 2
    report = autoprog.VerifyReport.compare("01\n10\n", "01\n10")
    assert not report.equal
    assert report.mismatch_line == 2
    assert autoprog.VerifyReport.compare("a\n", "a\n").equal


def _backend_documents():
    silent = ann.make_network(3, 2, "10")  # all-zero weights and biases: no milieu entries
    assert not silent.milieu.any() and not silent.update.bias.any()
    # programs sum every term, so zero and -0.0 weights must leave each sum as it is
    rng = make_rng(6)
    sparse = rng.uniform(-1, 1, (4, 5, 5)) * (rng.random((4, 5, 5)) < 0.5)
    holey = ann.make_network(5, 5, "10110", weights=sparse, bias=np.r_[np.zeros(5), rng.uniform(-1, 1, 20)])
    assert np.signbit(holey.wiring[holey.wiring == 0]).any()
    return [
        ca_document(rule=110, init=INIT, steps=STEPS),
        ann_document(),
        ca_document(rule=30, init="001", steps=6),  # row 0 wraps at both ends
        ca_document(rule=110, init="0010110", steps=0),
        ann_document(steps=0),
        autoprog.Document(system=silent, steps=4),
        ann_document(layers=4, width=3, steps=8),  # more than layers-1 steps: the sweep wraps
        autoprog.Document(system=holey, steps=6),
    ]


def test_python_backend_agrees_with_the_interpreter():
    for doc in _backend_documents():
        report = autoprog.verify(doc, "python")
        assert report.equal, (autoprog.emit(doc), report.mismatch_line)


@pytest.mark.skipif(not autoprog.toolchain_available("c"), reason="no C toolchain")
def test_c_backend_agrees_with_the_interpreter():
    for doc in _backend_documents():
        report = autoprog.verify(doc, "c")
        assert report.equal, (autoprog.emit(doc), report.mismatch_line)


# weights where a sum sits on the gate's threshold, next to it, or far past it
EDGE_WEIGHTS = (0.5, -0.5, 0.499999999, -0.499999999, 1e-9, -1e-9, -0.0, 0.0, 1.7e299, -1.7e299)


@st.composite
def edge_weight_documents(draw):
    layers, width = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    units = (layers - 1) * width  # every unit past the input layer
    pool = st.sampled_from(EDGE_WEIGHTS)
    weights = np.reshape(draw(st.lists(pool, min_size=units * width, max_size=units * width)), (-1, width, width))
    bias = [0.0] * width + draw(st.lists(pool, min_size=units, max_size=units))
    pattern = draw(st.text(alphabet="01", min_size=width, max_size=width))
    system = ann.make_network(layers, width, pattern, weights=weights, bias=bias)
    return autoprog.Document(system=system, steps=draw(st.integers(0, 2 * layers)))


@given(edge_weight_documents())
@settings(max_examples=40, deadline=None)
def test_python_backend_agrees_on_edge_case_weights(doc):
    assert autoprog.verify(autoprog.parse(autoprog.emit(doc)), "python").equal


@pytest.mark.skipif(not autoprog.toolchain_available("c"), reason="no C toolchain")
@given(edge_weight_documents())
@settings(max_examples=10, deadline=None)
def test_c_backend_agrees_on_edge_case_weights(doc):
    assert autoprog.verify(autoprog.parse(autoprog.emit(doc)), "c").equal


def test_verify_surfaces_wrong_programs():
    doc = ca_document()
    config = autoprog.ToolchainConfig(command="test -f {src} && echo nonsense")
    report = autoprog.verify(doc, "python", toolchain=config)
    assert not report.equal
    assert report.mismatch_line == 1
