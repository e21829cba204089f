"""Model programs: a text form for bound systems, plus interpreter and codegen.

A model-program document captures one system and a step count in a
line-oriented text format (sections in fixed order: amp, kind, p, states,
schedule, milieu, update, init, steps, then an optional target). ``parse``
and ``emit`` convert between the text and a ``Document``; ``interpret`` runs
the document in process; ``generate`` turns it into a standalone C or Python
program; ``compile_and_run`` hands generated source to a toolchain; and
``verify`` checks that the external route prints exactly what the in-process
route computes, bit for bit.

Malformed text raises ``ParseError`` with a line number. Text that parses but
describes something invalid (an index out of range, a bad state character)
raises ``SemanticError``. Documents whose milieu or schedule break a system
invariant raise the same typed errors as direct construction does.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap

import numpy as np

from . import ann, ca, core
from .errors import (
    BadCharacter,
    CompileFailed,
    DimensionMismatch,
    EmptyInput,
    NoBackendConfigured,
    OutOfRange,
    ParseError,
    RunTimeout,
    SemanticError,
    StateDomainViolation,
)

BACKENDS = ("c", "python")
DEFAULT_C_COMMAND = "cc -O2 -ffp-contract=off -o {bin} {src} && {bin}"
AMP_VERSION = "1"


@dataclasses.dataclass
class Document:
    """One bound system plus how long to run it and an optional goal state."""

    system: core.MetastableSystem
    steps: int
    target: np.ndarray | None = None

    def __post_init__(self):
        if self.target is None:
            return
        target = self.target
        if isinstance(target, str):
            target = core.parse_state_string(target)
        target = np.asarray(target)
        want = self.system.count if self.system.kind == "ca" else self.system.schedule.width
        if target.shape != (want,):
            raise DimensionMismatch(
                "target must hold %d states, got shape %s" % (want, target.shape)
            )
        if not (np.isin(target, core.BINARY)).all():
            raise StateDomainViolation("target states must be 0 or 1")
        self.target = target

    __eq__ = core.fields_equal


def format_weight(value: float) -> str:
    """Weights travel as 9-decimal text; grid values survive the round trip."""
    return "%.9f" % value


# --- parsing ---------------------------------------------------------------


class _Reader:
    """Lines with comments stripped and blanks dropped, plus line numbers."""

    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((number, line.split()))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self, what: str):
        if self.pos >= len(self.items):
            raise ParseError("expected %s but the document ended" % what)
        item = self.items[self.pos]
        self.pos += 1
        return item


def _scalar(reader: _Reader, key: str, count: int = 1) -> list[str]:
    number, tokens = reader.take("'%s' line" % key)
    if tokens[0] != key:
        raise ParseError("expected '%s', got '%s'" % (key, tokens[0]), number)
    if len(tokens) != count + 1:
        raise ParseError("'%s' takes %d value(s)" % (key, count), number)
    return tokens[1:]


def _int(text: str, what: str, number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s must be an integer, got '%s'" % (what, text), number) from None


def _float(text: str, what: str, number: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError("%s must be a number, got '%s'" % (what, text), number) from None
    if not math.isfinite(value):
        raise SemanticError("%s must be finite, got '%s'" % (what, text))
    return value


def _state_vector(text: str, expected: int, what: str) -> np.ndarray:
    try:
        vec = core.parse_state_string(text)
    except (BadCharacter, EmptyInput) as err:
        raise SemanticError("%s: %s" % (what, err)) from None
    if vec.size != expected:
        raise SemanticError("%s has %d cells, expected %d" % (what, vec.size, expected))
    return vec


def _parse_milieu(reader: _Reader, p: int, weighted: bool) -> list[tuple[int, int, float]]:
    """The milieu's ``(row, col, value)`` entries; p-sized arrays wait until
    the init line has shown that p is real."""
    entries: list[tuple[int, int, float]] = []
    last_row = -1
    while True:
        item = reader.peek()
        if item is None or item[1][0] != "row":
            return entries
        number, tokens = reader.take("milieu row")
        if len(tokens) < 2 or not tokens[1].endswith(":"):
            raise ParseError("milieu rows look like 'row <i>: <entries>'", number)
        i = _int(tokens[1][:-1], "row index", number)
        if not 0 <= i < p:
            raise SemanticError("row index %d out of range for %d entities" % (i, p))
        if i <= last_row:
            raise ParseError("milieu rows must appear in ascending order", number)
        last_row = i
        seen: set[int] = set()
        for entry in tokens[2:]:
            if weighted:
                if "=" not in entry:
                    raise ParseError("weighted entries look like '<j>=<w>'", number)
                j_text, w_text = entry.split("=", 1)
                j = _int(j_text, "column index", number)
                w = _float(w_text, "weight", number)
            else:
                j = _int(entry, "column index", number)
                w = 1
            if not 0 <= j < p:
                raise SemanticError("column index %d out of range for %d entities" % (j, p))
            if j in seen:
                raise SemanticError("column %d repeats in row %d" % (j, i))
            seen.add(j)
            entries.append((i, j, w))


def parse(text: str) -> Document:
    """Read one model-program document; see the module docstring for errors."""
    reader = _Reader(text)

    number, tokens = reader.take("amp header")
    if tokens[0] != "amp":
        raise ParseError("document must open with 'amp %s'" % AMP_VERSION, number)
    if tokens[1:] != [AMP_VERSION]:
        raise ParseError("unsupported amp version %s" % " ".join(tokens[1:]), number)

    (kind,) = _scalar(reader, "kind")
    if kind not in ("ca", "ann"):
        raise SemanticError("kind must be ca or ann, got '%s'" % kind)

    number, tokens = reader.take("'p' line")
    if tokens[0] != "p" or len(tokens) != 2:
        raise ParseError("expected 'p <count>'", number)
    p = _int(tokens[1], "entity count", number)
    if p < 1:
        raise SemanticError("entity count must be positive, got %d" % p)

    (alphabet,) = _scalar(reader, "states")
    if alphabet != "01":
        raise SemanticError("only the 01 state alphabet is supported, got '%s'" % alphabet)

    number, tokens = reader.take("'schedule' line")
    if tokens[0] != "schedule":
        raise ParseError("expected 'schedule', got '%s'" % tokens[0], number)
    if tokens[1:] == ["synchronous"]:
        schedule: core.Schedule = core.Synchronous()
    elif len(tokens) == 4 and tokens[1] == "layered":
        layers = _int(tokens[2], "layer count", number)
        width = _int(tokens[3], "layer width", number)
        if layers < 2 or width < 1:
            raise SemanticError("layered schedules need layers >= 2 and width >= 1")
        schedule = core.LayeredSweep(layers=layers, width=width)
    else:
        raise ParseError("schedule is 'synchronous' or 'layered <layers> <width>'", number)

    number, tokens = reader.take("'milieu:' header")
    if tokens != ["milieu:"]:
        raise ParseError("expected 'milieu:' section header", number)
    entries = _parse_milieu(reader, p, weighted=(kind == "ann"))

    number, tokens = reader.take("'update:' header")
    if tokens != ["update:"]:
        raise ParseError("expected 'update:' section header", number)

    if kind == "ca":
        number, tokens = reader.take("'table' line")
        if tokens[0] != "table":
            raise ParseError("expected 'table <8 bits>'", number)
        if len(tokens) != 9:
            raise SemanticError("a rule table needs exactly 8 entries, got %d" % (len(tokens) - 1))
        bits = tuple(_int(tok, "table entry", number) for tok in tokens[1:])
        if any(b not in (0, 1) for b in bits):
            raise SemanticError("table entries must be 0 or 1")
        update: core.UpdateFunction = ca.RuleTable(bits)
        fan_in = ca.FAN_IN
    else:
        number, tokens = reader.take("'layers' line")
        if tokens[0] != "layers" or len(tokens) != 2:
            raise ParseError("expected 'layers <count>'", number)
        layers = _int(tokens[1], "layer count", number)
        number, tokens = reader.take("'width' line")
        if tokens[0] != "width" or len(tokens) != 2:
            raise ParseError("expected 'width <count>'", number)
        width = _int(tokens[1], "layer width", number)
        if not isinstance(schedule, core.LayeredSweep) or (layers, width) != (
            schedule.layers,
            schedule.width,
        ):
            raise SemanticError("update section disagrees with the schedule line")
        (strategy,) = _scalar(reader, "strategy")
        if strategy != "threshold":
            raise SemanticError("the only supported gate strategy is 'threshold'")
        biases: list[tuple[int, float]] = []
        last_bias = -1
        while True:
            item = reader.peek()
            if item is None or item[1][0] != "bias":
                break
            number, tokens = reader.take("bias line")
            if len(tokens) != 3:
                raise ParseError("bias lines look like 'bias <i> <w>'", number)
            i = _int(tokens[1], "bias index", number)
            w = _float(tokens[2], "bias", number)
            if not 0 <= i < p:
                raise SemanticError("bias index %d out of range for %d entities" % (i, p))
            if i < width:
                raise SemanticError("input-layer entity %d cannot carry a bias" % i)
            if i <= last_bias:
                raise SemanticError("bias %d repeats or is out of order" % i)
            last_bias = i
            biases.append((i, w))
        fan_in = width + 1

    (init_text,) = _scalar(reader, "init")
    init = _state_vector(init_text, p, "init")

    number, tokens = reader.take("'steps' line")
    if tokens[0] != "steps" or len(tokens) != 2:
        raise ParseError("expected 'steps <count>'", number)
    steps = _int(tokens[1], "step count", number)
    if steps < 0:
        raise SemanticError("step count must not be negative, got %d" % steps)

    target = None
    item = reader.peek()
    if item is not None and item[1][0] == "target":
        (target_text,) = _scalar(reader, "target")
        goal_len = p if kind == "ca" else schedule.width
        target = _state_vector(target_text, goal_len, "target")

    item = reader.peek()
    if item is not None:
        raise ParseError("unexpected content after the document", item[0])

    # init has p cells, so p is no larger than the document: build the arrays
    milieu = np.zeros((p, p), dtype=np.float64 if kind == "ann" else np.int64)
    for i, j, w in entries:
        milieu[i, j] = w
    if kind == "ann":
        bias = np.zeros(p, dtype=np.float64)
        for i, w in biases:
            bias[i] = w
        update = ann.ThresholdGate(bias=bias)

    structural = core.Structural(count=p, states=core.BINARY, init=init, current=init.copy())
    operational = core.Operational(update=update, milieu=milieu, schedule=schedule, fan_in=fan_in)
    return Document(system=core.modulate(structural, operational), steps=steps, target=target)


# --- emission --------------------------------------------------------------


def emit(doc: Document) -> str:
    """Render a document to its canonical text; parse(emit(d)) == d."""
    system = doc.system
    if not np.array_equal(system.init, system.current):
        raise SemanticError("only fresh systems (current == init) have a text form")
    lines = [
        "amp %s" % AMP_VERSION,
        "kind %s" % system.kind,
        "p %d" % system.count,
        "states 01",
    ]
    schedule = system.schedule
    if isinstance(schedule, core.Synchronous):
        lines.append("schedule synchronous")
    else:
        lines.append("schedule layered %d %d" % (schedule.layers, schedule.width))
    lines.append("milieu:")
    for i in range(system.count):
        cols = np.flatnonzero(system.milieu[i])
        if cols.size == 0:
            continue
        if system.kind == "ca":
            entries = " ".join(str(int(j)) for j in cols)
        else:
            entries = " ".join(
                "%d=%s" % (int(j), format_weight(system.milieu[i, j])) for j in cols
            )
        lines.append("row %d: %s" % (i, entries))
    lines.append("update:")
    if system.kind == "ca":
        lines.append("table %s" % " ".join(str(b) for b in system.update.bits))
    else:
        lines.append("layers %d" % schedule.layers)
        lines.append("width %d" % schedule.width)
        lines.append("strategy threshold")
        for i in range(schedule.width, system.count):
            lines.append("bias %d %s" % (i, format_weight(system.update.bias[i])))
    lines.append("init %s" % core.render_state(system.init))
    lines.append("steps %d" % doc.steps)
    if doc.target is not None:
        lines.append("target %s" % core.render_state(doc.target))
    return "\n".join(lines) + "\n"


# --- interpretation --------------------------------------------------------


def interpret(doc: Document) -> np.ndarray:
    """Run the document in process; returns the (steps+1, count) trajectory."""
    return core.run(doc.system, doc.steps)


def interpret_text(doc: Document) -> str:
    """The trajectory as text, one state line per step, as programs print it."""
    rows = interpret(doc)
    return "".join(core.render_state(row) + "\n" for row in rows)


# --- source generation -----------------------------------------------------


def _wrap(values: list[str], per_line: int) -> str:
    lines = []
    for start in range(0, len(values), per_line):
        lines.append("    " + ", ".join(values[start : start + per_line]) + ",")
    return "\n".join(lines)


def _csr(system: core.MetastableSystem) -> tuple[list[int], list[int], list[float]]:
    """The milieu row by row: entity u reads entries row_start[u] .. row_start[u+1].

    A ring row lists its columns in code order, i-1, i, i+1 (wrapping), so
    folding the row as code = 2*code + state gives the code 4l+2c+r. A net
    row lists them in ascending order, the order in which the interpreter sums.
    """
    p = system.count
    if system.kind == "ca":
        rows = np.repeat(np.arange(p), 3)
        cols = core.ring_columns(p).ravel()
    else:
        rows, cols = np.nonzero(system.milieu)
    row_start = np.searchsorted(rows, np.arange(p + 1))
    return row_start.tolist(), cols.tolist(), system.milieu[rows, cols].tolist()


# The body of value(u) for each kind and backend: fold u's row into the
# neighbourhood code or the input sum, then gate it into the new state.
_VALUE = {
    ("ca", "c"): """\
int code = 0;
for (int k = ROW_START[u]; k < ROW_START[u + 1]; k++) code = 2 * code + act[COL_INDEX[k]];
return TABLE[code];""",
    ("ca", "python"): """\
code = 0
for j in ROW[u]:
    code = 2 * code + act[j]
return TABLE[code]""",
    ("ann", "c"): """\
double s = BIAS[u];
for (int k = ROW_START[u]; k < ROW_START[u + 1]; k++) s += COL_WEIGHT[k] * act[COL_INDEX[k]];
return s >= 0.5;""",
    ("ann", "python"): """\
s = BIAS[u]
for j, w in zip(ROW[u], COL_WEIGHT[ROW_START[u] : ROW_START[u + 1]]):
    s += w * act[j]
return 1 if s >= 0.5 else 0""",
}

# How each backend writes a constant, a table, and the break in a comment
# that runs over two lines. ISO C forbids empty initializers, so an empty C
# table is padded with one slot.
_SYNTAX = {
    "c": ("#define %s %d", "static const %(ctype)s %(name)s[] = {\n%(values)s\n};\n", ["0"], "\n   "),
    "python": ("%s = %d", "%(name)s = [\n%(values)s\n]\n", [], "\n# "),
}


def _fields(doc: Document, backend: str) -> dict[str, str]:
    """What the backend's template fills in, written in the backend's syntax.

    The scheduled range [lo, hi) of step t is given as expressions that read
    the same in C and Python: all entities, or one layer.
    """
    const, table, pad, comment_break = _SYNTAX[backend]
    system = doc.system
    row_start, col_index, col_weight = _csr(system)
    consts = [("P", system.count), ("STEPS", doc.steps)]
    milieu = [("int", "ROW_START", row_start), ("int", "COL_INDEX", col_index)]
    if system.kind == "ca":
        update = [("int", "TABLE", system.update.bits)]
        note = ["neighbourhood code 4*left + 2*centre + right, looked up in the rule table"]
        lo, hi = "0", "P"
    else:
        consts += [("LAYERS", system.schedule.layers), ("WIDTH", system.schedule.width)]
        milieu.append(("double", "COL_WEIGHT", col_weight))
        update = [("double", "BIAS", system.update.bias)]
        note = [
            "input sum: bias plus weighted previous-layer activations, in ascending",
            "entity order; the gate fires at 0.5 and above",
        ]
        lo, hi = "(t % (LAYERS - 1) + 1) * WIDTH", "(t % (LAYERS - 1) + 2) * WIDTH"

    def tables(items) -> str:
        text = ""
        for ctype, name, values in items:
            if ctype == "double":
                # repr round-trips doubles exactly and reads as a literal in both C and Python
                literals = _wrap([repr(float(v)) for v in values] or pad, 8)
            else:
                literals = _wrap([str(int(v)) for v in values] or pad, 20)
            text += table % {"ctype": ctype, "name": name, "values": literals}
        return text

    return {
        "consts": "\n".join(const % item for item in consts),
        "init": _wrap([str(int(v)) for v in system.init], 20),
        "milieu": tables(milieu),
        "note": comment_break.join(note),
        "update": tables(update),
        "value": textwrap.indent(_VALUE[system.kind, backend], "    "),
        "lo": lo,
        "hi": hi,
    }


def _generate_c(doc: Document) -> str:
    return """\
/* structure */
#include <stdio.h>

%(consts)s

static int act[P] = {
%(init)s
};
static int next_act[P];

/* milieu */
/* row-compressed wiring: entity u reads entries ROW_START[u] .. ROW_START[u+1] */
%(milieu)s
/* update */
/* %(note)s */
%(update)s
static int value(int u) {
%(value)s
}

/* main loop */
static void show(const int *v) {
    char line[P + 1];
    for (int i = 0; i < P; i++) line[i] = (char)('0' + v[i]);
    line[P] = '\\0';
    puts(line);
}

int main(void) {
    show(act);
    for (int t = 0; t < STEPS; t++) {
        int lo = %(lo)s, hi = %(hi)s;
        for (int u = lo; u < hi; u++) next_act[u] = value(u);
        for (int u = lo; u < hi; u++) act[u] = next_act[u];
        show(act);
    }
    return 0;
}
""" % _fields(doc, "c")


def _generate_python(doc: Document) -> str:
    return """\
# structure
%(consts)s
act = [
%(init)s
]

# milieu
# row-compressed wiring: entity u reads entries ROW_START[u] .. ROW_START[u+1]
%(milieu)s# the same rows cut out once, one list of columns per entity
ROW = [COL_INDEX[ROW_START[u] : ROW_START[u + 1]] for u in range(P)]

# update
# %(note)s
%(update)s
def value(u):
%(value)s

# main loop
def show(v):
    print("".join(["01"[x] for x in v]))

show(act)
for t in range(STEPS):
    lo, hi = %(lo)s, %(hi)s
    act[lo:hi] = [value(u) for u in range(lo, hi)]
    show(act)
""" % _fields(doc, "python")


def generate(doc: Document, backend: str) -> str:
    """Standalone source that prints the document's trajectory, line by line."""
    if backend not in BACKENDS:
        raise NoBackendConfigured("unknown backend '%s'; available: %s" % (backend, ", ".join(BACKENDS)))
    return _generate_c(doc) if backend == "c" else _generate_python(doc)


def source_suffix(backend: str) -> str:
    if backend not in BACKENDS:
        raise NoBackendConfigured("unknown backend '%s'" % backend)
    return ".c" if backend == "c" else ".py"


# --- toolchain -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ToolchainConfig:
    """One shell command that builds and runs a source file.

    The command must mention {src}; {bin} and {dir} are optional and point
    into a scratch directory that exists for the duration of the call.
    """

    command: str
    timeout: float = 60.0

    def __post_init__(self):
        if "{src}" not in self.command:
            raise ParseError("toolchain command must mention {src}")
        if not self.timeout > 0:
            raise OutOfRange("toolchain timeout must be positive, got %r" % self.timeout)


def default_toolchain(backend: str) -> ToolchainConfig:
    if backend == "c":
        return ToolchainConfig(command=DEFAULT_C_COMMAND)
    if backend == "python":
        return ToolchainConfig(command=shlex.quote(sys.executable) + " {src}")
    raise NoBackendConfigured("unknown backend '%s'" % backend)


def toolchain_available(backend: str) -> bool:
    """Whether the default toolchain for a backend can run here."""
    if backend == "python":
        return True
    if backend == "c":
        return shutil.which("cc") is not None
    return False


def compile_and_run(source: str, config: ToolchainConfig, suffix: str = ".c") -> str:
    """Write source to a scratch directory, run the toolchain, return stdout.

    The toolchain starts a new session; on a timeout its process group is killed and reaped.
    """
    scratch = tempfile.mkdtemp(prefix="modelprog-")
    try:
        src = os.path.join(scratch, "program" + suffix)
        binary = os.path.join(scratch, "program")
        with open(src, "w") as handle:
            handle.write(source)
        try:
            command = config.command.format(
                src=shlex.quote(src), bin=shlex.quote(binary), dir=shlex.quote(scratch)
            )
        except (KeyError, IndexError) as err:
            raise ParseError("toolchain command has an unknown placeholder: %s" % err) from None
        with subprocess.Popen(
            command,
            shell=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=config.timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise RunTimeout("toolchain exceeded %.1fs" % config.timeout) from None
        if proc.returncode != 0:
            raise CompileFailed(
                "toolchain exited with status %d" % proc.returncode,
                diagnostics=(stderr or stdout).strip(),
            )
        return stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# --- equivalence -----------------------------------------------------------


@dataclasses.dataclass
class VerifyReport:
    """Did the generated program print exactly what the interpreter computed."""

    equal: bool
    expected: str
    actual: str
    mismatch_line: int | None

    @staticmethod
    def compare(expected: str, actual: str) -> "VerifyReport":
        if expected == actual:
            return VerifyReport(equal=True, expected=expected, actual=actual, mismatch_line=None)
        # Lines keep their terminators, so a line that differs only in how it
        # ends (a missing final newline) is the line reported.
        exp_lines = expected.splitlines(keepends=True)
        act_lines = actual.splitlines(keepends=True)
        where = min(len(exp_lines), len(act_lines)) + 1
        for k, (e, a) in enumerate(zip(exp_lines, act_lines), 1):
            if e != a:
                where = k
                break
        return VerifyReport(equal=False, expected=expected, actual=actual, mismatch_line=where)


def verify(doc: Document, backend: str, toolchain: ToolchainConfig | None = None) -> VerifyReport:
    """Generate, build, run, and compare against the in-process trajectory."""
    expected = interpret_text(doc)
    source = generate(doc, backend)
    config = toolchain if toolchain is not None else default_toolchain(backend)
    actual = compile_and_run(source, config, suffix=source_suffix(backend))
    return VerifyReport.compare(expected, actual)
