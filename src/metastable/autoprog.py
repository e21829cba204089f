"""Model programs: a text form for bound systems, plus interpreter and codegen.

A model-program document captures one system and a step count in a
line-oriented text format (sections in fixed order: amp, kind, p, states,
schedule, milieu, update, init, steps, then an optional target). ``parse``
and ``emit`` convert between the text and a ``Document``; ``interpret_text``
runs the document in process; ``generate`` turns it into a standalone C or
Python program; ``compile_and_run`` hands generated source to a toolchain; and
``verify`` checks that the external route prints exactly what the in-process
route computes, bit for bit.

Malformed text raises ``ParseError`` with a line number. Text that parses but
describes something invalid (an index out of range, a bad state character)
raises ``SemanticError``. Documents whose milieu or schedule break a system
invariant raise the same typed errors as direct construction does; a ring
whose rows are not its ring, or a net weight off its layer blocks that does
not round to 0, raises ``UnsupportedKind``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
from array import array

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
    UnsupportedKind,
)

AMP_VERSION = "1"


@dataclasses.dataclass
class Document:
    """One bound system plus how long to run it and an optional goal state."""

    system: core.MetastableSystem
    steps: int
    target: np.ndarray | None = None

    def __post_init__(self):
        if self.target is not None:
            want = self.system.count if self.system.kind == "ca" else self.system.schedule.width
            self.target = core.state_vector(self.target, want, "target")

    __eq__ = core.fields_equal


def format_weight(value: float) -> str:
    """Weights travel as 9-decimal text; grid values survive the round trip."""
    return "%.*f" % (core.WEIGHT_DECIMALS, value)


# --- parsing ---------------------------------------------------------------


# One line as str.splitlines cuts it, then its break; the text's end adds one
# empty match, which reads as a blank line.
_BREAKS = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_LINE = re.compile("([^%s]*)(?:\r\n|[%s])?" % (_BREAKS, _BREAKS))


class _Reader:
    """Lines with comments stripped and blanks dropped, plus line numbers,
    split one at a time as the parser asks for them."""

    def __init__(self, text: str):
        tokens = (match[1].split("#", 1)[0].split() for match in _LINE.finditer(text))
        self.items = ((number, line) for number, line in enumerate(tokens, 1) if line)
        self.item = next(self.items, None)

    def peek(self):
        return self.item

    def take(self, what: str):
        if self.item is None:
            raise ParseError("expected %s but the document ended" % what)
        item, self.item = self.item, next(self.items, None)
        return item


def _scalar(reader: _Reader, key: str, count: int = 1) -> list[str]:
    number, tokens = reader.take("'%s' line" % key)
    if tokens[0] != key:
        raise ParseError("expected '%s', got '%s'" % (key, tokens[0]), number)
    if len(tokens) != count + 1:
        raise ParseError("'%s' takes %d value(s)" % (key, count), number)
    return tokens[1:]


def _count(reader: _Reader, key: str, what: str) -> int:
    """The integer on a '<key> <count>' line."""
    number, tokens = reader.take("'%s' line" % key)
    if tokens[0] != key or len(tokens) != 2:
        raise ParseError("expected '%s <count>'" % key, number)
    return _int(tokens[1], what, number)


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
        return core.state_vector(text, expected, what)
    except (BadCharacter, EmptyInput, DimensionMismatch) as err:
        raise SemanticError("%s: %s" % (what, err)) from None


def _parse_milieu(reader: _Reader, p: int, weighted: bool) -> tuple[array, array, array]:
    """The milieu's entries as packed row, column and weight arrays; p-sized
    arrays wait until the init line has shown that p is real."""
    rows, cols, weights = array("q"), array("q"), array("d")
    last_row = -1
    while True:
        item = reader.peek()
        if item is None or item[1][0] != "row":
            return rows, cols, weights
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
                w = 1.0
            if not 0 <= j < p:
                raise SemanticError("column index %d out of range for %d entities" % (j, p))
            if j in seen:
                raise SemanticError("column %d repeats in row %d" % (j, i))
            seen.add(j)
            rows.append(i)
            cols.append(j)
            weights.append(w)


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

    p = _count(reader, "p", "entity count")
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
    rows, cols, weights = _parse_milieu(reader, p, weighted=(kind == "ann"))

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
        update: core.UpdateFunction = ca.RuleTable(sum(b << code for code, b in enumerate(bits)))
    else:
        layers = _count(reader, "layers", "layer count")
        width = _count(reader, "width", "layer width")
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

    (init_text,) = _scalar(reader, "init")
    init = _state_vector(init_text, p, "init")

    steps = _count(reader, "steps", "step count")
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
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    wiring = None
    if kind == "ann":
        # block l-1 holds the weights from layer l-1 into layer l; any other
        # entry must round to 0 on the weight grid, and is then dropped. When
        # the layers do not make p, nothing is placed: modulate raises BadDimensions.
        layer, weights = rows // width, np.array(weights)
        inside = (layer == cols // width + 1) & (layers * width == p)
        wiring = np.zeros((layers - 1, width, width))
        wiring[layer[inside] - 1, rows[inside] % width, cols[inside] % width] = weights[inside]
        bias = np.zeros(p, dtype=np.float64)
        for i, w in biases:
            bias[i] = w
        update = ann.ThresholdGate(bias=bias)

    structural = core.Structural(init=init, current=init.copy())
    operational = core.Operational(update=update, wiring=wiring, schedule=schedule)
    system = core.modulate(structural, operational)  # a ring has at least 3 cells past here
    if kind == "ca":
        # the whole ring at once: every entry as row*p + col, in ascending order
        ring = np.arange(p)[:, None] * p + core.ring_columns(p)
        if not np.array_equal(np.sort(rows * p + cols), np.sort(ring, axis=None)):
            raise UnsupportedKind("milieu is not the ring each cell needs")
    elif core.quantize(weights[~inside]).any():
        raise UnsupportedKind("weights must connect consecutive layers only")
    return Document(system=system, steps=steps, target=target)


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
    if system.kind == "ca":
        rows = [" ".join(map(str, row)) for row in np.sort(core.ring_columns(system.count), axis=1).tolist()]
    else:
        # the blocks' rows, in order, are units width, width+1, ...; the input layer reads nothing
        width = schedule.width
        rows = [""] * width
        for u, weights in enumerate(system.wiring.reshape(-1, width).tolist(), width):
            first = (u // width - 1) * width  # the layer before u's own
            rows.append(" ".join("%d=%s" % (first + j, format_weight(w)) for j, w in enumerate(weights) if w))
    lines += ["row %d: %s" % (i, entries) for i, entries in enumerate(rows) if entries]
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


def interpret_text(doc: Document) -> str:
    """The trajectory as text, one state line per step, as programs print it."""
    rows = core.run(doc.system, doc.steps)
    return "".join(core.render_state(row) + "\n" for row in rows)


# --- source generation -----------------------------------------------------


def _wrap(values) -> str:
    """Int literals, 20 to a line, each followed by a comma."""
    values = [str(int(v)) for v in values]
    return "\n".join("    " + ", ".join(values[i : i + 20]) + "," for i in range(0, len(values), 20))


def _fields(doc: Document, syntax: dict) -> dict[str, str]:
    """What the backend's template fills in, written in the backend's syntax.

    The scheduled range [lo, hi) of step t is given as expressions that read
    the same in C and Python: all entities, or one layer.
    """

    loads = []

    def ints(name: str, values) -> str:
        return syntax["ints"] % {"name": name, "values": _wrap(values)}

    def doubles(name: str, values) -> str:
        # float() and strtod both round correctly, so the program reads back each repr as the same double
        values = [repr(float(v)) for v in values]
        lines = (syntax["text_line"] % " ".join(values[i : i + 8]) for i in range(0, len(values), 8))
        fill = {"name": name, "count": len(values), "lines": "\n".join(lines)}
        loads.append(syntax["load"] % fill)
        return syntax["doubles"] % fill

    system = doc.system
    consts = [("P", system.count), ("STEPS", doc.steps)]
    if system.kind == "ca":
        milieu = ""
        reads = ["cell u reads cells u-1, u and u+1, wrapping"]
        update = ints("TABLE", system.update.bits)
        note = ["neighbourhood code 4*left + 2*centre + right, looked up in the rule table"]
        lo, hi = "0", "P"
    else:
        consts += [("LAYERS", system.schedule.layers), ("WIDTH", system.schedule.width)]
        milieu = doubles("WEIGHT", system.wiring.ravel())
        reads = [
            "the layer blocks in order, block l-1 from layer l-1 into layer l: unit u",
            "weighs unit j of the layer before it by WEIGHT[(u - WIDTH) * WIDTH + j]",
        ]
        update = doubles("BIAS", system.update.bias)
        note = [
            "input sum: bias plus weighted previous-layer activations, in ascending",
            "entity order; the gate fires at 0.5 and above",
        ]
        lo, hi = "(t % (LAYERS - 1) + 1) * WIDTH", "(t % (LAYERS - 1) + 2) * WIDTH"
    return {
        "consts": "\n".join(syntax["const"] % item for item in consts),
        "init": _wrap(system.init),
        "reads": syntax["comment_break"].join(reads),
        "milieu": milieu,
        "note": syntax["comment_break"].join(note),
        "update": update,
        "load": "".join(loads),
        "value": textwrap.indent(syntax["value"][system.kind], "    "),
        "lo": lo,
        "hi": hi,
    }


# Each backend once: the source file's suffix and the default toolchain
# command; how the language writes a constant, an int table, a double table as
# text read at start-up, and the break in a comment over two lines; value(u)'s
# body per kind, which gathers u's inputs from the stored wiring into the
# neighbourhood code or input sum and gates it into the new state; and the template.
BACKENDS = {
    "c": {
        "suffix": ".c",
        # programs run for milliseconds, so -O2 only lengthens the build; it prints the same doubles
        "command": "cc -O0 -ffp-contract=off -o {bin} {src} && {bin}",
        "const": "#define %s %d",
        "ints": "static const int %(name)s[] = {\n%(values)s\n};\n",
        "doubles": "static double %(name)s[%(count)d];\nstatic char *%(name)s_TEXT =\n%(lines)s;\n",
        "text_line": '    "%s\\n"',
        "load": "    for (int i = 0; i < %(count)d; i++) %(name)s[i] = strtod(%(name)s_TEXT, &%(name)s_TEXT);\n",
        "comment_break": "\n   ",
        "value": {
            "ca": "return TABLE[4 * act[(u + P - 1) % P] + 2 * act[u] + act[(u + 1) % P]];",
            "ann": """\
double s = BIAS[u];
for (int j = 0; j < WIDTH; j++) s += WEIGHT[(u - WIDTH) * WIDTH + j] * act[(u / WIDTH - 1) * WIDTH + j];
return s >= 0.5;""",
        },
        "template": """\
/* structure */
#include <stdio.h>
#include <stdlib.h>

%(consts)s

static int act[P] = {
%(init)s
};
static int next_act[P];

/* milieu */
/* %(reads)s */
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
%(load)s    show(act);
    for (int t = 0; t < STEPS; t++) {
        int lo = %(lo)s, hi = %(hi)s;
        for (int u = lo; u < hi; u++) next_act[u] = value(u);
        for (int u = lo; u < hi; u++) act[u] = next_act[u];
        show(act);
    }
    return 0;
}
""",
    },
    "python": {
        "suffix": ".py",
        # generated programs use only builtins, so skip the site module's start-up
        "command": shlex.quote(sys.executable) + " -S {src}",
        "const": "%s = %d",
        "ints": "%(name)s = [\n%(values)s\n]\n",
        "doubles": '%(name)s = list(map(float, """\n%(lines)s\n""".split()))\n',
        "text_line": "    %s",
        "load": "",
        "comment_break": "\n# ",
        "value": {
            "ca": "return TABLE[4 * act[(u + P - 1) % P] + 2 * act[u] + act[(u + 1) % P]]",
            "ann": """\
s = BIAS[u]
for j in range(WIDTH):
    s += WEIGHT[(u - WIDTH) * WIDTH + j] * act[(u // WIDTH - 1) * WIDTH + j]
return 1 if s >= 0.5 else 0""",
        },
        "template": """\
# structure
%(consts)s
act = [
%(init)s
]

# milieu
# %(reads)s
%(milieu)s
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
""",
    },
}


def _backend(name: str) -> dict:
    if name not in BACKENDS:
        raise NoBackendConfigured("unknown backend '%s'; available: %s" % (name, ", ".join(BACKENDS)))
    return BACKENDS[name]


def generate(doc: Document, backend: str) -> str:
    """Standalone source that prints the document's trajectory, line by line."""
    syntax = _backend(backend)
    return syntax["template"] % _fields(doc, syntax)


def source_suffix(backend: str) -> str:
    return _backend(backend)["suffix"]


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
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise OutOfRange("toolchain timeout must be finite and positive, got %r" % self.timeout)


def default_toolchain(backend: str) -> ToolchainConfig:
    return ToolchainConfig(command=_backend(backend)["command"])


def toolchain_available(backend: str) -> bool:
    """Whether the default toolchain for a backend can run here: its program is found."""
    return backend in BACKENDS and shutil.which(shlex.split(BACKENDS[backend]["command"])[0]) is not None


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
        except (KeyError, IndexError, ValueError, AttributeError, TypeError) as err:
            # an unknown name or index, or a field that str.format cannot read
            raise ParseError("toolchain command has a bad placeholder: %s" % err) from None
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
