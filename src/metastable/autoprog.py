"""Model programs: a text form for bound systems, plus interpreter and codegen.

A model-program document captures one system and a step count in a
line-oriented text format (sections in fixed order: amp, kind, p, states,
schedule, milieu, update, init, steps, then an optional target). ``parse``
and ``emit`` convert between the text and a ``Document``; ``interpret_text``
runs the document in process; ``generate`` turns it into a standalone C or
Python program; ``compile_and_run`` hands generated source to a toolchain; and
``verify`` checks that the external route prints exactly what the in-process
route computes, bit for bit.

Malformed text raises ``ParseError``, among it ``row`` or ``bias`` lines that
do not ascend. Text that parses but describes something invalid (an index out
of range, a bad state character) raises ``SemanticError``. Both carry the line
they were read from. Documents whose milieu or schedule break a system
invariant raise the same typed errors as direct construction does, before
anything is sized by them, and a net's shape errors name its ``width`` line.
A ring whose rows are not its ring, or a net weight off its layer blocks that
does not round to 0, raises ``UnsupportedKind``. A target is checked after
binding, against the bound system's width.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import selectors
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from array import array

import numpy as np

from . import ann, ca, core
from .errors import (
    BadCharacter,
    BadDimensions,
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
    """A fresh bound system (current == init, where every route starts), its step count and an optional goal."""

    system: core.MetastableSystem
    steps: int
    target: np.ndarray | None = None

    def __post_init__(self):
        core.check_steps(self.steps)
        if not np.array_equal(self.system.init, self.system.current):
            raise SemanticError("only fresh systems (current == init) have a text form")
        if self.target is not None:
            self.target = core.state_vector(self.target, self.system.width, "target")

    __eq__ = core.fields_equal


# --- parsing ---------------------------------------------------------------


class _Reader:
    """Lines as ``str.splitlines`` cuts them, with comments stripped and blanks
    dropped, plus line numbers; each is split into tokens as the parser asks for it."""

    def __init__(self, text: str):
        tokens = (line.split("#", 1)[0].split() for line in text.splitlines())
        self.items = ((number, line) for number, line in enumerate(tokens, 1) if line)
        self.item = next(self.items, None)

    def at(self, key: str) -> bool:
        return self.item is not None and self.item[1][0] == key

    def take(self, what: str):
        if self.item is None:
            raise ParseError("expected %s but the document ended" % what)
        item, self.item = self.item, next(self.items, None)
        return item


def _line(reader: _Reader, key: str, count: int | None = 1) -> tuple[int, list[str]]:
    """The next line's number and values; it opens with ``key`` and holds ``count`` values, or any if None."""
    number, tokens = reader.take("'%s' line" % key)
    if tokens[0] != key:
        raise ParseError("expected '%s', got '%s'" % (key, tokens[0]), number)
    if count is not None and len(tokens) != count + 1:
        raise ParseError("'%s' takes %d value(s)" % (key, count), number)
    return number, tokens[1:]


def _count(reader: _Reader, key: str, what: str) -> tuple[int, int]:
    """The number of a '<key> <count>' line, and its integer."""
    number, (text,) = _line(reader, key)
    return number, _int(text, what, number)


def _indexed(reader: _Reader, key: str, p: int, usage: str, end: str = ""):
    """Each following '<key> <i><end> ...' line as (number, i, values after i); i ascends within [0, p)."""
    last, what = -1, "%s index" % key
    while reader.at(key):
        number, tokens = reader.take(key)
        if len(tokens) < 2 or not tokens[1].endswith(end):
            raise ParseError(usage, number)
        i = _int(tokens[1].removesuffix(end), what, number)
        if not 0 <= i < p:
            raise SemanticError("%s index %d out of range for %d entities" % (key, i, p), number)
        if i <= last:
            raise ParseError("%s %d repeats or is out of order" % (key, i), number)
        last = i
        yield number, i, tokens[2:]


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
        raise SemanticError("%s must be finite, got '%s'" % (what, text), number)
    return value


def _state_vector(line: tuple[int, list[str]], key: str, expected: int) -> np.ndarray:
    """The state of ``expected`` cells on a '<key> <0s and 1s>' line, as ``_line`` returned it."""
    number, (text,) = line
    try:
        return core.state_vector(text, expected, key)
    except (BadCharacter, EmptyInput, DimensionMismatch) as err:
        raise SemanticError("%s: %s" % (key, err), number) from None


def _parse_milieu(reader: _Reader, p: int, weighted: bool) -> tuple[array, array, array]:
    """The milieu's entries as packed row, column and weight arrays; p-sized
    arrays wait until the init line has shown that p is real."""
    rows, cols, weights = array("q"), array("q"), array("d")
    for number, i, entries in _indexed(reader, "row", p, "milieu rows look like 'row <i>: <entries>'", ":"):
        seen: set[int] = set()
        for entry in entries:
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
                raise SemanticError("column index %d out of range for %d entities" % (j, p), number)
            if j in seen:
                raise SemanticError("column %d repeats in row %d" % (j, i), number)
            seen.add(j)
            rows.append(i)
            cols.append(j)
            weights.append(w)
    return rows, cols, weights


def parse(text: str) -> Document:
    """Read one model-program document; see the module docstring for errors."""
    reader = _Reader(text)

    number, (version,) = _line(reader, "amp")
    if version != AMP_VERSION:
        raise ParseError("unsupported amp version %s" % version, number)

    number, (kind,) = _line(reader, "kind")
    if kind not in ("ca", "ann"):
        raise SemanticError("kind must be ca or ann, got '%s'" % kind, number)

    number, p = _count(reader, "p", "entity count")
    if p < 1:
        raise SemanticError("entity count must be positive, got %d" % p, number)

    number, (alphabet,) = _line(reader, "states")
    if alphabet != "01":
        raise SemanticError("only the 01 state alphabet is supported, got '%s'" % alphabet, number)

    number, schedule = _line(reader, "schedule", None)
    # a ring's line is checked against its kind just before binding
    if schedule == ["synchronous"]:
        layered = None
    elif len(schedule) == 3 and schedule[0] == "layered":
        layered = (_int(schedule[1], "layer count", number), _int(schedule[2], "layer width", number))
    else:
        raise ParseError("schedule is 'synchronous' or 'layered <layers> <width>'", number)

    _line(reader, "milieu:", 0)
    rows, cols, weights = _parse_milieu(reader, p, weighted=(kind == "ann"))
    _line(reader, "update:", 0)

    if kind == "ca":
        number, bits = _line(reader, "table", None)
        if len(bits) != 8:
            raise SemanticError("a rule table needs exactly 8 entries, got %d" % len(bits), number)
        bits = [_int(tok, "table entry", number) for tok in bits]
        if any(b not in (0, 1) for b in bits):
            raise SemanticError("table entries must be 0 or 1", number)
        update: core.UpdateFunction = ca.RuleTable(sum(b << code for code, b in enumerate(bits)))
    else:
        layers = _count(reader, "layers", "layer count")[1]
        number, width = _count(reader, "width", "layer width")
        if (layers, width) != layered:
            raise SemanticError("update section disagrees with the schedule line", number)
        try:
            core.check_layers(layers, width, p)  # before anything is sized by them
        except (BadDimensions, DimensionMismatch, OutOfRange) as err:
            raise type(err)("line %d: %s" % (number, err)) from None
        number, (strategy,) = _line(reader, "strategy")
        if strategy != "threshold":
            raise SemanticError("the only supported gate strategy is 'threshold'", number)
        usage = "bias lines look like 'bias <i> <w>'"
        biased, biases = array("q"), array("d")
        for number, i, values in _indexed(reader, "bias", p, usage):
            if len(values) != 1:
                raise ParseError(usage, number)
            biases.append(_float(values[0], "bias", number))
            if i < width:
                raise SemanticError("input-layer entity %d cannot carry a bias" % i, number)
            biased.append(i)

    init = _state_vector(_line(reader, "init"), "init", p)

    number, steps = _count(reader, "steps", "step count")
    if steps < 0:
        raise SemanticError("step count must not be negative, got %d" % steps, number)

    target = _line(reader, "target") if reader.at("target") else None

    if reader.item is not None:
        raise ParseError("unexpected content after the document", reader.item[0])

    # init has p cells, so p is no larger than the document: build the arrays
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    wiring = None
    if kind == "ann":
        # block l-1 holds the weights from layer l-1 into layer l; any other
        # entry must round to 0 on the weight grid, and is then dropped
        layer, weights = rows // width, np.array(weights)
        inside = layer == cols // width + 1
        wiring = np.zeros((layers - 1, width, width))
        wiring[layer[inside] - 1, rows[inside] % width, cols[inside] % width] = weights[inside]
        bias = np.zeros(p, dtype=np.float64)
        bias[np.array(biased, dtype=np.int64)] = biases
        update = ann.ThresholdGate(bias=bias)

    if kind == "ca" and layered is not None:
        raise UnsupportedKind("cell populations update synchronously")
    structural = core.Structural(init=init, current=init.copy())
    operational = core.Operational(update=update, wiring=wiring)
    system = core.modulate(structural, operational)  # a ring has at least 3 cells past here
    if kind == "ca":
        # the whole ring at once: every entry as row*p + col, in ascending order
        ring = np.arange(p)[:, None] * p + core.ring_columns(p)
        if not np.array_equal(np.sort(rows * p + cols), np.sort(ring, axis=None)):
            raise UnsupportedKind("milieu is not the ring each cell needs")
    elif core.quantize(weights[~inside]).any():
        raise UnsupportedKind("weights must connect consecutive layers only")
    if target is not None:
        target = _state_vector(target, "target", system.width)
    return Document(system=system, steps=steps, target=target)


# --- emission --------------------------------------------------------------


def emit(doc: Document) -> str:
    """Render a document to its canonical text; parse(emit(d)) == d."""
    system = doc.system
    lines = [
        "amp %s" % AMP_VERSION,
        "kind %s" % system.kind,
        "p %d" % system.count,
        "states 01",
    ]
    lines += [schedule_line(system), "milieu:"]
    width = system.width
    if system.kind == "ca":
        rows = [" ".join(map(str, row)) for row in np.sort(core.ring_columns(system.count), axis=1).tolist()]
    else:
        # the blocks' rows, in order, are units width, width+1, ...; the input layer reads nothing
        rows = [""] * width
        for u, row in enumerate(system.wiring.reshape(-1, width).tolist(), width):
            first = (u // width - 1) * width  # the layer before u's own
            rows.append(" ".join(["%d=%.*f" % (first + j, core.WEIGHT_DECIMALS, w) for j, w in enumerate(row) if w]))
    lines += ["row %d: %s" % (i, entries) for i, entries in enumerate(rows) if entries]
    lines.append("update:")
    if system.kind == "ca":
        lines.append("table %s" % " ".join(str(b) for b in system.update.bits))
    else:
        lines += ["layers %d" % (system.count // width), "width %d" % width, "strategy threshold"]
        biases = system.update.bias.tolist()[width:]
        lines += ["bias %d %.*f" % (i, core.WEIGHT_DECIMALS, b) for i, b in enumerate(biases, width)]
    lines.append("init %s" % core.render_state(system.init))
    lines.append("steps %d" % doc.steps)
    if doc.target is not None:
        lines.append("target %s" % core.render_state(doc.target))
    return "\n".join(lines) + "\n"


def schedule_line(system: core.MetastableSystem) -> str:
    """The text form's ``schedule`` line, which ``demodulate`` prints too."""
    if system.wiring is None:
        return "schedule synchronous"
    return "schedule layered %d %d" % (system.count // system.width, system.width)


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

    The range [lo, hi) that ``core.active`` gives step t is written as
    expressions that read the same in C and Python: all entities, or one layer.
    """

    loads = []

    def ints(name: str, values) -> str:
        return syntax["ints"] % {"name": name, "values": _wrap(values)}

    def doubles(name: str, values) -> str:
        # float() and strtod both round correctly, so the program reads back each repr as the same double
        values = list(map(repr, values.tolist()))
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
        consts += [("LAYERS", system.count // system.width), ("WIDTH", system.width)]
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


# Each backend once: the source file's suffix and the default toolchain command; how the language writes
# a constant, an int table, a double table as text read at start-up, and the break in a comment over two
# lines; value(u)'s body per kind, which gathers u's inputs from the stored wiring into the neighbourhood
# code or input sum and gates it into the new state; and the template, which in C declares the library
# functions it calls (puts, strtod) rather than include headers that every build would parse.
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
/* the two library functions the program calls, declared so that no header is parsed (C11 7.1.4) */
int puts(const char *);
double strtod(const char *, char **);

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
        if self.timeout > (2**31 - 1) / 1000:  # epoll_wait() takes its wait as a C int of milliseconds
            raise OutOfRange("toolchain timeout must be at most 2147483.647 s, got %r" % self.timeout)


def default_toolchain(backend: str) -> ToolchainConfig:
    return ToolchainConfig(command=_backend(backend)["command"])


def toolchain_available(backend: str) -> bool:
    """Whether the default toolchain for a backend can run here: its program is found."""
    return backend in BACKENDS and shutil.which(shlex.split(BACKENDS[backend]["command"])[0]) is not None


def _communicate(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """Both pipes read to their end once the shell has exited, or ``TimeoutExpired`` at the deadline. A pidfd
    wakes the wait when the shell exits; where there is none, ``Popen.wait`` polls once both pipes close."""
    deadline = time.monotonic() + timeout
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        exited = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # not Linux, or a kernel before 5.3
        exited = None
    try:
        with selectors.DefaultSelector() as selector:
            for source in chunks if exited is None else [*chunks, exited]:
                selector.register(source, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                for key, _ in selector.select(remaining):
                    data = b"" if key.fd == exited else os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
    finally:
        if exited is not None:
            os.close(exited)
    proc.wait(timeout=deadline - time.monotonic())  # at once where a pidfd saw the exit
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def compile_and_run(source: str, config: ToolchainConfig, suffix: str = ".c") -> str:
    """Write source to a scratch directory, run the toolchain, return stdout.

    The toolchain starts a new session; its process group is killed and reaped on every way out.
    """
    with tempfile.TemporaryDirectory(prefix="modelprog-", ignore_cleanup_errors=True) as scratch:
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
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = _communicate(proc, config.timeout)
            except subprocess.TimeoutExpired:
                raise RunTimeout("toolchain exceeded %.1fs" % config.timeout) from None
            finally:
                with contextlib.suppress(ProcessLookupError):  # the group has already gone
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # decoded as printed: no newline translation, and a byte that is not UTF-8 becomes U+FFFD
        stdout, stderr = (out.decode("utf-8", errors="replace") for out in (stdout, stderr))
        if proc.returncode != 0:
            raise CompileFailed(
                "toolchain exited with status %d" % proc.returncode,
                diagnostics=(stderr or stdout).strip(),
            )
        return stdout


# --- equivalence -----------------------------------------------------------


@dataclasses.dataclass
class VerifyReport:
    """Did the generated program print exactly what the interpreter computed."""

    equal: bool
    actual: str
    mismatch_line: int | None

    @staticmethod
    def compare(expected: str, actual: str) -> "VerifyReport":
        """``mismatch_line`` is the 1-based line of the first differing character, counted in
        ``expected``: interpreter text, whose only line break is ``\\n``. A line that differs only
        in how it ends (a missing final newline) is the line reported."""
        where = None if expected == actual else os.path.commonprefix([expected, actual]).count("\n") + 1
        return VerifyReport(equal=where is None, actual=actual, mismatch_line=where)


def verify(doc: Document, backend: str, toolchain: ToolchainConfig | None = None) -> VerifyReport:
    """Generate, build, run, and compare against the in-process trajectory."""
    expected = interpret_text(doc)
    source = generate(doc, backend)
    config = toolchain if toolchain is not None else default_toolchain(backend)
    actual = compile_and_run(source, config, suffix=_backend(backend)["suffix"])
    return VerifyReport.compare(expected, actual)
