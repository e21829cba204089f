"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function (or method) with a wrapper
that records a span: its name, the span it was called from, its start and end
times, and work counts read from its result. The package's own
modules look these names up at call time, so calls between modules are seen
too. Spans are kept in memory and summed into per-layer metrics when the run
ends; ``write`` saves them as tab-separated lines.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

from metastable import ann, autoprog, ca, core, search

# name -> (owner, attribute, work counts read from the result, or None)
LAYERS = {
    "search.random_search": (search, "random_search", None),
    "search.rule_for_attempt": (search, "rule_for_attempt", None),
    "search.score_table": (search, "score_table", None),
    "search.exhaustive_search": (search, "exhaustive_search", None),
    "ca.make_automaton": (ca, "make_automaton", None),
    "ca.RuleTable.propagate": (ca.RuleTable, "propagate", None),
    "core.modulate": (core, "modulate", None),
    "core.run": (core, "run", lambda result: (len(result) - 1,)),
    "ann.make_network": (ann, "make_network", None),
    "ann.forward": (ann, "forward", None),
    "ann.ThresholdGate.propagate": (ann.ThresholdGate, "propagate", None),
    "ann.train": (ann, "train", lambda result: (result[1].epochs_run, result[1].corrections)),
    "autoprog.emit": (autoprog, "emit", lambda result: (len(result.encode()),)),
    "autoprog.parse": (autoprog, "parse", None),
    "autoprog.generate": (autoprog, "generate", lambda result: (len(result.encode()),)),
    "autoprog.interpret_text": (autoprog, "interpret_text", None),
    "autoprog.compile_and_run": (autoprog, "compile_and_run", None),
    "autoprog.verify": (autoprog, "verify", None),
}

# metric name -> (layer, what, unit): what is calls, ms, self_ms, or work0 and
# work1 for the first and second work count
PER_LAYER = {
    "search.random_search.self_ms": ("search.random_search", "self_ms", "ms"),
    "search.rule_for_attempt.calls": ("search.rule_for_attempt", "calls", "count"),
    "search.rule_for_attempt.ms": ("search.rule_for_attempt", "ms", "ms"),
    "search.score_table.calls": ("search.score_table", "calls", "count"),
    "search.score_table.ms": ("search.score_table", "ms", "ms"),
    "search.exhaustive_search.ms": ("search.exhaustive_search", "ms", "ms"),
    "ca.make_automaton.calls": ("ca.make_automaton", "calls", "count"),
    "ca.make_automaton.ms": ("ca.make_automaton", "ms", "ms"),
    "ca.RuleTable.propagate.calls": ("ca.RuleTable.propagate", "calls", "count"),
    "ca.RuleTable.propagate.ms": ("ca.RuleTable.propagate", "ms", "ms"),
    "core.modulate.calls": ("core.modulate", "calls", "count"),
    "core.modulate.ms": ("core.modulate", "ms", "ms"),
    "core.run.calls": ("core.run", "calls", "count"),
    "core.run.steps": ("core.run", "work0", "count"),
    "core.run.self_ms": ("core.run", "self_ms", "ms"),
    "ann.make_network.self_ms": ("ann.make_network", "self_ms", "ms"),
    "ann.forward.calls": ("ann.forward", "calls", "count"),
    "ann.forward.ms": ("ann.forward", "ms", "ms"),
    "ann.ThresholdGate.propagate.ms": ("ann.ThresholdGate.propagate", "ms", "ms"),
    "ann.train.self_ms": ("ann.train", "self_ms", "ms"),
    "ann.train.epochs": ("ann.train", "work0", "count"),
    "ann.train.corrections": ("ann.train", "work1", "count"),
    "autoprog.emit.ms": ("autoprog.emit", "ms", "ms"),
    "autoprog.emit.bytes": ("autoprog.emit", "work0", "bytes"),
    "autoprog.parse.ms": ("autoprog.parse", "ms", "ms"),
    "autoprog.generate.ms": ("autoprog.generate", "ms", "ms"),
    "autoprog.generate.bytes": ("autoprog.generate", "work0", "bytes"),
    "autoprog.interpret_text.ms": ("autoprog.interpret_text", "ms", "ms"),
    "autoprog.compile_and_run.ms": ("autoprog.compile_and_run", "ms", "ms"),
    "autoprog.verify.self_ms": ("autoprog.verify", "self_ms", "ms"),
}
PEAK_ALLOC = "core.modulate.peak_alloc_mb"


class Tracer:
    """Records spans while ``on`` is true; wrappers pass straight through otherwise."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [layer, parent index, start, end, work]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        for name, (owner, attr, work) in LAYERS.items():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, original, work):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, time.perf_counter(), 0.0, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        return traced

    def metrics(self) -> dict[str, dict]:
        """Sum the spans into every per-layer metric except the allocation peak."""
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        child = dict.fromkeys(LAYERS, 0.0)
        work = {name: [0, 0] for name in LAYERS}
        for name, parent, start, end, count in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
            if count is not None:
                for i, c in enumerate(count):
                    work[name][i] += c
        out = {}
        for metric, (layer, what, unit) in PER_LAYER.items():
            if what == "calls":
                value = calls[layer]
            elif what == "ms":
                value = total[layer] * 1e3
            elif what == "self_ms":
                value = (total[layer] - child[layer]) * 1e3
            else:
                value = work[layer][int(what[-1])]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str):
        with open(path, "w") as handle:
            handle.write("index\tlayer\tparent\tstart_s\tend_s\twork\n")
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                handle.write("%d\t%s\t%d\t%.9f\t%.9f\t%s\n" % (i, name, parent, start, end, count))


class ModulatePeak:
    """The largest allocation peak inside one ``core.modulate`` call.

    Runs under ``tracemalloc``, which slows every allocation, so it is used
    in a pass of its own after the timed one.
    """

    def __init__(self):
        self.peak = 0

    def __enter__(self):
        self._original = core.modulate
        original = self._original

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        core.modulate = measured
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        core.modulate = self._original
        return False
