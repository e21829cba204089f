"""Populations of entities bound to update rules, and tools around them.

The package binds structural and operational descriptions into runnable
systems (ring cellular automata and layered threshold perceptrons), searches
rule spaces, trains networks with the perceptron rule, and round-trips
systems through a text form that can also be compiled to standalone C or
Python programs and checked for bit-exact agreement.
"""

from .ann import ThresholdGate, TrainingConfig, TrainingReport, make_network, threshold_activation, train
from .autoprog import (
    Document,
    ToolchainConfig,
    VerifyReport,
    compile_and_run,
    emit,
    generate,
    interpret,
    interpret_text,
    parse,
    verify,
)
from .ca import RuleTable, make_automaton
from .core import (
    LayeredSweep,
    MetastableSystem,
    Operational,
    Structural,
    Synchronous,
    advance,
    demodulate,
    match,
    modulate,
    parse_state_string,
    render_state,
    ring_milieu,
    run,
    step,
)
from .errors import MetastableError
from .search import Problem, SearchReport, exhaustive_search, random_search

__version__ = "0.1.0"

__all__ = [
    "Document",
    "LayeredSweep",
    "MetastableError",
    "MetastableSystem",
    "Operational",
    "Problem",
    "RuleTable",
    "SearchReport",
    "Structural",
    "Synchronous",
    "ThresholdGate",
    "ToolchainConfig",
    "TrainingConfig",
    "TrainingReport",
    "VerifyReport",
    "advance",
    "compile_and_run",
    "demodulate",
    "emit",
    "exhaustive_search",
    "generate",
    "interpret",
    "interpret_text",
    "make_automaton",
    "make_network",
    "match",
    "modulate",
    "parse",
    "parse_state_string",
    "random_search",
    "render_state",
    "ring_milieu",
    "run",
    "step",
    "threshold_activation",
    "train",
    "verify",
]
