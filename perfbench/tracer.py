"""Per-layer timings for the traced run, taken from outside the package.

``install`` replaces each public function of the six ``crn1d`` modules with
a timing wrapper at every module attribute that binds it (the defining
module and every ``from .x import f`` site).  Untraced runs never import
this module.  The cli command handlers (``cmd_*``) stay unwrapped: their
time is the self time of ``cli.main`` (argument parsing, JSON building and
emission).  Times are CPU time of the process, as in the untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import process_time

MODULES = ("network", "arrows", "classify", "numeric", "witness", "cli")
WITNESS_SPANS = ("witness.witness_three", "witness.witness_two_general")
ENUMERATE_SPAN = "cli.main[enumerate]"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # outermost spans only, so recursion is not double counted
        self.self_time: Counter = Counter()  # minus the time of directly nested spans
        self.active: Counter = Counter()
        self.child = [0.0]  # time of spans nested in the current span
        self.nested: Counter = Counter()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                if argv and argv[0] == "enumerate":
                    span = ENUMERATE_SPAN
            outer_child = tracer.child
            tracer.child = [0.0]
            tracer.active[span] += 1
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                tracer.active[span] -= 1
                tracer.calls[span] += 1
                tracer.self_time[span] += elapsed - tracer.child[0]
                outer_child[0] += elapsed
                tracer.child = outer_child
                if not tracer.active[span]:
                    tracer.total[span] += elapsed
                    if span == "classify.classify" and tracer.active[ENUMERATE_SPAN]:
                        tracer.nested["classify_in_enumerate_s"] += elapsed
                if span == "numeric.eval_g" and tracer.active["numeric.find_roots"]:
                    tracer.nested["eval_g_in_find_roots"] += 1
                if span == "numeric.find_roots" and any(tracer.active[w] for w in WITNESS_SPANS):
                    tracer.nested["find_roots_in_witness"] += 1

        return wrapper

    def ms(self, name: str) -> float:
        return 1000.0 * self.total[name]

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_time[name]


def public_functions():
    """{function: 'module.name'} for the public functions of the six modules."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"crn1d.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if short == "cli" and attr.startswith("cmd_"):
                continue
            out[obj] = f"{short}.{attr}"
    return out


def install(tracer: Tracer) -> int:
    """Wrap every binding of every public function; returns the bindings replaced."""
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in public_functions().items()}
    replaced = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "crn1d" or modname.startswith("crn1d.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                replaced += 1
    return replaced


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per round of the workload."""
    per = 1.0 / rounds

    def calls(name):
        return tracer.calls[name] * per, "calls/round"

    def ms(name):
        return tracer.ms(name) * per, "ms/round"

    def self_ms(name):
        return tracer.self_ms(name) * per, "ms/round"

    solves = tracer.calls["numeric.find_roots"]
    witnesses = sum(tracer.calls[w] for w in WITNESS_SPANS)
    enumerate_ms = tracer.ms(ENUMERATE_SPAN) - 1000.0 * tracer.nested["classify_in_enumerate_s"]
    return {
        "network.parse_network.calls": calls("network.parse_network"),
        "network.parse_network.ms": ms("network.parse_network"),
        "network.one_dim_structure.calls": calls("network.one_dim_structure"),
        "network.one_dim_structure.ms": ms("network.one_dim_structure"),
        "arrows.ad_count.calls": calls("arrows.ad_count"),
        "arrows.ad_count.ms": ms("arrows.ad_count"),
        "arrows.diagram_pair_witnesses.ms": ms("arrows.diagram_pair_witnesses"),
        "classify.classify.calls": calls("classify.classify"),
        "classify.classify.self_ms": self_ms("classify.classify"),
        "classify.sufficient_two_test.ms": ms("classify.sufficient_two_test"),
        "classify.known_issue_warnings.ms": ms("classify.known_issue_warnings"),
        "cli.enumerate.generate_ms": (enumerate_ms * per, "ms/round"),
        "cli.main.self_ms": ((tracer.self_ms("cli.main") + tracer.self_ms(ENUMERATE_SPAN)) * per, "ms/round"),
        "numeric.critical_points.calls": calls("numeric.critical_points"),
        "numeric.critical_points.ms": ms("numeric.critical_points"),
        "numeric.find_roots.calls": calls("numeric.find_roots"),
        "numeric.find_roots.self_ms": self_ms("numeric.find_roots"),
        "numeric.eval_g.calls": calls("numeric.eval_g"),
        "numeric.eval_g.ms": ms("numeric.eval_g"),
        "numeric.eval_g_per_solve": (tracer.nested["eval_g_in_find_roots"] / solves if solves else 0.0, "ratio"),
        "numeric.oracle_count.ms": ms("numeric.oracle_count"),
        "numeric.verify_witness.calls": calls("numeric.verify_witness"),
        "numeric.verify_witness.ms": ms("numeric.verify_witness"),
        "witness.witness_three.self_ms": self_ms("witness.witness_three"),
        "witness.witness_two_general.self_ms": self_ms("witness.witness_two_general"),
        "witness.choose_K_three.self_ms": self_ms("witness.choose_K_three"),
        "witness.find_roots_per_witness": (
            tracer.nested["find_roots_in_witness"] / witnesses if witnesses else 0.0,
            "ratio",
        ),
    }
