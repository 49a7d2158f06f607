"""Per-module spans taken from outside the program.

`Tracer` replaces public stakesim functions with timing wrappers at the
names their callers look up (a function imported into another module is
wrapped in that module too) and restores every original on exit. The
program's own code is not edited, so a traced run must write byte-identical
outputs; the harness checks that.

Each call records one span (name, start, end, parent index). Spans stay in
memory until the pass ends. A span's self time is its duration minus the
time its child spans cover; calls nest strictly in one thread, so children
never overlap and their durations add up to that covered time.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A dotted attribute names a class method.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("stakesim.cli", "cmd_run", "cli.run"),
    ("stakesim.cli", "cmd_sweep", "cli.sweep"),
    ("stakesim.cli", "load_scenario", "scenario.load_scenario"),
    ("stakesim.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("stakesim.engine", "scenario_hash", "scenario.scenario_hash"),
    ("stakesim.scenario", "build_timeline", "chain.build_timeline"),
    ("stakesim.engine", "build_timeline", "chain.build_timeline"),
    ("stakesim.econ", "gamma_value", "chain.gamma_value"),
    ("stakesim.report", "gamma_value", "chain.gamma_value"),
    ("stakesim.cli", "run_engine", "engine.run"),
    ("stakesim.engine", "run", "engine.run"),
    ("stakesim.engine", "decide_secure", "confirmation.decide_secure"),
    ("stakesim.engine", "decide_bridge", "confirmation.decide_bridge"),
    ("stakesim.engine", "decide_bridge_naive", "confirmation.decide_bridge"),
    ("stakesim.engine", "resolve", "resolution.resolve"),
    ("stakesim.engine", "release_lots", "insurance.release_lots"),
    ("stakesim.engine", "coverage_check", "insurance.coverage_check"),
    ("stakesim.econ", "coverage_check", "insurance.coverage_check"),
    ("stakesim.engine", "settle_slash", "insurance.settle_slash"),
    ("stakesim.engine", "karma_report", "insurance.karma_report"),
    ("stakesim.insurance", "InsuranceLedger.sell", "insurance.sell"),
    ("stakesim.insurance", "InsuranceLedger.activate", "insurance.activate"),
    ("stakesim.insurance", "InsuranceLedger.available", "insurance.available"),
    ("stakesim.insurance", "InsuranceLedger.u", "insurance.u"),
    ("stakesim.engine", "build_report", "report.build_report"),
    ("stakesim.report", "safety_verdict", "econ.safety_verdict"),
    ("stakesim.report", "pfc_ladder", "econ.pfc_ladder"),
    ("stakesim.econ", "pfc_ladder", "econ.pfc_ladder"),
    ("stakesim.econ", "window_sup", "econ.window_sup"),
    ("stakesim.cli", "render_text", "report.render_text"),
    ("stakesim.cli", "parse_trace", "report.parse_trace"),
    ("stakesim.cli", "compare_trace_to_report", "report.compare_trace_to_report"),
    ("stakesim.report", "recompute_from_trace", "report.recompute_from_trace"),
)


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in self.targets:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self._wrap(original, name))
                self._originals.append((owner, leaf, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])

        return traced

    def take(self) -> list[tuple[str, float, float, int]]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_totals(spans: list[tuple[str, float, float, int]]) -> dict[str, tuple[int, float, float]]:
    """{span name: (calls, summed duration, summed self time)}, in seconds."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, tuple[int, float, float]] = {}
    for (name, start, end, _), child in zip(spans, covered):
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + (end - start), self_s + (end - start - child))
    return totals


def write_spans(path: Path, spans: list[tuple[str, float, float, int]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
