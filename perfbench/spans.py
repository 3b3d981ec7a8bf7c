"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the pipeline modules
and rebinds each module attribute that refers to it, so calls through
names imported into another module (``solve_zero_sum`` in ``oracle``,
``closed_forms`` and ``learning``, ``parse_rational`` everywhere) are
seen too; ``restore`` puts the originals back. A span is (name, start,
end, parent span, request id); spans stay in memory until ``dump``.
``parse_rational`` runs per number, so it is counted, not spanned.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

SPANNED_MODULES = ("game_core", "lp_solver", "oracle", "closed_forms", "learning")
COUNTED = ("rationals", "parse_rational")
PACKAGE = "searchpursuit"

NAME, START, END, PARENT = range(4)  # then the request id

LAYER_UNITS = {
    "game_core.feasible_sets.s": "s",
    "game_core.maximal_feasible_sets.self_s": "s",
    "game_core.build_matrix.s": "s",
    "game_core.sets_enumerated": "count",
    "game_core.rows_kept": "count",
    "game_core.rows_kept_ratio": "ratio",
    "lp_solver.solve_zero_sum.self_s": "s",
    "lp_solver.solve_zero_sum.calls": "count",
    "lp_solver.cells": "count",
    "lp_solver.support_ratio": "ratio",
    "lp_solver.max_bits": "bits",
    "lp_solver.hider_uniqueness.self_s": "s",
    "lp_solver.hider_uniqueness.calls": "count",
    "oracle.verify_equilibrium.s": "s",
    "oracle.verify_equilibrium.calls": "count",
    "oracle.sweep_budget.self_s": "s",
    "closed_forms.self_s": "s",
    "closed_forms.calls": "count",
    "learning.self_s": "s",
    "learning.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "count",
    "rationals.parse_rational.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.request = None
        self.finished: list = []
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, args=(), kwargs=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self._stack.pop()
            record[END] = time.perf_counter()
        self._observe(name, parent, result)
        return result

    def _observe(self, name, parent, result) -> None:
        counts = self.counts
        if name == "game_core.feasible_sets":
            counts["game_core.sets_enumerated"] += len(result)
        elif name == "game_core.maximal_feasible_sets":
            counts["game_core.rows_kept"] += len(result)
        elif name == "lp_solver.solve_zero_sum" and (
            parent < 0 or self.spans[parent][NAME] != name
        ):
            rows, cols = result.row_strategy, result.col_strategy
            counts["lp_solver.cells"] += len(rows) * len(cols)
            counts["lp_solver.rows"] += len(rows)
            counts["lp_solver.support"] += sum(1 for w in rows if w)
            bits = max(_bits(q) for q in (result.value, *rows, *cols))
            counts["lp_solver.max_bits"] = max(counts["lp_solver.max_bits"], bits)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        replacements = {}
        for short in SPANNED_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    replacements[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        module, attr = COUNTED
        fn = getattr(modules[f"{PACKAGE}.{module}"], attr)
        replacements[id(fn)] = (fn, self._count(f"{module}.{attr}.calls", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        metrics = layer_metrics(self.spans, self.counts)
        self.finished.append(self.spans)
        self.spans, self.counts = [], defaultdict(int)
        return metrics

    def dump(self, path: str) -> None:
        """One JSON line per span: pass number, then the span fields."""
        with open(path, "w", encoding="utf-8") as fh:
            for number, spans in enumerate(self.finished):
                for record in spans:
                    fh.write(json.dumps([number, *record]) + "\n")


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer numbers for one pass.

    ``X.s`` is the busy time of function X (outermost spans only, so a
    recursive call is not counted twice), ``self_s`` excludes the time
    of child spans, and ``calls`` counts entries from a different
    function, or for a module aggregate from a different module.
    """
    children = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[NAME]
        module = name.split(".")[0]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        duration = s[END] - s[START]
        self_time[name] += duration - children[i]
        self_time[module] += duration - children[i]
        if parent != name:
            busy[name] += duration
            calls[name] += 1
        if parent.split(".")[0] != module:
            calls[module] += 1
    sets = counts.get("game_core.sets_enumerated", 0)
    rows = counts.get("lp_solver.rows", 0)
    return {
        "game_core.feasible_sets.s": busy["game_core.feasible_sets"],
        "game_core.maximal_feasible_sets.self_s": self_time["game_core.maximal_feasible_sets"],
        "game_core.build_matrix.s": busy["game_core.build_matrix"],
        "game_core.sets_enumerated": sets,
        "game_core.rows_kept": counts.get("game_core.rows_kept", 0),
        "game_core.rows_kept_ratio": counts.get("game_core.rows_kept", 0) / sets if sets else 0.0,
        "lp_solver.solve_zero_sum.self_s": self_time["lp_solver.solve_zero_sum"],
        "lp_solver.solve_zero_sum.calls": calls["lp_solver.solve_zero_sum"],
        "lp_solver.cells": counts.get("lp_solver.cells", 0),
        "lp_solver.support_ratio": counts.get("lp_solver.support", 0) / rows if rows else 0.0,
        "lp_solver.max_bits": counts.get("lp_solver.max_bits", 0),
        "lp_solver.hider_uniqueness.self_s": self_time["lp_solver.hider_uniqueness"],
        "lp_solver.hider_uniqueness.calls": calls["lp_solver.hider_uniqueness"],
        "oracle.verify_equilibrium.s": busy["oracle.verify_equilibrium"],
        "oracle.verify_equilibrium.calls": calls["oracle.verify_equilibrium"],
        "oracle.sweep_budget.self_s": self_time["oracle.sweep_budget"],
        "closed_forms.self_s": self_time["closed_forms"],
        "closed_forms.calls": calls["closed_forms"],
        "learning.self_s": self_time["learning"],
        "learning.calls": calls["learning"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "rationals.parse_rational.calls": counts.get("rationals.parse_rational.calls", 0),
    }
