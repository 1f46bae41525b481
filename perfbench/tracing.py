"""Spans and counts around the package's public functions, from outside.

``install`` replaces each traced function with a wrapper wherever the
package holds a reference to it (module globals that imported it by name,
and class attributes for methods), so the package itself carries no
tracing code.  A span records its name, its parent, the command it ran
under and its start and end; a layer's self time is its span's duration
minus the time of the traced spans it called.  Counted functions get a call
count only, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (module, attribute, span name); dotted attributes are methods.
SPANS = (
    ("chpdispatch.cli", "_cmd_train", "cli.train"),
    ("chpdispatch.cli", "_cmd_evaluate", "cli.evaluate"),
    ("chpdispatch.cli", "_cmd_tvsa", "cli.tvsa"),
    ("chpdispatch.data", "load_scenarios", "data.load_scenarios"),
    ("chpdispatch.batch", "BatchEvaluator.__init__", "batch.init"),
    ("chpdispatch.batch", "BatchEvaluator.__call__", "batch.call"),
    ("chpdispatch.batch", "BatchEvaluator.decisions", "batch.decisions"),
    ("chpdispatch.moea", "run", "moea.run"),
    ("chpdispatch.moea", "EpsilonArchive.insert", "moea.insert"),
    ("chpdispatch.moea", "select_operator", "moea.select_operator"),
    ("chpdispatch.moea", "write_archive_csv", "moea.write_archive_csv"),
    ("chpdispatch.variation", "vary", "variation.vary"),
    ("chpdispatch.environment", "simulate_day", "environment.simulate_day"),
    ("chpdispatch.environment", "export_trace", "environment.export_trace"),
    ("chpdispatch.policy", "PolicyNetwork.forward", "policy.forward"),
    ("chpdispatch.policy", "PolicyNetwork.input_gradient", "policy.input_gradient"),
    ("chpdispatch.tvsa", "build_report", "tvsa.build_report"),
    ("chpdispatch.tvsa", "forced_off_mask", "tvsa.forced_off_mask"),
    ("chpdispatch.tvsa", "export_report_csv", "tvsa.export_report_csv"),
    ("chpdispatch.plots", "tvsa_stacked_bars_svg", "plots.tvsa_stacked_bars_svg"),
)
COUNTS = (("chpdispatch.moea", "eps_dominates", "moea.eps_dominates"),)
COMMANDS = frozenset({"cli.train", "cli.evaluate", "cli.tvsa"})


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-(command, name) call counts, total and self seconds, plus the
    individual spans while ``keep_spans`` is set."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.keep_spans = True
        self._stack: list[list] = []  # [span id, child seconds]
        self._command = ""
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()

    def stat(self, name: str, command: str | None = None) -> Stat:
        """Totals of ``name`` under one command, or under all of them."""
        if command is not None:
            return self.stats.get((command, name), Stat())
        out = Stat()
        for (_, n), s in self.stats.items():
            if n == name:
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
        return out

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            outer_command = self._command
            if name in COMMANDS:
                self._command = name
            self._stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                stat = self.stats[(self._command, name)]
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - child
                if self.keep_spans:
                    self.spans.append((span_id, parent, self._command, name, start, end))
                self._command = outer_command

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stats[(self._command, name)].calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, make(name, original))
                    continue
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "chpdispatch":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


class CallCounter:
    """Counts calls of one method while installed; the benchmark uses it to
    check that ``train`` spends exactly its evaluation budget."""

    def __init__(self, cls: type, method: str) -> None:
        self.calls = 0
        self._cls, self._method = cls, method
        self._original = cls.__dict__[method]

        @functools.wraps(self._original)
        def wrapper(*args, **kwargs):
            self.calls += 1
            return self._original(*args, **kwargs)

        setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        setattr(self._cls, self._method, self._original)
