"""In-memory spans around acsfa's public functions, recorded from outside.

``Tracer.installed()`` wraps each function in ``TARGETS`` and replaces every
module-level binding of it inside the acsfa package. A caller therefore
reaches the wrapper whether it goes through the defining module (``tukey_hsd``
calling ``studentized_range_quantile`` via the ``stats`` module global) or
through its own import (``hybrid.construct_tour``, ``bench.run_acs``). Every
binding is restored on exit. A span is ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from pathlib import Path
from time import perf_counter

# (defining module, function): the span is named "<module>.<function>".
TARGETS = (
    ("tsplib", "parse_instance"),
    ("acs", "run_acs"),
    ("acs", "construct_tour"),
    ("acs", "global_update"),
    ("hybrid", "run_acsfa"),
    ("firefly", "sweep"),
    ("firefly", "move"),
    ("firefly", "reduce_alpha"),
    ("exact", "held_karp"),
    ("stats", "error_matrix"),
    ("stats", "rcbd_anova"),
    ("stats", "tukey_hsd"),
    ("stats", "studentized_range_quantile"),
    ("bench", "load_config"),
    ("bench", "run_experiment"),
    ("bench", "export"),
    ("cli", "main"),
)
MODULES = ("acsfa",) + tuple(
    f"acsfa.{name}" for name in ("tsplib", "acs", "firefly", "hybrid", "exact", "stats", "bench", "cli")
)


class Tracer:
    """Collects spans in memory; single-threaded, like the code it traces."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(m) for m in MODULES]
        patched = []
        try:
            for module_name, fn_name in TARGETS:
                original = getattr(importlib.import_module(f"acsfa.{module_name}"), fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """One JSON object per line: the header, then one line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def p50(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self._child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                self._child_time[parent] += end - start

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        spans = self.spans
        return [
            end - start
            for n, start, end, p in spans
            if n == name and (parent is None or (p >= 0 and spans[p][0] == parent))
        ]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        return [
            end - start - self._child_time[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n == name
        ]

    def counts_under(self, ancestors: tuple[str, ...], name: str) -> list[int]:
        """Spans called ``name`` below each span whose name is in ``ancestors``."""
        spans = self.spans
        counts = {i: 0 for i, s in enumerate(spans) if s[0] in ancestors}
        for n, _, _, p in spans:
            if n != name:
                continue
            while p >= 0 and spans[p][0] not in ancestors:
                p = spans[p][3]
            if p >= 0:
                counts[p] += 1
        return list(counts.values())
