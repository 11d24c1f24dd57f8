"""Spans around the calls into the program's layers, for the traced run.

The tracer replaces each public function of a layer module by a wrapper
that records a span: name, start, end and the span that was open when it
was called. A name imported with ``from module import name`` is a second
binding of the same function object, so every loaded module that binds the
function gets the wrapper; wrapping the defining module alone would miss,
for example, the call of ``kinematics.fk_arrays`` made from
``camera.assemble_system``. Spans stay in memory until the run ends.
``close`` puts every original binding back.

The tracer is only ever installed in the traced run; the timed run calls
the unwrapped functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# fields of a span record
NAME, START, END, PARENT, ATTRS = range(5)


def public_functions(module):
    """Functions defined in module whose names do not start with '_'."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def program_modules(package="sparsemotion"):
    """Every loaded module of the package, the package itself included."""
    return [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name) -> list:
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one operation."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span[ATTRS] = annotate(result)
            return result

        return traced

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            now = time.perf_counter_ns()
            self.spans.append([name, now, now, self._stack[-1] if self._stack else -1, None])
            return fn(*args, **kwargs)

        return counted

    def _patch(self, fn, replacement, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def trace_layers(self, layers: dict, modules, annotate=None):
        """Wrap every public function of each layer module at every binding
        found in modules. annotate maps a span name to a function of the
        call's result, whose value is kept with the span."""
        annotate = annotate or {}
        for layer, module in layers.items():
            for name, fn in public_functions(module).items():
                span_name = f"{layer}.{name}"
                self._patch(fn, self._wrapper(span_name, fn, annotate.get(span_name)), modules)

    def trace_function(self, span_name, fn, modules):
        """Wrap one foreign function, such as scipy's linprog, where modules
        bind it."""
        self._patch(fn, self._wrapper(span_name, fn, None), modules)

    def count_calls(self, module, names, prefix):
        """Record a zero-length span for each call of module.<name>: the
        call is placed in the span tree without shifting any self time."""
        for name in names:
            fn = getattr(module, name)
            self._patches.append((module, name, fn))
            setattr(module, name, self._counter(f"{prefix}.{name}", fn))

    def close(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path):
        """One JSON array per line: name, start ns, end ns, parent line, attrs."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanTree:
    """Durations, self times, children and ancestry of recorded spans.

    A span is recorded when it opens, so a parent always precedes its
    children in the list.
    """

    def __init__(self, spans):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        self.kids: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.kids[s[PARENT]].append(i)
        self.self_time = [
            dur - sum(self.duration[k] for k in kids) for dur, kids in zip(self.duration, self.kids)
        ]

    def indices(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def enclosing(self, names) -> list[int]:
        """For each span, the nearest span named in names that contains it
        (itself included), or -1."""
        out = [-1] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[NAME] in names:
                out[i] = i
            elif s[PARENT] >= 0:
                out[i] = out[s[PARENT]]
        return out

    def child_time(self, i, names) -> int:
        return sum(self.duration[k] for k in self.kids[i] if self.spans[k][NAME] in names)
