"""In-memory span tracer that wraps the public functions of a package.

`Tracer.install(package, names)` replaces each named, non-generator
function defined in a module of `package` with a wrapper, under every module
global of the package bound to it, so re-exports such as
`verify.series_exp` and internal calls through module globals are traced
too.  Functions left unnamed are not wrapped: their time is self time of
their nearest wrapped caller.  Each call records a span (name, parent span,
start, end) in flat arrays; `summary()` turns the spans into per-name call
counts, inclusive seconds and self seconds.

No file of the traced package is edited: the wrappers live only in the
process that installs them.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.wrapped: set[str] = set()
        self._stack = [-1]

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def wrap(self, name, fn, label=None, counter=None):
        """Wrap `fn` so that each call records a span.

        `label(args, kwargs)` may return a suffix that splits the span name
        by an argument.  `counter` is a pair `(counter_name, count)`: after
        each call `count(args, result)` is added to `counters[counter_name]`.
        """
        base_ix = self._ix(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counters = self.counters
        if counter is not None:
            counter_name, count = counter
            counters[counter_name] += 0  # present, even if never incremented

        @wraps(fn)
        def wrapper(*args, **kwargs):
            ix = base_ix if label is None else self._ix(f"{name}.{label(args, kwargs)}")
            sid = len(span_start)
            span_name.append(ix)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter_name] += count(args, result)
            return result

        self.wrapped.add(name)
        return wrapper

    def install(self, package: str, names, labels=None, counters=None) -> None:
        """Wrap the functions named `module.function` in `names` that are
        defined in the loaded modules of `package`; other names are ignored.

        `labels` and `counters` map span names to the `label` and `counter`
        arguments of `wrap`; a counter under `module.*` applies to every
        wrapped function of that module without a counter of its own.
        """
        labels = labels or {}
        counters = counters or {}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    name in names
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == attr
                    and not inspect.isgeneratorfunction(obj)
                ):
                    counter = counters.get(name, counters.get(f"{short}.*"))
                    wrappers[obj] = self.wrap(name, obj, labels.get(name), counter)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that recurses through its own global is not counted twice.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names, span_name = self.names, self.span_name
        for i in range(n):
            rec = out[names[span_name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - covered[i]
            p = parent[i]
            while p >= 0 and span_name[p] != span_name[i]:
                p = parent[p]
            if p < 0:
                rec["incl_s"] += dur[i]
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
