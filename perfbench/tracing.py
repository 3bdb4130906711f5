"""Spans and call counts taken from outside the hermitesof package.

The package carries no tracing code.  For one pass, `patched` replaces the
package's module attributes with wrappers and restores them afterwards.
Every caller inside the package looks its callee up as a module attribute at
call time, so the wrappers see the calls made by the package as well as
those made by the benchmark.  Spans stay in memory as flat arrays and are
written out when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def patched(replacements: dict):
    """Swap every module attribute of the package that is one of the
    originals in `replacements` (original -> wrapper) for its wrapper."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    saved = []
    for name, mod in list(sys.modules.items()):
        if name != "hermitesof" and not name.startswith("hermitesof."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in by_id:
                saved.append((mod, attr, value))
                setattr(mod, attr, by_id[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def counting(fn):
    """Wrapper that only counts calls, in `wrapper.calls[0]`."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    counted.calls = calls
    return counted


class Tracer:
    """Spans with name, start, end, parent span and design-problem id."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.problem = array("q")
        self.errors: dict[int, str] = {}
        self.attrs: dict[int, dict] = {}
        self.problems: list[str] = []
        self._current = -1
        self._stack: list[int] = []

    def set_problem(self, name: str) -> None:
        self.problems.append(name)
        self._current = len(self.problems) - 1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.problem.append(self._current)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def parent_name(self, idx: int) -> str:
        p = self.parent[idx]
        return self.names[p] if p >= 0 else ""

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code; the yielded dict
        becomes the span's attributes."""
        attrs: dict = {}
        idx = self._open(name)
        try:
            yield attrs
        finally:
            self._close(idx)
            self.attrs[idx] = attrs

    def wrap(self, name: str, fn, measure=None):
        """Traced version of `fn`.  `measure(result, args, tracer, span)`
        runs after the span is closed and returns attributes for it."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.errors[idx] = type(exc).__name__
                raise
            self._close(idx)
            if measure is not None:
                attrs = measure(out, args, self, idx)
                if attrs:
                    self.attrs[idx] = attrs
            return out

        return traced

    def seconds(self, name: str, outside: str) -> float:
        """Inclusive seconds of the spans called `name` whose parent span's
        name does not start with `outside`, so that a call nested in another
        call of the same layer is not counted twice."""
        return sum(
            self.end[i] - self.start[i]
            for i, n in enumerate(self.names)
            if n == name and not self.parent_name(i).startswith(outside)
        )

    def span_cost(self, calls: int = 20000, blocks: int = 5) -> float:
        """Seconds one `wrap` span adds to a call: a wrapped no-op timed
        against the bare no-op, on a throwaway tracer, median of `blocks`."""
        def noop():
            return None

        wrapped = Tracer().wrap("noop", noop)
        costs = []
        for _ in range(blocks):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(costs)[blocks // 2]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (span minus
        its child spans), raised exceptions and summed attributes."""
        child = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
            if i in self.errors:
                rec["errors"] += 1
            for key, value in self.attrs.get(i, {}).items():
                rec[key] = rec.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """Spans as [name, start, end, parent, problem, error] rows, times
        in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = [
            [
                name,
                round(self.start[i] - t0, 9),
                round(self.end[i] - t0, 9),
                self.parent[i],
                self.problem[i],
                self.errors.get(i),
            ]
            for i, name in enumerate(self.names)
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "problem", "error"],
                    "problems": self.problems,
                    "attrs": {str(k): v for k, v in self.attrs.items()},
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
