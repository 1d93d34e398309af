"""In-memory span recorder for the traced benchmark run.

A span is `[name, start, end, parent, op, meta]`: `parent` is the index of
the enclosing span (-1 at the top), `op` the id of the operation the span
belongs to and `meta` a dict of counts recorded at the layer boundary.
Spans are kept in a list and handed to the parent process when the pass
ends; nothing is written while an operation runs.

Layer calls that happen inside the package are timed by replacing the
public function, in every `hyperdet` module that imported it, with a
recording wrapper.  That replacement happens only in the traced run; the
untraced run executes the package's own functions.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, meta=None, modules=None) -> None:
        """Record a span for every call of `fn` made through a module namespace.

        `name` is a span name or a function of the call's `(args, kwargs)`
        returning one.  `meta(args, result)` returns the counts to
        attach; it runs after the span has closed.  `modules` limits the
        replacement to the named modules (default: every loaded `hyperdet`
        module that holds `fn`).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if meta is not None:
                tracer.spans[idx][5] = meta(args, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hyperdet" and not mod_name.startswith("hyperdet."):
                continue
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


def summarize(spans) -> tuple[dict, dict]:
    """Per-name and per-(name, case) totals of one pass's spans.

    Self time is a span's duration minus the durations of its direct
    children.  Numeric meta values are summed per name, except keys ending
    in `bits`, which keep the maximum; per case they keep the maximum.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _op, _meta in spans:
        if parent >= 0:
            child_s[parent] += end - start
    by_name: dict[str, dict] = {}
    by_case: dict[str, dict] = {}
    for idx, (name, start, end, _parent, _op, meta) in enumerate(spans):
        dur = end - start
        rec = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += dur - child_s[idx]
        rec["total_s"] += dur
        if not meta:
            continue
        case = meta.get("case")
        crec = None
        if case is not None:
            crec = by_case.setdefault(f"{name}.{case}", {"self_s": 0.0})
            crec["self_s"] += dur - child_s[idx]
        for key, value in meta.items():
            if key == "case":
                continue
            if key.endswith("bits"):
                rec[key] = max(rec.get(key, 0), value)
            else:
                rec[key] = rec.get(key, 0) + value
            if crec is not None:
                crec[key] = max(crec.get(key, 0), value)
    return by_name, by_case
