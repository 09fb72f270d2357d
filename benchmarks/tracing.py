"""Spans recorded around the calls into each package layer.

The traced run wraps, from outside the package, the names each layer
imports from the layer below (and the benchmark's own calls into the top
layer).  Every call becomes a span (id, name, start, end, parent).  Per-name
totals and self times are kept for every span; the span log is kept in
memory and written out with the totals when the run ends.
"""
from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans = []           # (id, name, start, end, parent id or -1)
        self.totals = {}          # name -> [calls, total_s, self_s]
        self._open = []           # [id, name, start, child_s]
        self._next_id = 0
        self._patches = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _enter(self, name: str) -> None:
        self._open.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = self.clock()
        span_id, name, start, child_s = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        self.spans.append((span_id, name, start - self.origin, end - self.origin,
                           parent[0] if parent is not None else -1))

    def split(self) -> dict:
        """Start the totals afresh and return the ones kept so far.  The
        span log is kept whole."""
        done, self.totals = self.totals, {}
        return done

    def replace(self, module, attr: str, value) -> None:
        """Set module.attr to value until `restore`."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def patch(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a traced wrapper until `restore`."""
        self.replace(module, attr, self.wrap(name, getattr(module, attr)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, prefix: str) -> float:
        """Self time of every span whose name starts with `prefix`."""
        return sum(v[2] for k, v in self.totals.items() if k.startswith(prefix))

    def write(self, path, extra: dict) -> None:
        doc = {
            "totals": totals_table(self.totals),
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def totals_table(totals: dict) -> dict:
    return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(totals.items())}
