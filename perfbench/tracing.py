"""In-memory span tracing by patching the functions a caller module looks up.

A span records one call into a layer: its name, start and end (seconds on the
tracer's ``clock``), the index of the enclosing span (``-1`` at the top) and
the cell it ran for, plus optional attributes read from the call's arguments
and result.  Nothing is written while the workload runs; :meth:`Tracer.write`
dumps the spans as JSON lines afterwards.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class Patches:
    """Replace module attributes for the duration of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        """Set ``module.attr = make(original)``; restored on exit."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Collects spans from wrapped call sites, timed on ``clock``.

    ``name`` is a span name or a function of the call's positional arguments
    returning one; ``note(args, result)`` returns a dict of attributes.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, cell, attrs]
        self.cell = None
        self.clock = perf_counter
        self._stack = []

    def wrap(self, patches: Patches, module, attr, name, note=None):
        def make(fn):
            def traced(*args, **kwargs):
                rec = [name(args) if callable(name) else name, 0.0, 0.0,
                       self._stack[-1] if self._stack else -1, self.cell, None]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                rec[1] = self.clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = self.clock()
                    self._stack.pop()
                if note is not None:
                    rec[5] = note(args, out)
                return out

            return traced

        patches.replace(module, attr, make)

    def by_name(self) -> dict:
        """Per span name: inclusive and self durations (s) and attribute dicts."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"dur": [], "self": [], "attrs": []})
        for i, (name, start, end, _, _, attrs) in enumerate(self.spans):
            entry = out[name]
            entry["dur"].append(end - start)
            entry["self"].append(end - start - child[i])
            entry["attrs"].append(attrs or {})
        return dict(out)

    def write(self, path, workload):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cell, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                       "workload": workload, "cell": cell}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def tail(values) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than 40 samples the median
    stands in and is labelled as the 50th percentile.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.median(values))
