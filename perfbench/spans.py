"""Span tracer for the traced benchmark run.

The tracer wraps functions from outside the program (class attributes and
module globals are swapped for timing wrappers and put back afterwards),
so no program code changes. Every call records a span with its parent —
the span that was open when it started — and spans are aggregated by
``(parent, name)`` as they close: the hot leaves (``DiGraph.reachable``
runs ~800k times per workload) are never stored one by one. A span's self
time is its duration minus the time covered by its direct children.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

#: ``after(tracer, args, result)`` runs once a wrapped call returns, to
#: record counts where the work happens (nodes visited, rows scanned...).
After = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Aggregated span tree plus named counters and peaks."""

    def __init__(self) -> None:
        # (parent name | None, name) -> [calls, total_s, children_s]
        self.spans: dict[tuple[str | None, str], list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, children_s]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, after: After | None = None) -> Callable:
        """``fn`` wrapped so that each call records span ``name``."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = spans.get((parent, name))
                if agg is None:
                    agg = spans[(parent, name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after: After | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        orig = vars(owner)[attr]  # a class's own function or a module global
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- aggregation --------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (_, n), a in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(a[1] for (_, n), a in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[1] - a[2] for (_, n), a in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        """Aggregated spans, heaviest first."""
        rows = [
            {"parent": p, "name": n, "calls": a[0], "total_s": a[1], "self_s": a[1] - a[2]}
            for (p, n), a in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["total_s"])
