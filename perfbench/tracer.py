"""In-memory span tracer that wraps calls into altproj from outside the package.

Two kinds of wrapped call:

* coarse spans (op, config load, build, engine run, trace writes, probe
  entry points) are kept one by one as (id, name, start, end, parent id);
* hot leaf calls (projections, set constructors, ``as_point``, pair
  building) would be millions of spans per run, so they are only
  aggregated.

Every wrapped call, coarse or leaf, also lands in one aggregate table keyed
by (name, parent name, innermost coarse span name) holding a call count and
total time.  A name's self time is its total time minus the total time of
the calls whose parent it is; because calls nest properly on one thread,
that equals span time minus the time its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = "root"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [(ROOT, ROOT, 0)]   # (name, innermost coarse name, span id)
        self.spans = []                  # coarse spans: (id, name, start, end, parent id)
        self.agg = {}                    # (name, parent, coarse) -> [calls, total_s]
        self.units = defaultdict(float)  # work counted by span wrappers

    def _record(self, key, dt):
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, dt]
        else:
            entry[0] += 1
            entry[1] += dt

    def leaf(self, name, fn):
        """Wrap a hot call: aggregated count and time, no span kept."""
        stack, clock, record = self.stack, self.clock, self._record

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append((name, parent[1], parent[2]))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record((name, parent[0], parent[1]), dt)

        return wrapper

    def span(self, name, fn, count=None):
        """Wrap a coarse call: one span per call plus the aggregate.

        ``count(result, args, kwargs)`` may return {unit: amount} to add to
        ``units`` when the call returns normally.
        """
        stack, clock, record, spans = self.stack, self.clock, self._record, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) + 1
            spans.append(None)
            stack.append((name, name, span_id))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[span_id - 1] = (span_id, name, t0, t1, parent[2])
                record((name, parent[0], parent[1]), t1 - t0)
            if count is not None:
                for unit, amount in count(result, args, kwargs).items():
                    self.units[unit] += amount
            return result

        return wrapper

    def export(self) -> dict:
        return {"agg": [[*key, *val] for key, val in self.agg.items()],
                "spans": self.spans, "units": dict(self.units)}


def self_times(agg) -> dict:
    """name -> total time minus the total time of its direct children."""
    out = defaultdict(float)
    for (name, parent, _), (_, total) in agg.items():
        out[name] += total
        out[parent] -= total
    out.pop(ROOT, None)
    return dict(out)
