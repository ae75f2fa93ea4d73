"""Span recorder for the traced benchmark run.

The recorder wraps the package's public entry points where their callers
look them up (a module attribute such as ``lm_infinite.model.attend_single``
or a class attribute such as ``KvCache.push``), so no package source
changes. Each call made while the recorder is active becomes a span
``[name, start, end, parent]``; spans stay in memory and are written once,
when the run ends. Counters are updated at the same boundaries, from the
arguments and results of the wrapped call.

Span names are ``<layer>.<function>``; the layer is the package module the
function belongs to, whichever module it was called from.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "masking",
    "encoding",
    "attention",
    "kv_cache",
    "model",
    "corpus",
    "metrics",
    "diagnostics",
    "evaluation",
)


class SpanRecorder:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.maxima = Counter()
        self.active = False
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(recorder, result,
        args, kwargs)`` updates counters after the span has closed."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec.spans.append(span)
            rec._stack.append(index)
            span[1] = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = rec.clock()
                rec._stack.pop()
            if on_return is not None:
                on_return(rec, result, args, kwargs)
            return result

        return traced

    def count(self, key, amount=1):
        self.counters[key] += amount

    def peak(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def write(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**(extra or {}), "spans": self.spans}, fh)


class Patches:
    """Attribute replacements applied together and undone together; each
    replacement is ``wrap(original, *extra)`` for the ``extra`` given to add.

    An attribute the owner does not define is skipped and listed in
    ``missing``, so a refactor that renames an entry point leaves the
    benchmark running without that wrapper.
    """

    def __init__(self, wrap):
        self.wrap = wrap
        self.missing = []
        self._planned = []  # (owner, attribute, extra)
        self._saved = []

    def add(self, owner, attribute, *extra):
        if attribute in vars(owner):
            self._planned.append((owner, attribute, extra))
        else:
            self.missing.append(f"{owner.__name__}.{attribute}")

    def __enter__(self):
        for owner, attribute, extra in self._planned:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, *extra))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False


def covered_time(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_time(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def self_time_by_name(spans):
    """Summed self time per span name."""
    totals = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] += own
    return dict(totals)


def layer_self_time(totals, layer):
    """Summed self time of every span in ``layer``."""
    prefix = layer + "."
    return sum(v for k, v in totals.items() if k.startswith(prefix))


def child_count(spans, parent_layer, child_name):
    """Spans named ``child_name`` whose parent is a ``parent_layer`` span."""
    prefix = parent_layer + "."
    return sum(
        1
        for name, _, _, parent in spans
        if name == child_name and parent >= 0 and spans[parent][0].startswith(prefix)
    )
