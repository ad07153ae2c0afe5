"""In-memory span recorder used by the traced pass and the layer cases.

A span is one call the benchmark makes into a powergame module, recorded as
[name, start, end, parent, unit, failed]. Names follow
``layer.function[.variant]``; the layer is the first dotted part, and the
benchmark's own spans use the layer ``bench``. Spans stay in memory while the
benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullRecorder:
    """Tracing off: every span is a shared no-op context."""

    unit = None

    def span(self, name: str):
        return _NO_SPAN


class Recorder:
    """Tracing on: spans are appended to ``self.spans`` as they close."""

    def __init__(self):
        self.spans = []
        self.unit = None  # id of the unit the next spans belong to
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.unit, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def absorb(self, other: "Recorder") -> None:
        """Append another recorder's spans, keeping their parent links."""
        base = len(self.spans)
        for name, start, end, parent, unit, failed in other.spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base,
                               unit, failed])

    def self_times(self) -> list:
        """Duration of each span minus the time its child spans cover.

        Spans come from one thread and nest strictly, so children of one
        span never overlap and their durations can be summed.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _, _), c in zip(self.spans, covered)]

    def by_name(self) -> dict:
        """Per span name: calls, busy time, self time, p50 and failures."""
        groups = {}
        for (name, start, end, _, _, failed), own in zip(self.spans,
                                                          self.self_times()):
            g = groups.setdefault(name, {"durations": [], "self_s": 0.0,
                                         "failures": 0})
            g["durations"].append(end - start)
            g["self_s"] += own
            g["failures"] += failed
        return {name: {"calls": len(g["durations"]),
                       "busy_s": sum(g["durations"]),
                       "self_s": g["self_s"],
                       "p50_s": statistics.median(g["durations"]),
                       "failures": g["failures"]}
                for name, g in groups.items()}

    def by_layer(self) -> dict:
        """Self time and span count per layer."""
        layers = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            entry = layers.setdefault(name.split(".", 1)[0],
                                      {"self_s": 0.0, "spans": 0})
            entry["self_s"] += own
            entry["spans"] += 1
        return layers

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "unit", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
