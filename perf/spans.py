"""Benchmark-side spans: recorded in memory, written out when the run ends.

A span is ``(id, name, start, end, parent, query)``; spans of one query
share its ``query`` identifier.  A span's *self time* is its duration minus
the part of that interval its child spans cover.
"""

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanLog:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, query]

    def add(self, name, start, end, parent=None, query=None):
        """Record a finished span from known timestamps; returns its id."""
        self.spans.append([len(self.spans), name, start, end, parent, query])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name, parent=None, query=None):
        """Time the body as one span; yields the span's id for its children."""
        span_id = self.add(name, time.perf_counter(), None, parent, query)
        try:
            yield span_id
        finally:
            self.spans[span_id][3] = time.perf_counter()

    def durations(self, name):
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for span_id, _, start, end, _, _ in self.spans:
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children[span_id]):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result

    def coverage(self, root_name):
        """Share of the ``root_name`` spans' wall-clock their child spans explain."""
        self_times = self.self_times()
        wall = own = 0.0
        for span_id, name, start, end, _, _ in self.spans:
            if name == root_name:
                wall += end - start
                own += self_times[span_id]
        return (wall - own) / wall if wall else 0.0

    def write(self, path, **header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self_times = self.self_times()
        payload = dict(header)
        payload["columns"] = ["id", "name", "start_s", "end_s", "parent", "query", "self_s"]
        payload["spans"] = [span + [self_times[span[0]]] for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
