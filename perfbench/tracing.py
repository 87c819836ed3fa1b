"""Spans recorded around the benchmark's calls into each tolpred layer.

A span is (id, name, parent, op, start, end).  The layer is the part of the
name before the first dot, so ``curves.build_curve`` belongs to ``curves``.
Spans stay in memory and are written out once, when the run ends.  A layer's
self time is the duration of its spans minus the part their child spans
cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("import", "cli", "dist", "fit", "intervals", "curves", "simlab",
          "applications")


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, parent, self.op, start, end)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span as a child of the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), name, parent, self.op, start, end))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over the spans recorded so far."""
        child = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, name, _, _, start, end in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, op, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "op": op, "start": start, "end": end}) + "\n")


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output,
    plus ``"<total>"``, the sum over top-level imports."""
    out = {"<total>": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        secs = int(cum) * 1e-6
        out.setdefault(name.strip(), secs)
        if not name[1:].startswith(" "):
            out["<total>"] += secs
    return out
