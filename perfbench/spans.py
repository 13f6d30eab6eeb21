"""In-memory spans around the driver's calls into each layer.

A span is ``(name, start, end, parent, key)``; its layer is the part of
the name before the first dot (``serve.ingest_many`` belongs to
``serve``). Spans nest through a stack, so a span's *self time* is its
duration minus the durations of its direct children, and self times
summed per layer account for the traced wall time exactly: whatever the
root spans (``driver.*``) keep as self time is the driver's own
bookkeeping, reported as the uncovered share.

Spans are recorded only around calls the benchmark makes; a disabled
recorder hands out one shared no-op context so untraced runs pay a single
attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("_recorder", "_name", "_key", "_index")

    def __init__(self, recorder: "SpanRecorder", name: str, key):
        self._recorder = recorder
        self._name = name
        self._key = key

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        stack = recorder._stack
        self._index = len(recorder.spans)
        recorder.spans.append([self._name, time.perf_counter(), 0.0,
                               stack[-1] if stack else -1, self._key])
        stack.append(self._index)
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter()
        recorder._stack.pop()
        return False


class SpanRecorder:
    """Collects nested spans in memory; writes them out at the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, key: Optional[Hashable] = None):
        """A context manager timing one call (a no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, key)

    def add(self, name: str, start: float, end: float,
            key: Optional[Hashable] = None) -> None:
        """Record an already-measured interval as a child of the open span.

        Used for work a public counter reports but the driver cannot wrap,
        such as the fine-tuning seconds inside ``observe_part``.
        """
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start, end, parent, key])

    def _roots(self) -> List[str]:
        """The name of each span's root span (parents precede children)."""
        roots: List[str] = []
        for name, _, _, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        return roots

    def self_times(self, roots: Tuple[str, ...] = ("",)
                   ) -> Dict[str, Tuple[float, int]]:
        """Per layer: (self seconds, spans), over the trees whose root
        span's name starts with one of ``roots``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, List] = defaultdict(lambda: [0.0, 0])
        for index, root in enumerate(self._roots()):
            if not root.startswith(roots):
                continue
            name, start, end, _, _ = self.spans[index]
            entry = layers[name.split(".", 1)[0]]
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
        return {layer: (seconds, calls)
                for layer, (seconds, calls) in layers.items()}

    def wall(self, roots: Tuple[str, ...] = ("",)) -> float:
        """Traced wall time: the summed duration of the matching roots."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0 and name.startswith(roots))

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, key in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent,
                    "key": None if key is None else str(key)}) + "\n")
        return len(self.spans)
