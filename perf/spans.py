"""In-memory span recorder for the ``--trace 1`` run.

Spans are recorded from the benchmark's own files, around the calls into
each layer (spans inside ``src/`` are a later change — ROADMAP item 2).
A span is ``(id, parent, name, request, start_ns, end_ns)``; spans of one
request share ``request``; a layer's *self* time is its span minus its
children.  Everything stays in a list until :meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, Optional[int], int, int]


class Tracer:
    """Thread-safe by construction: ``list.append`` and ``next(count)`` are atomic."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, parent: int = 0, request: Optional[int] = None) -> Iterator[int]:
        """Time the body; yields the span id so children can name their parent."""
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append((span_id, parent, name, request, start, time.perf_counter_ns()))

    def extend(self, spans: List[Span]) -> None:
        """Adopt spans recorded by a child process, re-numbered into this tracer."""
        renumber: Dict[int, int] = {0: 0}
        for span_id, parent, name, request, start, end in spans:
            renumber[span_id] = next(self._ids)
            self.spans.append((renumber[span_id], renumber.get(parent, 0), name, request, start, end))

    def write(self, path: Path) -> None:
        """One JSON object per line: id, parent, name, request, start_ns, end_ns."""
        keys = ("id", "parent", "name", "request", "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
