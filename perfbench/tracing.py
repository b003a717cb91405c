"""In-memory spans around the benchmark's calls into memlit.

A span is [name, start, end, parent, pair id]: times from perf_counter, parent
the index of the enclosing span or -1.  Spans stay in memory until the run
ends.  The untraced run uses NullTracer, which calls straight through.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class NullTracer:
    def span(self, name: str, pair_id: int):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._parent = -1
        self._pair = -1

    @contextmanager
    def span(self, name: str, pair_id: int):
        record = [name, perf_counter(), 0.0, self._parent, pair_id]
        outer = (self._parent, self._pair)
        self._parent, self._pair = len(self.spans), pair_id
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._parent, self._pair = outer

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name, self._pair):
            return fn(*args, **kwargs)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another, so their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls, seconds, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, seconds + end - start, own + end - start - covered)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
