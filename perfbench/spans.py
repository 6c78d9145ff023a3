"""In-memory span recorder used by the traced benchmark run.

A span is one call into a flowgraph layer, timed from the benchmark's own
code: name, start, end, parent span and pass id.  Spans stay in memory
and are written as JSON lines when the run ends, so recording them costs
no I/O inside a timed pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    pass_id: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans while ``enabled``; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.pass_id = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.pass_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end_ns = time.perf_counter_ns()

    def total(self, name: str, pass_prefix: str = "") -> float:
        """Summed duration, in seconds, of the named spans."""
        return sum(s.seconds for s in self.spans
                   if s.name == name and s.pass_id.startswith(pass_prefix))

    def self_times(self, pass_prefix: str = "") -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        chosen = [s for s in self.spans if s.pass_id.startswith(pass_prefix)]
        child_time: dict[int, int] = {}
        for s in chosen:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0) + s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for s in chosen:
            own = s.end_ns - s.start_ns - child_time.get(s.id, 0)
            out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
