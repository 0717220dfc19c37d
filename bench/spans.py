"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the index of the span that was
open when it started (its parent).  Spans and counters stay in memory
and are written out once, when the traced process ends.  Self time is a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Collects spans and counters; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the given intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _own_times(spans: list[dict]) -> list[float]:
    """Self time of each span, in recording order."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return [sp["end"] - sp["start"] - _covered(children.get(i, [])) for i, sp in enumerate(spans)]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = {}
    for sp, own in zip(spans, _own_times(spans)):
        out[sp["name"]] = out.get(sp["name"], 0.0) + own
    return out


def layer_total(spans: list[dict]) -> float:
    """Time that layer spans account for in one step process.

    That is `cli.import`, plus the part of each other top-level `cli.*` span
    that its child spans cover, plus any top-level span outside `cli.*`.
    """
    total = 0.0
    for sp, own in zip(spans, _own_times(spans)):
        if sp["parent"] is not None:
            continue
        duration = sp["end"] - sp["start"]
        if sp["name"].startswith("cli.") and sp["name"] != "cli.import":
            duration -= own
        total += duration
    return total
