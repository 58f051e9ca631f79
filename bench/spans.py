"""Spans kept in memory, their self time, and the summary statistics the
harness reports.

A span is recorded around one call the harness makes into a package module
(or around a phase of the harness itself, which then parents those calls).
Spans of one run share a run id and are written out only when the run ends.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import asdict, dataclass

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not _METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass
class Span:
    sid: int
    name: str           # module.function called, or bench.<phase>
    layer: str          # package module the time is attributed to
    tag: str            # probe or op key, so metrics can select spans
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str
    error: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans in memory; ``open``/``close`` must pair up."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, layer: str, tag: str = "") -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, tag, time.perf_counter_ns(), 0,
                    parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end_ns = time.perf_counter_ns()
        span.error = span.error or error
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, layer: str, tag: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; an exception marks the span and propagates."""
        span = self.open(name, layer, tag)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.error = True
            raise
        finally:
            self.close(span)

    def select(self, tag: str) -> list[Span]:
        return [s for s in self.spans if s.tag == tag]

    def write(self, path, notes: list[str]) -> None:
        selfs = self_times(self.spans)
        records = [dict(asdict(s), self_ns=selfs[s.sid]) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "notes": notes, "spans": records}, f)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, [])):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration_ns - covered
    return out


def tail_percentile(count: int) -> int | None:
    """The highest whole percentile, at most 99 and at least 50, with at least
    ten samples beyond it under the nearest-rank rule; None if there is none."""
    for q in range(99, 49, -1):
        if count - math.ceil(q * count / 100) >= 10:
            return q
    return None


def nearest_rank(values: list[float], q: int) -> float:
    """The q-th percentile by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]
