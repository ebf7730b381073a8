"""Operator trace and physical-algorithm counters.

MonetDB/XQuery emits physical relational algebra (MIL) whose operator
sequence can be inspected.  Because our engine executes operators eagerly,
the equivalent observability hook is a trace: every relational operator
reports which physical algorithm it chose (positional join vs. hash join,
skipped sort vs. full sort, streaming vs. sorting DENSE_RANK ...).

The benchmarks for Figure 14 (sort reduction) and the unit tests for the
peephole property framework use these counters to assert *which* algorithm
ran, not only that the result is correct.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class TraceEntry:
    """One executed physical operator."""

    operator: str
    algorithm: str
    rows_in: int
    rows_out: int
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        detail = f" {self.detail}" if self.detail else ""
        return (f"{self.operator:<14} {self.algorithm:<22} "
                f"in={self.rows_in:<8} out={self.rows_out:<8}{detail}")


@dataclass
class Trace:
    """A recording of executed operators plus algorithm counters."""

    entries: list[TraceEntry] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def record(self, operator: str, algorithm: str, rows_in: int,
               rows_out: int, detail: str = "") -> None:
        self.entries.append(TraceEntry(operator, algorithm, rows_in, rows_out, detail))
        self.counters[algorithm] = self.counters.get(algorithm, 0) + 1

    def count(self, algorithm: str) -> int:
        return self.counters.get(algorithm, 0)

    def operators(self) -> list[str]:
        return [entry.operator for entry in self.entries]

    def render(self) -> str:
        """Pretty-print the trace (one operator per line)."""
        return "\n".join(str(entry) for entry in self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self.counters.clear()


class _TraceState(threading.local):
    def __init__(self) -> None:
        self.active: list[Trace] = []


_STATE = _TraceState()


def record(operator: str, algorithm: str, rows_in: int, rows_out: int,
           detail: str = "") -> None:
    """Record an executed operator on all active traces (cheap no-op otherwise)."""
    for trace in _STATE.active:
        trace.record(operator, algorithm, rows_in, rows_out, detail)


@contextmanager
def capture() -> Iterator[Trace]:
    """Capture the physical operators executed inside the ``with`` block.

    >>> with capture() as trace:
    ...     ...  # run operators / queries
    >>> trace.count("sort.skipped")
    """
    trace = Trace()
    _STATE.active.append(trace)
    try:
        yield trace
    finally:
        _STATE.active.remove(trace)
