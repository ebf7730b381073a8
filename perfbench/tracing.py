"""Span tracing around the public entry points of each engine layer.

Only the traced run installs these wrappers; untraced runs call the engine
unmodified.  Each wrapper records one span (name, start, end, parent,
request id, thread) in memory; :meth:`Tracer.dump` writes them out once the
run is over.  A layer's self time is its span's duration minus the time of
the child spans nested inside it (children run on the same thread, one after
another, so their durations simply add up).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro import MonetXQuery, PreparedQuery, QueryResult, QueryServer, XMLUpdater
from repro.relational import explain
from repro.relational.cardinality import StoreStatistics
from repro.storage import persist
from repro.xml.document import DocumentStore
from repro.xquery import engine as engine_module
from repro.xquery import parser as parser_module

#: layers whose self time is compile work (zero on a plan-cache hit)
COMPILE_LAYERS = ("xquery.parse", "xquery.plan", "relational.stats",
                  "relational.rewrite", "xquery.codegen")
#: the executor layer: xquery.compiler + staircase + relational.operators
#: + xquery.constructors all run inside these spans
EXEC_LAYER = "exec"


def _plan_counts(plan) -> dict:
    nodes = {node.id for root in plan.roots() for node in root.walk()}
    return {"rewrites_fired": len(plan.report.entries),
            "plan_nodes": len(nodes)}


def _program_counts(program) -> dict:
    return {"codegen_compiled": program.compiled_count,
            "codegen_fallbacks": len(program.fallbacks)}


class Span:
    """One timed call; ``child_time`` sums its direct children."""

    __slots__ = ("name", "start", "end", "parent", "request", "label",
                 "thread", "child_time", "ops")

    def __init__(self, name, parent, request, label, start):
        self.name = name
        self.parent = parent
        self.request = request
        self.label = label
        self.thread = threading.get_ident()
        self.start = start
        self.end = start
        self.child_time = 0.0
        self.ops = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans from wrapped entry points and benchmark requests."""

    def __init__(self, labels: dict | None = None):
        #: query text -> request label, for reads that start on a server
        #: worker thread
        self.labels = labels or {}
        self.spans: list[Span] = []
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, label: str | None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            span = Span(name, None, next(self._request_ids), label,
                        time.perf_counter())
        else:
            span = Span(name, parent, parent.request, parent.label,
                        time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def request(self, label: str, name: str = "request"):
        """A benchmark-side root span: one query, pass or transaction."""
        span = self._open(name, label)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, func, *, ops: bool = False, label=None,
             counts=None):
        """``func`` wrapped to record a span.  ``ops`` also captures the
        physical-operator counters of the call; ``counts(result)`` adds
        counts read off the result (outside the span's time);
        ``label(args)`` names the request when the call is a root span
        (server worker threads)."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            root_label = label(args) if label is not None and \
                not tracer._stack() else None
            span = tracer._open(name, root_label)
            try:
                if ops:
                    with explain.capture() as trace:
                        result = func(*args, **kwargs)
                else:
                    result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if ops:
                span.ops = dict(trace.counters)
                span.ops["rows_out"] = sum(e.rows_out for e in trace.entries)
            if counts is not None:
                span.ops = counts(result)
            return result
        return wrapper

    # ------------------------------------------------------------------ #
    def _patch(self, owner, attribute: str, name: str, **options) -> None:
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, **options))
        else:
            replacement = self.wrap(name, raw, **options)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw))

    def install(self) -> None:
        """Wrap every layer's public entry point at the site the engine
        calls it from."""
        def query_label(args):
            return self.labels.get(args[1]) if len(args) > 1 else None

        self._patch(engine_module, "shred_document", "xml.shred")
        self._patch(parser_module, "parse", "xquery.parse")
        self._patch(engine_module, "plan_module", "xquery.plan")
        self._patch(StoreStatistics, "from_store", "relational.stats")
        self._patch(engine_module, "optimize", "relational.rewrite",
                    counts=_plan_counts)
        self._patch(engine_module, "compile_plan", "xquery.codegen",
                    counts=_program_counts)
        self._patch(MonetXQuery, "prepare", "engine.prepare")
        self._patch(PreparedQuery, "run", EXEC_LAYER, ops=True)
        self._patch(QueryResult, "serialize", "xml.serialize")
        self._patch(XMLUpdater, "__init__", "update.open")
        self._patch(XMLUpdater, "replace_value", "update.apply")
        self._patch(XMLUpdater, "insert_last", "update.apply")
        self._patch(XMLUpdater, "commit", "update.commit")
        self._patch(persist, "save_store", "persist.save")
        self._patch(DocumentStore, "open", "persist.open")
        self._patch(QueryServer, "submit", "server.submit")
        # a server read runs on a worker thread: execute() is its root span
        # (labelled with the query text) and execute_prepared() is the
        # server's executor entry point
        self._patch(QueryServer, "execute", "server.execute", label=query_label)
        self._patch(QueryServer, "execute_prepared", EXEC_LAYER, ops=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def select(self, since: int = 0, labels=None) -> list[Span]:
        """Spans recorded after index ``since`` whose request label is in
        ``labels`` (all when ``None``)."""
        spans = self.spans[since:]
        if labels is None:
            return spans
        return [span for span in spans if span.label in labels]

    @staticmethod
    def self_times(spans) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += span.self_time
        return totals

    @staticmethod
    def ops_counts(spans) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in spans:
            if span.ops:
                for key, value in span.ops.items():
                    totals[key] += value
        return totals

    def dump(self, path, extra: dict) -> None:
        """Write every span (parents as indexes) plus ``extra`` as JSON."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        rows = [{
            "name": span.name,
            "start_us": round((span.start - origin) * 1e6, 1),
            "end_us": round((span.end - origin) * 1e6, 1),
            "parent": index.get(id(span.parent)) if span.parent else None,
            "request": span.request,
            "label": span.label,
            "thread": span.thread,
            **({"ops": span.ops} if span.ops else {}),
        } for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "spans": rows}, handle)
