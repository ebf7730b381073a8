"""The three benchmark workloads: ``xmark``, ``adhoc`` and ``serve``.

Each workload builds its inputs from the run's seeds, sets the engine up
several times, measures for the requested number of seconds and
checks every output against the baseline oracle.  Untraced runs report the
end-to-end metrics; traced runs install :class:`tracing.Tracer` and report
the per-layer metrics (README.md maps each to the end-to-end metric it
should move).
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro import MonetXQuery, QueryServer
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xml.document import NodeRef

import oracle
import writes
from adhoc_queries import adhoc_stream
from stats import bytes_written, median, peak_rss_mb
from tracing import COMPILE_LAYERS, EXEC_LAYER, Tracer

XMARK_SCALE = 0.02
ADHOC_SCALE = 0.001
SERVE_SCALE = 0.01
#: the baseline needs tens of seconds for these join queries at workload
#: scale (nested-loop evaluation), so they are checked at this scale
ORACLE_SMALL_SCALE = 0.002
SLOW_ON_BASELINE = ("Q08", "Q09", "Q11", "Q12")
#: runs make at least this many passes (serve: rounds), so every
#: operation's time is the fastest of at least this many executions
MIN_PASSES = 12
#: distinct ad-hoc texts per template: 9 templates x 15 = 135 texts, more
#: than twice the engine's 64-entry plan cache
ADHOC_PER_TEMPLATE = 15
SERVE_MIX = (1, 6, 8, 13, 14, 19, 20)
SERVE_THREADS = 2
#: update transactions per serve round: the commits' time depends on the
#: host's disk as well as its processor, so they need more samples than
#: the reads to find their fastest
SERVE_WRITES = 2
#: share of a traced run spent untraced, for the overhead ratio
UNTRACED_SHARE = 0.3

LABELS = tuple(f"Q{number:02d}" for number in range(1, 21))
#: the label of update transactions among a run's samples
WRITE = "write"
E2E_UNITS = {
    "setup_s": "s", "pass_s": "s", "query_median_ms": "ms",
    "peak_rss_mb": "MB",
}
OPS = ("step.chain-fused", "step.materialize", "plan.cse.reuse",
       "join.hash", "sort.skipped", "rows_out")
QUERY_OPS = ("step.chain-fused", "step.materialize", "rows_out")
LAYER_UNITS = {
    "xml.shred_s": "s", "xml.shred_nodes_per_s": "1/s",
    "persist.save_s": "s", "persist.open_s": "s",
    "persist.commit_write_bytes": "bytes", "persist.write_amp": "ratio",
    "xquery.parse_ms": "ms", "xquery.plan_ms": "ms",
    "relational.stats_ms": "ms", "relational.rewrite_ms": "ms",
    "relational.rewrites_fired": "count", "xquery.codegen_ms": "ms",
    "xquery.codegen_fallbacks": "count", "xquery.codegen_coverage": "ratio",
    "engine.prepare_ms": "ms", "engine.plan_cache_hit_ratio": "ratio",
    "exec.total_ms": "ms",
    **{f"exec.{label}_ms": "ms" for label in LABELS},
    **{f"ops.{name}": "count" for name in OPS},
    **{f"ops.{label}.{name}": "count"
       for label in LABELS for name in QUERY_OPS},
    "construct.transient_nodes": "count", "xml.serialize_ms": "ms",
    "server.wait_ms": "ms", "server.exec_ms": "ms",
    "subplan.hit_ratio": "ratio", "subplan.invalidations": "count",
    "update.open_ms": "ms", "update.apply_ms": "ms",
    "update.commit_ms": "ms", "update.pages_touched": "count",
    "trace.overhead_ratio": "ratio",
    "exec.self_share": "ratio", "compile.self_share": "ratio",
}


@dataclass
class Config:
    seconds: float
    trace: bool
    doc_seed: int
    variant_seed: int
    write_seed: int
    workdir: Path


@dataclass
class Report:
    """Operation counts, failures and metrics of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=lambda: dict.fromkeys(LAYER_UNITS, 0.0))
    info: dict = field(default_factory=dict)
    #: the traced run's tracer, whose spans the runner writes out
    tracer: Tracer | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


# ---------------------------------------------------------------------- #
# shared pieces
# ---------------------------------------------------------------------- #
def _maybe(tracer: Tracer | None):
    return tracer if tracer is not None else contextlib.nullcontext()


def _request(tracer: Tracer | None, label: str, name: str = "request"):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.request(label, name)


def _transient_nodes(result) -> int:
    """Nodes the query constructed: the sizes of the transient containers
    its result items live in."""
    containers = {id(item.container): item.container for item in result.items
                  if isinstance(item, NodeRef) and item.container.transient}
    return sum(container.node_count for container in containers.values())


def _shred_setup(doc: str, times: list[float]) -> MonetXQuery:
    """A fresh engine with ``doc`` shredded; appends the set-up time."""
    gc.collect()
    started = time.perf_counter()
    engine = MonetXQuery()
    engine.load_document_text(doc, name=oracle.DOCUMENT)
    times.append(time.perf_counter() - started)
    return engine


class ClosedLoop:
    """A single client running passes over a fixed query list."""

    def __init__(self, engine: MonetXQuery, queries, report: Report, *,
                 gc_each_query: bool):
        #: [(key, label, text)]: key identifies the expected output
        self.engine = engine
        self.queries = queries
        self.report = report
        self.gc_each_query = gc_each_query
        self.outputs: dict = defaultdict(Counter)
        self.transient_nodes = 0

    def one_pass(self, tracer: Tracer | None = None,
                 samples: list | None = None) -> float:
        """Run every query once; returns the summed query latencies."""
        total = 0.0
        engine = self.engine
        for key, label, text in self.queries:
            if self.gc_each_query:
                gc.collect()
            self.report.attempted += 1
            try:
                with _request(tracer, label):
                    started = time.perf_counter()
                    result = engine.prepare(text).run()
                    output = result.serialize()
                    seconds = time.perf_counter() - started
            except Exception as exc:  # a failed query is counted, not fatal
                self.report.fail(f"{label}: {exc!r}")
                engine.reset_transient()
                continue
            if tracer is not None:
                self.transient_nodes += _transient_nodes(result)
            self.outputs[key][oracle.digest(output)] += 1
            total += seconds
            if samples is not None:
                samples.append((key, label, seconds))
            engine.reset_transient()
        if not self.gc_each_query:
            gc.collect()
        return total

    def run(self, seconds: float, doc: str, setups: list[float],
            tracer: Tracer | None = None, min_passes: int = MIN_PASSES):
        """Passes until ``seconds`` have elapsed (at least ``min_passes``),
        each followed by one timed set-up of ``doc``, so that the set-up
        time samples the whole run."""
        passes: list[float] = []
        samples: list = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            passes.append(self.one_pass(tracer, samples))
            _shred_setup(doc, setups)
        return passes, samples

    def check(self, expected: dict, skip=()) -> None:
        """Count every output whose digest differs from ``expected``."""
        labels = {key: label for key, label, _ in self.queries}
        for key, digests in self.outputs.items():
            if key in skip:
                continue
            for digest, count in digests.items():
                if digest != expected[key]:
                    name = labels[key] if key == labels[key] \
                        else f"{labels[key]} text {key}"
                    self.report.fail(f"{name}: wrong result", count)


def _write_layers(report: Report, acknowledged: list) -> None:
    """update.pages_touched and the persist write counters from
    ``[(write, pages touched, bytes written)]``."""
    if not acknowledged:
        return
    layers = report.layers
    written = sum(bytes_ for _, _, bytes_ in acknowledged)
    layers["update.pages_touched"] = \
        sum(pages for _, pages, _ in acknowledged) / len(acknowledged)
    layers["persist.commit_write_bytes"] = written / len(acknowledged)
    user = sum(write.user_bytes for write, _, _ in acknowledged)
    layers["persist.write_amp"] = written / user if user else 0.0


def _span_layers(report: Report, spans, passes: float,
                 executions: Counter, roots: tuple) -> None:
    """Engine-side per-layer metrics from the spans of measured reads.

    ``passes`` normalizes the per-pass totals, ``executions`` counts the
    executions per query label, ``roots`` names the root spans whose
    durations make up the reads' total time."""
    layers = report.layers
    own = Tracer.self_times(spans)
    ms_per_pass = lambda seconds: seconds * 1000.0 / passes  # noqa: E731
    for layer, metric in (("xquery.parse", "xquery.parse_ms"),
                          ("xquery.plan", "xquery.plan_ms"),
                          ("relational.stats", "relational.stats_ms"),
                          ("relational.rewrite", "relational.rewrite_ms"),
                          ("xquery.codegen", "xquery.codegen_ms"),
                          (EXEC_LAYER, "exec.total_ms"),
                          ("xml.serialize", "xml.serialize_ms")):
        layers[metric] = ms_per_pass(own.get(layer, 0.0))
    layers["engine.prepare_ms"] = ms_per_pass(sum(
        span.duration for span in spans if span.name == "engine.prepare"))
    counts = Tracer.ops_counts(spans)
    layers["relational.rewrites_fired"] = counts["rewrites_fired"] / passes
    layers["xquery.codegen_fallbacks"] = counts["codegen_fallbacks"] / passes
    if counts["plan_nodes"]:
        layers["xquery.codegen_coverage"] = \
            counts["codegen_compiled"] / counts["plan_nodes"]
    exec_spans = [span for span in spans if span.name == EXEC_LAYER]
    exec_counts = Tracer.ops_counts(exec_spans)
    for name in OPS:
        layers[f"ops.{name}"] = exec_counts[name] / passes
    by_label = defaultdict(list)
    for span in exec_spans:
        by_label[span.label].append(span)
    for label in LABELS:
        runs = executions.get(label, 0)
        if not runs:
            continue
        layers[f"exec.{label}_ms"] = \
            sum(span.self_time for span in by_label[label]) * 1000.0 / runs
        label_counts = Tracer.ops_counts(by_label[label])
        for name in QUERY_OPS:
            layers[f"ops.{label}.{name}"] = label_counts[name] / runs
    total = sum(span.duration for span in spans
                if span.parent is None and span.name in roots)
    if total:
        layers["exec.self_share"] = own.get(EXEC_LAYER, 0.0) / total
        layers["compile.self_share"] = \
            sum(own.get(layer, 0.0) for layer in COMPILE_LAYERS) / total


def _update_layers(report: Report, spans) -> None:
    """Per-transaction update-layer times from the spans of writes."""
    transactions = sum(1 for span in spans if span.parent is None)
    if not transactions:
        return
    for layer in ("update.open", "update.apply", "update.commit"):
        report.layers[f"{layer}_ms"] = sum(
            span.duration for span in spans
            if span.name == layer) * 1000.0 / transactions


def _setup_layers(report: Report, spans, node_count: int) -> None:
    for layer, metric in (("xml.shred", "xml.shred_s"),
                          ("persist.save", "persist.save_s"),
                          ("persist.open", "persist.open_s")):
        durations = [span.duration for span in spans if span.name == layer]
        report.layers[metric] = median(durations)
    if report.layers["xml.shred_s"]:
        report.layers["xml.shred_nodes_per_s"] = \
            node_count / report.layers["xml.shred_s"]


class _CacheCounts:
    """Plan-cache (and subplan-cache) counter deltas summed over intervals."""

    def __init__(self, engine: MonetXQuery, subplans=None):
        self.engine = engine
        self.subplans = subplans
        self.plan_hits = self.plan_lookups = 0
        self.subplan_hits = self.subplan_lookups = self.invalidations = 0

    @contextlib.contextmanager
    def interval(self):
        plans = self.engine.plan_cache_stats_snapshot()
        subplans = self.subplans.stats.snapshot() if self.subplans else None
        yield
        after = self.engine.plan_cache_stats_snapshot()
        self.plan_hits += after.hits - plans.hits
        self.plan_lookups += after.hits - plans.hits \
            + after.misses - plans.misses
        if subplans is not None:
            after = self.subplans.stats.snapshot()
            self.subplan_hits += after.hits - subplans.hits
            self.subplan_lookups += after.hits - subplans.hits \
                + after.misses - subplans.misses
            self.invalidations += after.invalidations - subplans.invalidations

    def set_layers(self, layers: dict) -> None:
        if self.plan_lookups:
            layers["engine.plan_cache_hit_ratio"] = \
                self.plan_hits / self.plan_lookups
        if self.subplan_lookups:
            layers["subplan.hit_ratio"] = \
                self.subplan_hits / self.subplan_lookups
        if self.subplans is not None:
            layers["subplan.invalidations"] = self.invalidations


def _pass_metrics(report: Report, samples) -> None:
    """The end-to-end metrics from ``[(key, label, seconds)]``, one sample
    per execution of an operation (``key``: a query text, or a kind of
    update transaction labelled ``WRITE``).  Each operation is timed by its
    fastest execution: on a shared machine the slower ones measure the
    stretches in which other work slowed every operation, not the program.
    A pass is the sum of those times over the workload's operations."""
    by_key = defaultdict(list)
    labels = {}
    for key, label, seconds in samples:
        by_key[key].append(seconds)
        labels[key] = label
    times = {key: min(values) for key, values in by_key.items()}
    report.e2e["pass_s"] = sum(times.values())
    report.e2e["query_median_ms"] = median(
        [value for key, value in times.items() if labels[key] != WRITE]) * 1000.0
    report.e2e["peak_rss_mb"] = peak_rss_mb()
    by_label = defaultdict(list)
    for key, label, seconds in samples:
        by_label[key if label == WRITE else label].append(seconds)
    report.info["min_ms"] = {
        label: min(values) * 1000.0 for label, values in sorted(by_label.items())}
    report.info["p50_ms"] = {
        label: median(values) * 1000.0 for label, values in sorted(by_label.items())}


# ---------------------------------------------------------------------- #
# closed-loop workloads: xmark and adhoc
# ---------------------------------------------------------------------- #
def _closed_workload(cfg: Config, report: Report, doc: str, queries,
                     *, gc_each_query: bool) -> ClosedLoop:
    tracer = Tracer() if cfg.trace else None
    setups: list[float] = []
    engine = _shred_setup(doc, setups)
    loop = ClosedLoop(engine, queries, report, gc_each_query=gc_each_query)
    loop.one_pass()                                # warm: plans, imports
    if tracer is None:
        passes, samples = loop.run(cfg.seconds, doc, setups)
    else:
        untraced, _ = loop.run(cfg.seconds * UNTRACED_SHARE, doc, setups,
                               min_passes=2)
        caches = _CacheCounts(engine)
        mark = len(tracer.spans)
        with tracer, caches.interval():
            passes, samples = loop.run(cfg.seconds * (1 - UNTRACED_SHARE),
                                       doc, setups, tracer, min_passes=2)
        _setup_layers(report, tracer.spans,
                      engine.store.get(oracle.DOCUMENT).node_count)
        caches.set_layers(report.layers)
        report.layers["trace.overhead_ratio"] = min(passes) / min(untraced)
        report.layers["construct.transient_nodes"] = \
            loop.transient_nodes / len(passes)
        _span_layers(report, tracer.select(mark, set(LABELS)), len(passes),
                     Counter(label for _, label, _ in samples), ("request",))
    report.e2e["setup_s"] = median(setups)
    _pass_metrics(report, samples)
    report.info["passes"] = len(passes)
    report.info["setups"] = len(setups)
    report.tracer = tracer
    return loop


def run_xmark(cfg: Config, report: Report) -> None:
    """XMark Q1-Q20 on one engine, plans warm, ``gc.collect()`` between
    queries (the paper's Table 1 workload)."""
    doc = generate_document(XMARK_SCALE, cfg.doc_seed)
    queries = [(label, label, XMARK_QUERIES[int(label[1:])]) for label in LABELS]
    loop = _closed_workload(cfg, report, doc, queries, gc_each_query=True)
    checked = {label: text for label, _, text in queries
               if label not in SLOW_ON_BASELINE}
    loop.check(oracle.baseline_digests(doc, checked), skip=SLOW_ON_BASELINE)
    # the join queries: engine against baseline on a smaller document of
    # the same seed, and one result per query across every measured pass
    small = generate_document(ORACLE_SMALL_SCALE, cfg.doc_seed)
    slow = {label: XMARK_QUERIES[int(label[1:])] for label in SLOW_ON_BASELINE}
    small_engine = oracle.engine_digests(small, slow)
    small_baseline = oracle.baseline_digests(small, slow)
    for label in SLOW_ON_BASELINE:
        digests = loop.outputs[label]
        if small_engine[label] != small_baseline[label]:
            report.fail(f"{label}: wrong result at scale {ORACLE_SMALL_SCALE}",
                        sum(digests.values()))
        elif len(digests) > 1:
            report.fail(f"{label}: results differ between passes",
                        sum(digests.values()) - max(digests.values()))


def run_adhoc(cfg: Config, report: Report) -> None:
    """A stream of distinct XMark-derived texts on a small document: every
    prepare misses the plan cache, so compilation is a share of latency."""
    doc = generate_document(ADHOC_SCALE, cfg.doc_seed)
    stream = adhoc_stream(ADHOC_SCALE, cfg.variant_seed, ADHOC_PER_TEMPLATE)
    queries = [(index, label, text)
               for index, (label, text) in enumerate(stream)]
    loop = _closed_workload(cfg, report, doc, queries, gc_each_query=False)
    loop.check(oracle.baseline_digests(
        doc, {index: text for index, _, text in queries}))


# ---------------------------------------------------------------------- #
# serve: reads through a QueryServer beside commits on a persisted store
# ---------------------------------------------------------------------- #
def _serve_setup(doc: str, store_path: Path, times: list[float]) -> QueryServer:
    """Shred ``doc``, save it to ``store_path`` and serve the reopened
    store; appends the set-up time."""
    gc.collect()
    started = time.perf_counter()
    shredder = MonetXQuery()
    shredder.load_document_text(doc, name=oracle.DOCUMENT)
    shredder.save_store(store_path)
    server = QueryServer(threads=SERVE_THREADS, store_path=store_path)
    times.append(time.perf_counter() - started)
    return server


def _close(server: QueryServer) -> None:
    server.close()
    server.engine.store.close()


def run_serve(cfg: Config, report: Report) -> None:
    """A two-thread QueryServer over a persisted, reopened store: rounds of
    ``SERVE_WRITES`` update transactions followed by every read of the mix,
    submitted one at a time to the server's worker pool (so every read runs
    on a document version that no cached plan has seen yet), and one timed
    set-up of a spare store after each round."""
    doc = generate_document(SERVE_SCALE, cfg.doc_seed)
    texts = {f"Q{n:02d}": XMARK_QUERIES[n] for n in SERVE_MIX}
    tracer = Tracer(labels={text: label for label, text in texts.items()}) \
        if cfg.trace else None
    base = cfg.workdir / f"serve-{cfg.doc_seed}-{time.monotonic_ns()}"
    store_path = base / "store"
    setups: list[float] = []
    server = None
    try:
        with _maybe(tracer):
            server = _serve_setup(doc, store_path, setups)
        node_count = server.engine.store.get(oracle.DOCUMENT).node_count

        stream = writes.WriteStream(server.engine, cfg.write_seed)
        outputs: dict = defaultdict(Counter)
        #: (query label or "write.<kind>", label or WRITE, seconds)
        samples: list = []
        exec_seconds: list[float] = []
        acknowledged: list = []        # (write, pages, bytes written)
        transient_nodes = 0

        def write(tracer: Tracer | None) -> None:
            change = stream.next()
            report.attempted += 1
            gc.collect()
            written = bytes_written()
            started = time.perf_counter()
            try:
                with _request(tracer, WRITE):
                    with server.update(oracle.DOCUMENT) as updater:
                        pages = writes.apply(updater, change)
            except Exception as exc:  # a failed write is counted, not fatal
                report.fail(f"write {change.number}: {exc!r}")
                return
            samples.append((f"{WRITE}.{change.kind}", WRITE,
                            time.perf_counter() - started))
            acknowledged.append((change, pages, bytes_written() - written))

        def read(label: str, tracer: Tracer | None) -> float:
            nonlocal transient_nodes
            report.attempted += 1
            gc.collect()
            started = time.perf_counter()
            try:
                result = server.submit(texts[label]).result()
                with _request(tracer, label, "respond"):
                    output = result.serialize()
                seconds = time.perf_counter() - started
            except Exception as exc:  # a failed read is counted, not fatal
                report.fail(f"{label}: {exc!r}")
                return 0.0
            samples.append((label, label, seconds))
            exec_seconds.append(result.elapsed_seconds)
            outputs[label][oracle.digest(output)] += 1
            if tracer is not None:
                transient_nodes += _transient_nodes(result)
            return seconds

        def rounds(seconds: float, min_rounds: int,
                   tracer: Tracer | None = None) -> list[float]:
            """Rounds until ``seconds`` have passed (at least
            ``min_rounds``); returns each round's summed read latencies."""
            totals = []
            deadline = time.perf_counter() + seconds
            while len(totals) < min_rounds or time.perf_counter() < deadline:
                for _ in range(SERVE_WRITES):
                    write(tracer)
                totals.append(sum(read(label, tracer) for label in sorted(texts)))
                spare = base / f"spare{len(setups)}"
                _close(_serve_setup(doc, spare, setups))
                shutil.rmtree(spare)
            return totals

        rounds(0.0, 2)                                    # warm
        del samples[:], exec_seconds[:], setups[1:]
        outputs.clear()
        caches = _CacheCounts(server.engine, server.subplan_cache)
        if tracer is None:
            passes = rounds(cfg.seconds, MIN_PASSES)
        else:
            untraced = rounds(cfg.seconds * UNTRACED_SHARE, 2)
            del samples[:], exec_seconds[:]
            mark = len(tracer.spans)
            with tracer, caches.interval():
                passes = rounds(cfg.seconds * (1 - UNTRACED_SHARE), 2, tracer)
            report.layers["trace.overhead_ratio"] = min(passes) / min(untraced)
        report.e2e["setup_s"] = median(setups)
        _pass_metrics(report, samples)
        server.close()
        report.tracer = tracer
        report.info["passes"] = len(passes)
        report.info["setups"] = len(setups)
        report.info["writes"] = len(acknowledged)

        expected = oracle.baseline_digests(doc, texts)
        for label, digests in outputs.items():
            for key, count in digests.items():
                if key != expected[label]:
                    report.fail(f"{label}: wrong result", count)
        durable = MonetXQuery(store_path=store_path)
        try:
            for change in writes.missing(
                    durable, [change for change, _, _ in acknowledged]):
                report.fail(f"write {change.number} lost after reopen")
        finally:
            durable.store.close()

        if tracer is not None:
            _setup_layers(report, tracer.spans, node_count)
            layers = report.layers
            spans = [span for span in tracer.spans[mark:] if span.label in texts]
            _span_layers(report, spans, len(passes),
                         Counter(span.label for span in spans
                                 if span.name == "server.execute"),
                         ("server.execute", "respond"))
            layers["construct.transient_nodes"] = transient_nodes / len(passes)
            caches.set_layers(layers)
            layers["server.exec_ms"] = median(exec_seconds) * 1000.0
            reads = [seconds for _, label, seconds in samples if label != WRITE]
            layers["server.wait_ms"] = median(
                [total - own for total, own in zip(reads, exec_seconds)]) * 1000.0
            _update_layers(report, [span for span in tracer.spans[mark:]
                                    if span.label == WRITE])
            _write_layers(report, acknowledged)
    finally:
        if server is not None:
            _close(server)
        shutil.rmtree(base, ignore_errors=True)


WORKLOADS = {"xmark": run_xmark, "adhoc": run_adhoc, "serve": run_serve}


def sanity(workload: str, layers: dict) -> list[str]:
    """Why the traced run does not stress the layers its workload was
    chosen for (empty when it does)."""
    problems = []
    if workload == "xmark":
        if layers["exec.self_share"] < 0.90:
            problems.append("executor self time below 90% of query time")
        if layers["compile.self_share"] > 0.01:
            problems.append("compile layers above 1% of query time")
    elif workload == "adhoc":
        if layers["compile.self_share"] < 0.25:
            problems.append("compile layers below 25% of query time")
    elif not (layers["update.commit_ms"] and layers["subplan.invalidations"]
              and layers["persist.commit_write_bytes"]):
        problems.append("commits did not write through or invalidate caches")
    return problems
