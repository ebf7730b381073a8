"""XMark's two construction- and path-heavy queries, Q7 and Q10.

* **Q7** (``count($p//description) + count($p//annotation) + …``): the
  three counts share the ``$p//`` prefix.  Common-subplan sharing must not
  memoise a step that every consumer fuses into its step chain — that cut
  all three chains and boxed every subtree node, making the default
  configuration ~50× slower than ``subplan_sharing=False``.  The gate:
  with defaults Q7 takes at most :data:`Q7_BOUND` × its time with sharing
  off (interleaved best-of-N, so host-speed drift hits both sides).
* **Q10** nests its element constructors four deep.  Nested constructors
  are built in place inside their parent's fragment, so the transient
  container holds the result trees plus the ``personne`` elements Q10
  binds to ``$p`` before copying them — and nothing else (no orphaned
  inner fragments).  The gate asserts exactly that count.

Results land in ``benchmarks/results/BENCH_bench_xmark_hotspots.json``.
"""

from __future__ import annotations

import gc
import time

from repro import EngineOptions, MonetXQuery
from repro.relational.explain import capture
from repro.xmark import XMARK_QUERIES, generate_document

from .conftest import BASE_SCALE, SEED, write_bench_json

#: Q7 needs a document big enough that its counts dominate fixed costs
SCALE = max(BASE_SCALE, 0.01)
REPEATS = 9
#: the ceiling on Q7's default time relative to sharing switched off
Q7_BOUND = 1.2

_RESULTS: dict[str, dict] = {}
_ENGINE: MonetXQuery | None = None


def engine() -> MonetXQuery:
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = MonetXQuery()
        _ENGINE.load_document_text(generate_document(SCALE, SEED),
                                   name="auction.xml")
    return _ENGINE


def interleaved_best(prepared: dict, repeats: int = REPEATS
                     ) -> dict[str, float]:
    """Best run time per prepared query, the queries taking turns."""
    best = dict.fromkeys(prepared, float("inf"))
    for _ in range(repeats):
        for label, query in prepared.items():
            gc.collect()
            started = time.perf_counter()
            query.run()
            best[label] = min(best[label], time.perf_counter() - started)
            engine().reset_transient()
    return best


def record(workload: str, payload: dict) -> None:
    _RESULTS[workload] = payload
    write_bench_json("bench_xmark_hotspots", {"scale_used": SCALE,
                                              "workloads": _RESULTS})


def test_q7_sharing_does_not_block_fusion():
    mxq = engine()
    query = XMARK_QUERIES[7]
    prepared = {
        "default": mxq.prepare(query),
        "sharing_off": mxq.prepare(
            query, options=EngineOptions(subplan_sharing=False)),
    }
    assert prepared["default"].run().serialize() \
        == prepared["sharing_off"].run().serialize()
    with capture() as trace:
        prepared["default"].run()
    fused = trace.count("step.chain-fused")
    reused = trace.count("plan.cse.reuse")
    best = interleaved_best(prepared)
    ratio = best["default"] / best["sharing_off"]
    record("q7", {"default_s": best["default"],
                  "sharing_off_s": best["sharing_off"],
                  "default_over_sharing_off": ratio,
                  "chain_fused": fused, "cse_reuse": reused,
                  "bound": Q7_BOUND})
    assert fused >= 3 and reused == 0
    assert ratio <= Q7_BOUND, \
        f"Q7 with sharing is {ratio:.2f}x its time with sharing off"


def test_q10_transient_is_orphan_free():
    mxq = engine()
    prepared = mxq.prepare(XMARK_QUERIES[10])
    mxq.reset_transient()
    result = prepared.run()
    transient = mxq.transient
    result_nodes = sum(transient.size[item.pre] + 1 for item in result.items)
    roots = [pre for pre in range(transient.node_count)
             if transient.level[pre] == 0]
    bound_nodes = sum(transient.size[pre] + 1 for pre in roots
                      if transient.element_name(pre) == "personne")
    transient_nodes = transient.node_count
    mxq.reset_transient()
    best = interleaved_best({"q10": prepared})["q10"]
    record("q10", {"best_s": best, "transient_nodes": transient_nodes,
                   "result_nodes": result_nodes,
                   "bound_personne_nodes": bound_nodes})
    assert transient_nodes == result_nodes + bound_nodes
