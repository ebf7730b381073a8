"""Executor re-execution — a host-normalised bound on cached-plan runs.

Every plan runs through its prepare-time closure program
(:mod:`repro.xquery.codegen`).  The closures pay off where per-operator
dispatch dominates: small prepared plans served over and over from the
plan cache.  Two mixes isolate it:

* **expression mix** — dispatch-bound arithmetic / comparison / logic
  plans over constants: the closures inline every literal and resolve
  every operator at prepare time, so re-execution is closure composition
  over per-iteration dicts,
* **serving mix** — small path / predicate / FLWOR queries of the shape a
  plan-cache-heavy server sees: the staircase joins and table kernels
  dominate, so this mix tracks host speed and little else.

The bound is a ratio, so it cancels the speed of the host:
``expression time / serving time <= 1.2 x reference``, where the reference
is the median ratio the closure executor measured at each scale (see
``REFERENCE_RATIO``).  Losing the closures' dispatch win (~1.65x on the
expression mix) pushes the ratio past the bound; host speed moves both
mixes together.  Every result is checked against the tree-walking baseline
interpreter's serialization before any timing.  Results land in
``benchmarks/results/BENCH_bench_codegen.json``.
"""

from __future__ import annotations

import time

import pytest

from repro import MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.xmark import generate_document
from repro.xml.serializer import serialize_sequence

from .conftest import BASE_SCALE, SEED, write_bench_json

REPEATS = 9

#: expression-mix / serving-mix time of the closure executor, keyed by
#: ``REPRO_BENCH_SCALE``: the median of 12 runs per scale (each mix timed
#: on its own, best of 9 per query) on a 2-core x86-64 host, CPython 3.11
REFERENCE_RATIO = {0.002: 0.657, 0.0008: 0.671}
#: allowed slack over the reference ratio
BOUND = 1.2

#: dispatch-bound plans: many operators, (almost) no document data
EXPRESSION_MIX = {
    "arith_deep": ("((1 + 2) * 3 - 4) + (5 * 6 - 7) + ((8 + 9) * 2) "
                   "- (10 * 11 - 12) + ((13 + 14) * 15)"),
    "logic": ("1 = 1 and 2 = 2 and (3 < 4 or 5 > 6) and 7 != 8 "
              "and (9 >= 9 or 10 <= 1)"),
    "cmp_mix": "(1 lt 2) = (3 lt 4) and (5 + 6 gt 7) = ((8 - 1) ge 7)",
    "cond_arith": ("if (1 + 1 = 2) then 3 * 3 "
                   "else if (4 = 5) then 6 else 7 + 8"),
    "seq_arith": "(1 + 1, 2 * 2, 3 - 1, 4 * 4, 5 + 5, 6 - 2, 7 * 2)",
    "unary": "-(1 + 2) + -(3 * 4) - -(5 - 6)",
}

#: kernel-bound plans: what a plan cache actually serves all day
SERVING_MIX = {
    "tiny_count": "count(/site/people/person)",
    "positional": "/site/people/person[2]/name/text()",
    "flwor_where": ("for $i in 1 to 25 "
                    "where $i mod 3 = 0 or $i mod 5 = 1 "
                    "return $i * 2 + 1"),
    "quantified": "some $i in (1 to 12) satisfies $i * $i = 49",
}

_ENGINE: MonetXQuery | None = None


def engine() -> MonetXQuery:
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = MonetXQuery()
        _ENGINE.load_document_text(generate_document(BASE_SCALE, SEED),
                                   name="auction.xml")
    return _ENGINE


def check_against_baseline(mix: dict[str, str]) -> None:
    """The executor must agree with the tree-walking baseline."""
    mxq = engine()
    for query in mix.values():
        expected = serialize_sequence(
            run_baseline(mxq.store, query, "auction.xml"))
        assert mxq.prepare(query).run().serialize() == expected, \
            f"executor diverged from the baseline on {query!r}"


def measure() -> float:
    """Expression-mix over serving-mix re-execution time: per query the
    best of ``REPEATS`` runs, summed per mix.  The repeats interleave both
    mixes, so a change of host speed during the measurement hits both
    sides of the ratio alike."""
    mxq = engine()
    prepared = {(group, name): mxq.prepare(query)
                for group, mix in (("expression", EXPRESSION_MIX),
                                   ("serving", SERVING_MIX))
                for name, query in mix.items()}
    best = dict.fromkeys(prepared, float("inf"))
    for _ in range(REPEATS):
        for key, query in prepared.items():
            started = time.perf_counter()
            query.run()
            best[key] = min(best[key], time.perf_counter() - started)
    totals = {group: sum(seconds for (owner, _), seconds in best.items()
                         if owner == group)
              for group in ("expression", "serving")}
    ratio = totals["expression"] / totals["serving"]
    reference = REFERENCE_RATIO.get(BASE_SCALE)
    write_bench_json("bench_codegen", {
        "scale_used": BASE_SCALE,
        "workloads": {f"{group}:{name}": {"compiled_s": seconds}
                      for (group, name), seconds in best.items()},
        "totals_s": totals, "expression_to_serving_ratio": ratio,
        "reference_ratio": reference, "bound": BOUND})
    return ratio


def test_mixes_match_baseline():
    check_against_baseline(EXPRESSION_MIX)
    check_against_baseline(SERVING_MIX)


def test_expression_mix_within_bound():
    """Dispatch-bound cached plans, normalised by the kernel-bound mix,
    must stay within ``BOUND`` of the closure executor's reference."""
    ratio = measure()
    reference = REFERENCE_RATIO.get(BASE_SCALE)
    if reference is None:
        pytest.skip(f"no reference ratio at scale {BASE_SCALE} "
                    f"(measured {ratio:.3f})")
    assert ratio <= BOUND * reference, \
        f"expression/serving ratio {ratio:.3f} exceeds " \
        f"{BOUND} x reference {reference:.3f}"
