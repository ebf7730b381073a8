"""The executor: the prepare-time closure program every plan runs through.

Every operator kind must produce the tree-walking baseline's result; every
non-structural plan node must compile to a closure (there is no other way
to run it); function-name errors are static (raised by ``prepare()``) while
recursion is detected at run time; and the compiled program must share the
plan cache's lifecycle (store-version invalidation, options keying) and
serve the thread and process serving modes.
"""

from __future__ import annotations

import pytest

from repro import EngineOptions, MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.errors import XQueryTypeError, XQueryUnsupportedError
from repro.relational import capture
from repro.xmark import XMARK_QUERIES, xmark_query
from repro.xml.serializer import serialize_sequence
from repro.xquery.codegen import CompiledProgram, compile_plan

from conftest import SMALL_XML


#: one query per operator kind (some exercise several at once)
KIND_QUERIES = {
    "const": "42",
    "empty": "count(())",
    "seq": "(1, 2, 3)",
    "range": "1 to 4",
    "arith": "2 + 3 * 4",
    "unary": "-(1 + 2)",
    "cmp-value": "1 lt 2",
    "cmp-general": "(1, 2) = (2, 3)",
    "and-or": "1 = 1 and (2 = 3 or 4 = 4)",
    "if": 'if (count(//person) > 1) then "many" else "few"',
    "step": "/site/people/person/name",
    "step-predicate": '//person[@id = "person1"]/name/text()',
    "positional": "/site/people/person[2]/name",
    "last": "/site/people/person[last()]/name",
    "filter": "(1 to 9)[. mod 3 = 0]",
    "call": "count(//person)",
    "context-builtin": "string(/site/people/person[1]/name)",
    "flwor": ("for $p in /site/people/person "
              "where $p/profile/@income >= 30000 "
              "return $p/name/text()"),
    "flwor-join": ("for $p in /site/people/person "
                   "for $t in /site/closed_auctions/closed_auction "
                   "where $t/buyer/@person = $p/@id "
                   "return $t/price/text()"),
    "flwor-order": ("for $p in /site/people/person "
                    "order by $p/name/text() descending "
                    "return $p/name/text()"),
    "let": ("for $p in /site/people/person "
            "let $n := count($p/profile/interest) return $n"),
    "quantified": ("for $a in /site/open_auctions/open_auction "
                   "where some $b in $a/bidder "
                   "satisfies $b/increase/text() >= 5 "
                   "return $a/@id"),
    "var-global": "declare variable $n := count(//person); $n + 1",
    "elem": ("for $p in /site/people/person "
             "return <n id='{$p/@id}' k='x{1 + 1}y'>"
             "{count($p/profile/interest)} {$p/name}</n>"),
    "elem-nested": "<r>{for $i in (1 to 3) return <c>{$i}</c>}</r>",
    "text": "for $i in //item return text { $i/name }",
    "user-call": ("declare function local:rich($p) "
                  "{ $p/profile/@income >= 40000 }; "
                  "for $p in /site/people/person "
                  "where local:rich($p) return $p/name/text()"),
    "user-call-nested": ("declare function local:add($a, $b) { $a + $b }; "
                         "local:add(local:add(1, 2), 3) * local:add(4, 5)"),
    "user-call-constructs": ("declare function local:wrap($x) "
                             "{ <w>{$x}</w> }; "
                             "for $n in //person/name return local:wrap($n)"),
}

#: plan operators with no closure of their own: their parent's closure
#: consumes them inline
STRUCTURAL_KINDS = {"for", "let", "orderspec", "avt"}


@pytest.fixture
def engine() -> MonetXQuery:
    mxq = MonetXQuery()
    mxq.load_document_text(SMALL_XML, name="auction.xml")
    return mxq


def closure_targets(prepared) -> set[int]:
    """Ids of every non-structural node reachable from the plan roots."""
    return {node.id for root in prepared.plan.roots()
            for node in root.walk() if node.kind not in STRUCTURAL_KINDS}


class TestPerKindResults:
    @pytest.mark.parametrize("kind", sorted(KIND_QUERIES))
    def test_matches_tree_walking_interpreter(self, engine, kind):
        query = KIND_QUERIES[kind]
        expected = serialize_sequence(
            run_baseline(engine.store, query, "auction.xml"))
        assert engine.query(query).serialize() == expected, query


class TestClosureCoverage:
    """``compile_plan`` builds one closure per non-structural node."""

    def assert_fully_compiled(self, prepared):
        program = prepared.compiled
        targets = closure_targets(prepared)
        assert set(program.by_id) == targets, prepared.text
        assert program.compiled_count == len(targets)
        assert program.fallbacks == {}

    @pytest.mark.parametrize("kind", sorted(KIND_QUERIES))
    def test_kind_queries(self, engine, kind):
        self.assert_fully_compiled(engine.prepare(KIND_QUERIES[kind]))

    def test_xmark_queries(self, xmark_engine):
        for number in sorted(XMARK_QUERIES):
            self.assert_fully_compiled(
                xmark_engine.prepare(xmark_query(number)))

    def test_plan_dump_has_no_executor_annotations(self, engine):
        rendered = engine.explain(KIND_QUERIES["elem"])
        assert "(codegen)" not in rendered
        assert "(interpreted" not in rendered
        assert "codegen" not in rendered


class TestErrors:
    def test_unknown_function_is_static(self, engine):
        # XPST0017: an unknown function name fails at prepare time, even
        # in a branch that would never run
        with pytest.raises(XQueryUnsupportedError, match="no-such"):
            engine.prepare("if (1 = 2) then local:no-such(1) else 0")

    def test_unknown_function_is_not_cached(self, engine):
        for _ in range(2):
            with pytest.raises(XQueryUnsupportedError):
                engine.prepare("fn:frobnicate(1)")
        assert engine.plan_cache_stats.hits == 0

    def test_recursive_function_raises_at_run(self, engine):
        prepared = engine.prepare(
            "declare function local:f($x) { local:f($x) }; local:f(1)")
        with pytest.raises(XQueryUnsupportedError, match="recursive"):
            prepared.run()

    def test_arity_mismatch_raises_type_error(self, engine):
        prepared = engine.prepare(
            "declare function local:f($x) { $x }; local:f(1, 2)")
        with pytest.raises(XQueryTypeError, match="expects 1"):
            prepared.run()


class TestPlanCacheIntegration:
    def test_compiled_program_cached_on_prepared_query(self, engine):
        first = engine.prepare("count(//person)")
        second = engine.prepare("count(//person)")
        assert first is second
        assert isinstance(first.compiled, CompiledProgram)
        assert second.compiled is first.compiled

    def test_store_version_bump_invalidates(self, engine):
        before = engine.prepare("count(//person)")
        engine.load_document_text("<extra/>", name="extra.xml",
                                  default_context=False)
        after = engine.prepare("count(//person)")
        assert after is not before
        assert after.compiled is not before.compiled
        assert after.run().items == [3]

    def test_options_keying_separates_programs(self, engine):
        fused = engine.prepare("count(//person)")
        per_step = engine.prepare("count(//person)",
                                  options=EngineOptions(step_fusion=False))
        assert fused is not per_step
        assert fused.compiled is not per_step.compiled
        assert fused.run().items == per_step.run().items == [3]

    def test_uncached_engine_still_compiles(self):
        uncached = MonetXQuery(plan_cache_size=0)
        uncached.load_document_text(SMALL_XML, name="auction.xml")
        prepared = uncached.prepare("count(//person)")
        assert isinstance(prepared.compiled, CompiledProgram)
        assert prepared.run().items == [3]


class TestPositionalFusedChains:
    """``[k]`` / ``[last()]`` predicates inside fused chains."""

    POSITIONAL_QUERIES = [
        "/site/people/person[1]/name",
        "/site/people/person[2]/name/text()",
        "/site/people/person[last()]/name",
        "count(/site/open_auctions/open_auction[1]/bidder)",
        "//open_auction[last()]/itemref",
        "/site/closed_auctions/closed_auction[3]/price/text()",
        "/site/people/person[7]/name",          # out of range: empty
    ]

    @pytest.mark.parametrize("query", POSITIONAL_QUERIES)
    def test_positional_chains_fuse_and_agree(self, engine, query):
        with capture() as trace:
            fused = engine.query(query)
        assert trace.count("step.chain-positional") >= 1, query
        baseline = engine.query(
            query, options=EngineOptions(step_fusion=False))
        assert fused.serialize() == baseline.serialize(), query


class TestCompileFunction:
    def test_compile_plan_covers_and_reports(self, engine):
        prepared = engine.prepare("count(//person)")
        program = compile_plan(prepared.plan, prepared.options)
        assert program.compiled_count == len(closure_targets(prepared))
        assert program.fallbacks == {}

    def test_compiled_program_is_shareable(self, engine):
        """One CompiledProgram serves many executions (and threads): the
        closures keep no run state, so repeated runs agree."""
        for kind in ("flwor-join", "user-call-constructs"):
            prepared = engine.prepare(KIND_QUERIES[kind])
            first = prepared.run().serialize()
            for _ in range(3):
                assert prepared.run().serialize() == first


class TestServingIntegration:
    def test_server_stats_render_counters(self):
        from repro.server import QueryServer

        with QueryServer(threads=2) as server:
            server.load_document_text(SMALL_XML, name="auction.xml")
            for _ in range(3):
                assert server.execute("count(//person)").items == [3]
            stats = server.stats()
            assert stats.plan_cache.hits >= 1
            rendered = stats.render()
            assert "plans[hit=" in rendered
            assert "compiled=" not in rendered

    def test_process_pool_serves_compiled_plans(self):
        from repro.server import QueryServer

        queries = [
            "count(//person)",
            KIND_QUERIES["flwor-join"],
            "/site/people/person[2]/name/text()",
            KIND_QUERIES["user-call-constructs"],
        ]
        with QueryServer(threads=2) as threaded, \
                QueryServer(processes=1) as pooled:
            threaded.load_document_text(SMALL_XML, name="auction.xml")
            pooled.load_document_text(SMALL_XML, name="auction.xml")
            for query in queries:
                for _ in range(2):    # second pass: worker plan-cache hit
                    assert pooled.submit(query).result().serialize() \
                        == threaded.execute(query).serialize(), query
