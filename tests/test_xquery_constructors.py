"""Node construction into the transient container and serialization."""

import pytest

from repro import MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.errors import DocumentError
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xml import DocumentStore, serialize_item, serialize_sequence, shred_document
from repro.xml.document import DocumentContainer, NodeKind, NodeRef
from repro.xquery.constructors import construct_element, construct_text


@pytest.fixture
def transient():
    return DocumentContainer("(transient)", order_key=99, transient=True)


@pytest.fixture
def source_doc():
    return shred_document("<a><b x='1'>hi</b><c/></a>", "src.xml", DocumentStore())


class TestConstructElement:
    def test_empty_element(self, transient):
        node = construct_element(transient, "empty", [], [])
        assert serialize_item(node) == "<empty/>"

    def test_attributes(self, transient):
        node = construct_element(transient, "e", [("a", "1"), ("b", "x & y")], [])
        assert serialize_item(node) == '<e a="1" b="x &amp; y"/>'

    def test_atomic_content_merges_with_spaces(self, transient):
        node = construct_element(transient, "e", [], [1, 2, "three"])
        assert serialize_item(node) == "<e>1 2 three</e>"

    def test_node_content_copies_subtree(self, transient, source_doc):
        b = source_doc.candidates_by_name("b")[0]
        node = construct_element(transient, "wrap", [], [NodeRef(source_doc, b)])
        assert serialize_item(node) == '<wrap><b x="1">hi</b></wrap>'

    def test_document_node_content_copies_children(self, transient, source_doc):
        node = construct_element(transient, "copy", [], [NodeRef(source_doc, 0)])
        assert serialize_item(node) == '<copy><a><b x="1">hi</b><c/></a></copy>'

    def test_attribute_node_content_becomes_attribute(self, transient, source_doc):
        attr = source_doc.attribute(0)
        node = construct_element(transient, "e", [], [attr])
        assert serialize_item(node) == '<e x="1"/>'

    def test_mixed_content_order_preserved(self, transient, source_doc):
        c = source_doc.candidates_by_name("c")[0]
        node = construct_element(transient, "e", [],
                                 ["before", NodeRef(source_doc, c), "after"])
        assert serialize_item(node) == "<e>before<c/>after</e>"

    def test_constructed_nodes_are_separate_fragments(self, transient):
        first = construct_element(transient, "a", [], [])
        second = construct_element(transient, "b", [], [])
        assert transient.frag[first.pre] != transient.frag[second.pre]
        assert first < second          # document order by construction order

    def test_size_covers_content(self, transient, source_doc):
        b = source_doc.candidates_by_name("b")[0]
        node = construct_element(transient, "w", [], [NodeRef(source_doc, b), "x"])
        assert transient.size[node.pre] == 3    # b, text(hi), text(x)


class TestConstructText:
    def test_text_node(self, transient):
        node = construct_text(transient, "hello")
        assert node.kind == NodeKind.TEXT
        assert serialize_item(node) == "hello"


class TestSerializeSequence:
    def test_atomics_separated_by_space(self):
        assert serialize_sequence([1, 2, "x"]) == "1 2 x"

    def test_nodes_not_separated(self, transient):
        first = construct_element(transient, "a", [], [])
        second = construct_element(transient, "b", [], [])
        assert serialize_sequence([first, second, 7]) == "<a/><b/>7"

    def test_booleans_and_floats(self):
        assert serialize_sequence([True, False, 2.0, 2.5]) == "true false 2 2.5"


# --------------------------------------------------------------------------- #
# range-slice subtree copies
# --------------------------------------------------------------------------- #
def structural_rows(container, pre):
    """The subtree at ``pre`` as comparable rows: relative level, size,
    kind, name, value and attributes per node."""
    base = container.level[pre]
    return [(container.level[node] - base, container.size[node],
             container.kind[node], container.element_name(node),
             container.value[node],
             [(container.names.local(container.attr_name[slot]),
               container.attr_value[slot])
              for slot in container.attributes_of(node)])
            for node in range(pre, pre + container.size[pre] + 1)]


class TestRangeSliceCopy:
    SOURCE = ("<r><s k='1'><t>x</t><u a='2' b='3'/>tail</s>"
              "<s k='4'><v><w>y</w></v></s></r>")

    @pytest.fixture
    def source(self):
        return shred_document(self.SOURCE, "copy-src.xml", DocumentStore())

    def test_copy_preserves_structure_and_shifts_levels(self, transient,
                                                        source):
        for s in source.candidates_by_name("s"):
            new = transient.copy_subtree_from(source, s, 3, frag=7)
            assert transient.level[new] == 3
            assert structural_rows(transient, new) \
                == structural_rows(source, s)
            span = range(new, new + transient.size[new] + 1)
            assert all(transient.frag[pre] == 7 for pre in span)

    def test_names_translate_into_the_target_pool(self, transient, source):
        transient.names.intern("unrelated")     # pools no longer line up
        s = source.candidates_by_name("s")[0]
        new = transient.copy_subtree_from(source, s, 1, frag=0)
        assert transient.element_name(new) == "s"
        assert transient.candidates_by_name("u") == [new + 3]
        assert transient.tag_count("s") == 1 and transient.tag_count("t") == 1

    def test_copy_from_self_and_leaf_copy(self, transient, source):
        s = source.candidates_by_name("s")[1]
        first = transient.copy_subtree_from(source, s, 0, frag=0)
        again = transient.copy_subtree_from(transient, first, 2, frag=9)
        assert structural_rows(transient, again) \
            == structural_rows(source, s)
        text = source.candidates_by_name("w")[0] + 1
        leaf = transient.copy_subtree_from(source, text, 1, frag=9)
        assert (transient.kind[leaf], transient.value[leaf],
                transient.level[leaf]) == (NodeKind.TEXT, "y", 1)

    def test_copy_from_mmap_store(self, tmp_path, transient):
        store = DocumentStore()
        shred_document(self.SOURCE, "copy-src.xml", store)
        store.save(tmp_path / "store")
        reopened = DocumentStore.open(tmp_path / "store", backend="mmap")
        try:
            mapped = reopened.get("copy-src.xml")
            assert mapped.backend.readonly
            original = store.get("copy-src.xml")
            for s in mapped.candidates_by_name("s"):
                new = transient.copy_subtree_from(mapped, s, 1, frag=0)
                assert structural_rows(transient, new) \
                    == structural_rows(original, s)
        finally:
            reopened.close()

    def test_read_only_target_refuses_copies(self, tmp_path, source):
        store = DocumentStore()
        shred_document("<x/>", "target.xml", store)
        store.save(tmp_path / "store")
        reopened = DocumentStore.open(tmp_path / "store", backend="mmap")
        try:
            target = reopened.get("target.xml")
            for pre in (0, source.candidates_by_name("s")[0]):
                with pytest.raises(DocumentError):
                    target.copy_subtree_from(source, pre, 1, frag=0)
        finally:
            reopened.close()


# --------------------------------------------------------------------------- #
# nested constructors: in-place emission, checked against the baseline
# --------------------------------------------------------------------------- #
NESTED_XML = ("<r><i v='1'>one<j/></i><i v='2'>two</i>"
              "<i v='3'><j>three</j></i></r>")

NESTED_QUERIES = [
    # attribute templates on every level
    'for $i in /r/i return <a k="{$i/@v}"><b m="x{$i/@v}y">'
    '<c n="{$i/text()}-{$i/@v}"/></b></a>',
    # adjacent atomics join with one space, across literal text and parts
    'for $i in /r/i return <a><b>{1, "x", string($i/@v)}</b>{2}{3}'
    '<c>t{4}u</c></a>',
    # document-node content copies the document's children
    '<a><b>{/}</b><c>{/r/i[1]}</c></a>',
    # attribute-node content becomes attributes of the nested element
    'for $i in /r/i return <a><b>{$i/@v}{$i/text()}</b></a>',
    # a repeated constructor (one hash-consed plan node) builds twice
    '<a><b/><b/>{<b/>}{<b/>, <b/>}</a>',
    # constructors inside sequences, FLWORs and nested three deep
    'for $i in /r/i return <a>{<id>{string($i/@v)}</id>, $i/j}'
    '<b><c><d>{$i/text()}</d></c></b></a>',
    '<a>{for $i in /r/i return <b>{$i/text()}<c/></b>}</a>',
    'let $x := <x><y>{/r/i[2]/text()}</y></x> return <a>{$x, $x/y}</a>',
    '<a>{()}<b>{()}</b></a>',
]


def baseline_serialization(engine, query):
    return serialize_sequence(
        run_baseline(engine.store, query, "nested.xml"))


@pytest.fixture
def nested_engine():
    engine = MonetXQuery()
    engine.load_document_text(NESTED_XML, name="nested.xml")
    return engine


class TestNestedConstructors:
    @pytest.mark.parametrize("query", NESTED_QUERIES)
    def test_matches_tree_walking_interpreter(self, nested_engine, query):
        assert nested_engine.query(query).serialize() \
            == baseline_serialization(nested_engine, query)

    @pytest.mark.parametrize("query", NESTED_QUERIES[:2])
    def test_nested_elements_share_the_parent_fragment(self, nested_engine,
                                                       query):
        result = nested_engine.query(query)
        transient = nested_engine.transient
        for item in result.items:
            assert transient.level[item.pre] == 0
            span = range(item.pre, item.pre + transient.size[item.pre] + 1)
            assert all(transient.frag[pre] == item.pre for pre in span)
        # no orphan fragments: every constructed node is in a result tree
        assert transient.node_count == sum(
            transient.size[item.pre] + 1 for item in result.items)

    def test_matches_baseline_from_an_mmap_store(self, tmp_path):
        engine = MonetXQuery()
        engine.load_document_text(NESTED_XML, name="nested.xml")
        engine.save_store(tmp_path / "store")
        reopened = MonetXQuery(store_path=tmp_path / "store",
                               store_backend="mmap")
        try:
            assert reopened.store.get("nested.xml").backend.readonly
            for query in NESTED_QUERIES:
                assert reopened.query(query).serialize() \
                    == baseline_serialization(engine, query), query
        finally:
            reopened.store.close()


class TestXMarkQ10Construction:
    def test_q10_builds_no_orphan_fragments(self):
        """Q10 nests its constructors four deep; in-place emission leaves
        exactly two kinds of fragment in the transient container: the
        result's ``categorie`` trees and the ``personne`` elements that the
        query binds to ``$p`` before copying them (node identity requires
        those to exist on their own)."""
        engine = MonetXQuery()
        engine.load_document_text(generate_document(0.002, 42),
                                  name="auction.xml")
        result = engine.query(XMARK_QUERIES[10])
        transient = engine.transient
        result_nodes = sum(transient.size[item.pre] + 1
                           for item in result.items)
        roots = [pre for pre in range(transient.node_count)
                 if transient.level[pre] == 0]
        bound = [pre for pre in roots
                 if transient.element_name(pre) == "personne"]
        assert {transient.element_name(pre) for pre in roots} \
            == {"categorie", "personne"}
        assert len(roots) == len(result.items) + len(bound)
        assert transient.node_count == result_nodes + sum(
            transient.size[pre] + 1 for pre in bound)
        assert result.serialize() == serialize_sequence(run_baseline(
            engine.store, XMARK_QUERIES[10], "auction.xml"))
