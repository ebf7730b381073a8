"""Expected outputs from the tree-walking baseline interpreter.

The baseline (:class:`repro.baselines.TreeWalkingInterpreter`) evaluates
the AST node by node with its own evaluator, not the loop-lifted executor
under test, so agreement on the serialized result is an independent check.
Results are compared by digest so a run need not keep its outputs.
"""

from __future__ import annotations

import hashlib

from repro import MonetXQuery
from repro.baselines import TreeWalkingInterpreter
from repro.xml.document import NodeRef
from repro.xml.serializer import serialize_sequence

DOCUMENT = "auction.xml"


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def load(doc_text: str) -> MonetXQuery:
    engine = MonetXQuery()
    engine.load_document_text(doc_text, name=DOCUMENT)
    return engine


def baseline_digests(doc_text: str, queries: dict) -> dict:
    """``{key: digest of the baseline's serialized result}`` over a fresh
    store holding ``doc_text``."""
    store = load(doc_text).store
    context = NodeRef(store.get(DOCUMENT), 0)
    return {key: digest(serialize_sequence(
                TreeWalkingInterpreter(store).run(text, context_item=context)))
            for key, text in queries.items()}


def engine_digests(doc_text: str, queries: dict) -> dict:
    """The engine's digests for the same queries on a fresh store."""
    engine = load(doc_text)
    digests = {}
    for key, text in queries.items():
        digests[key] = digest(engine.query(text).serialize())
        engine.reset_transient()
    return digests
