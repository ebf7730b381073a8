"""The ``adhoc`` query stream: XMark queries with their constants redrawn.

Every variant keeps its template's structure (so it exercises the same
operators) and changes only literals: person ids, price and income
thresholds, factors and the search word.  Only the XMark queries whose
literals allow enough distinct values serve as templates.  The
stream holds more distinct texts than the engine's 64-entry plan cache, so
cycling through it makes every ``prepare()`` a miss.
"""

from __future__ import annotations

import random

from repro.xmark import XMARK_QUERIES
from repro.xmark.generator import XMarkCounts

WORDS = ("gold", "silver", "vintage", "rare", "mint", "classic", "signed",
         "antique", "modern", "bargain", "royal", "ornate", "large", "small",
         "collector", "pristine", "painted", "carved", "humble", "shiny")


def _templates(counts: XMarkCounts):
    """query number -> [(literal in the XMark text, draw(rng) -> new literal)]"""
    def person(rng):
        return f'"person{rng.randrange(counts.persons)}"'

    return {
        1: [('"person0"', person)],
        3: [("* 2", lambda rng: f"* {rng.uniform(1.2, 3.0):.2f}")],
        4: [('"person3"', person), ('"person2"', person)],
        5: [(">= 40", lambda rng: f">= {rng.randint(5, 400)}")],
        11: [("5000 *", lambda rng: f"{rng.randint(1000, 9000)} *")],
        12: [("5000 *", lambda rng: f"{rng.randint(1000, 9000)} *"),
             ("> 50000", lambda rng: f"> {rng.randint(20000, 120000)}")],
        14: [('"gold"', lambda rng: f'"{rng.choice(WORDS)}"')],
        18: [("2.20371", lambda rng: f"{rng.uniform(0.5, 5.0):.5f}")],
        20: [("100000", lambda rng: str(rng.randint(70000, 140000))),
             ("30000", lambda rng: str(rng.randint(10000, 60000)))],
    }


def adhoc_stream(scale: float, seed: int, per_template: int
                 ) -> list[tuple[str, str]]:
    """``per_template`` distinct texts of every template, as
    ``(label, query text)`` pairs in a seeded order; the label names the
    XMark query the text was derived from.  Every template has the same
    share, so the latency distribution does not depend on the seed's mix."""
    rng = random.Random(seed)
    templates = _templates(XMarkCounts.for_scale(scale))
    seen: set[str] = set()
    stream: list[tuple[str, str]] = []
    for number, replacements in sorted(templates.items()):
        drawn = attempts = 0
        while drawn < per_template:
            attempts += 1
            if attempts > 100 * per_template:
                raise ValueError(f"XMark Q{number}: too few distinct variants")
            text = XMARK_QUERIES[number]
            for literal, draw in replacements:
                if literal not in text:
                    raise ValueError(
                        f"XMark Q{number} no longer contains {literal!r}")
                text = text.replace(literal, draw(rng))
            if text not in seen:
                seen.add(text)
                stream.append((f"Q{number:02d}", text))
                drawn += 1
    rng.shuffle(stream)
    return stream
