"""Seeded update transactions and the check that they survived.

Each transaction either replaces the text of one ``person/phone`` or
appends a ``<watch>`` to one ``person/watches``.  No read query of any
workload touches phones or watch lists, so reads keep one expected result
while writes commit beside them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import MonetXQuery, XMLUpdater

_WATCH_PREFIX = "perfbench-"


@dataclass
class Write:
    number: int
    kind: str            # "phone" | "watch"
    person: str
    value: str

    @property
    def user_bytes(self) -> int:
        """Bytes of user data the transaction changes."""
        if self.kind == "phone":
            return len(self.value.encode("utf-8"))
        return len(self.fragment.encode("utf-8"))

    @property
    def fragment(self) -> str:
        return f'<watch open_auction="{self.value}"/>'


def _ids(engine: MonetXQuery, query: str) -> list[str]:
    return [str(item) for item in engine.query(query).atomized()]


class WriteStream:
    """Deterministic transactions drawn from ``seed`` over the persons of
    ``engine``'s document that have a phone or a watch list."""

    def __init__(self, engine: MonetXQuery, seed: int):
        self._rng = random.Random(seed)
        self._seed = seed
        self._phones = _ids(engine, "for $p in /site/people/person[phone] "
                                    "return string($p/@id)")
        self._watches = _ids(engine, "for $p in /site/people/person[watches] "
                                     "return string($p/@id)")
        self._count = 0

    def next(self) -> Write:
        number = self._count
        self._count += 1
        if self._rng.random() < 0.5 and self._phones:
            person = self._rng.choice(self._phones)
            return Write(number, "phone", person,
                         f"+0 ({self._seed % 1000:03d}) {number:07d}")
        person = self._rng.choice(self._watches)
        return Write(number, "watch", person,
                     f"{_WATCH_PREFIX}{self._seed}-{number}")


def apply(updater: XMLUpdater, write: Write) -> int:
    """The body of one transaction (target selection + one update);
    returns the number of storage pages the update touched."""
    person = f'/site/people/person[@id = "{write.person}"]'
    if write.kind == "phone":
        [target] = updater.select(f"{person}/phone/text()")
        stats = updater.replace_value(target, write.value)
    else:
        [target] = updater.select(f"{person}/watches")
        stats = updater.insert_last(target, write.fragment)
    return stats.pages_touched


def missing(engine: MonetXQuery, acknowledged: list[Write]) -> list[Write]:
    """The acknowledged writes that ``engine``'s store does not hold: a
    phone must carry the last value written to it, and every watch must
    be present."""
    last_phone: dict[str, Write] = {}
    watches: list[Write] = []
    for write in acknowledged:
        if write.kind == "phone":
            last_phone[write.person] = write
        else:
            watches.append(write)
    lost = []
    for person, write in last_phone.items():
        found = engine.query(f'string(/site/people/person[@id = "{person}"]'
                             f'/phone)').atomized()
        if found != [write.value]:
            lost.append(write)
    present = set(_ids(engine, "for $w in /site/people/person/watches/watch"
                               f'[starts-with(@open_auction, "{_WATCH_PREFIX}")] '
                               "return string($w/@open_auction)"))
    lost.extend(write for write in watches if write.value not in present)
    return lost
