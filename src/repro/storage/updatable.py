"""Updatable XML documents over the page-wise storage scheme.

:class:`UpdatableDocument` stores a shredded document in a
:class:`~repro.storage.pages.PagedStructure` and implements the update
operations of Section 5.2:

* **value updates** — text/comment/PI content and attribute values map to
  in-place updates of the property columns;
* **structural inserts** — a new subtree is written into the free space of
  the logical page containing the insert point; when it does not fit, fresh
  logical pages are appended to the rid table and spliced into the page map,
  so nodes on *other* pages never shift;
* **structural deletes** — the deleted subtree's tuples simply become unused
  tuples; no shifting at all;
* the ``size`` of the ancestors of the update point is maintained through a
  per-transaction **delta ledger** (:mod:`repro.storage.locking`) instead of
  locking the document root for the duration of the transaction.

Update cost is reported via :class:`UpdateStats` (logical pages touched /
appended) which the *text-updates* benchmark uses to verify the paper's
claim that an insert costs a constant number of logical pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UpdateError
from ..xml.document import DocumentContainer, NodeKind
from .locking import SizeDeltaLedger
from .pages import UNUSED, PagedStructure


@dataclass
class UpdateStats:
    """Bookkeeping of the most recent update operations."""

    pages_touched: int = 0
    pages_appended: int = 0
    tuples_written: int = 0
    tuples_marked_unused: int = 0

    def reset(self) -> None:
        self.pages_touched = 0
        self.pages_appended = 0
        self.tuples_written = 0
        self.tuples_marked_unused = 0


@dataclass
class _Node:
    """A plain record used while re-arranging tuples inside a page."""

    size: int
    level: int
    kind: int
    name_id: int
    value: str | None
    uid: int


class UpdatableDocument:
    """A document stored in page-wise updatable form."""

    def __init__(self, page_size: int = 64, fill_factor: float = 0.75):
        self.pages = PagedStructure(page_size=page_size, fill_factor=fill_factor)
        self.names = None                    # NamePool shared with the source
        self.ledger = SizeDeltaLedger()
        self.stats = UpdateStats()
        self._uids: list[int | None] = []    # rid -> node uid (rids never move)
        self._next_uid = 0
        self.attributes: dict[int, list[tuple[int, str]]] = {}   # uid -> [(name_id, value)]

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    @classmethod
    def from_container(cls, container: DocumentContainer, *, page_size: int = 64,
                       fill_factor: float = 0.75) -> "UpdatableDocument":
        """Shred-to-updatable load: distribute the dense encoding over pages.

        The shredder leaves ``(1 - fill_factor) * page_size`` unused tuples at
        the end of every logical page so that later inserts find local free
        space.
        """
        document = cls(page_size=page_size, fill_factor=fill_factor)
        document.names = container.names
        per_page = max(1, int(page_size * fill_factor))
        pages = document.pages

        position_in_page = per_page          # force a new page for the first node
        slot = -1
        for pre in range(container.node_count):
            if position_in_page >= per_page:
                page = pages.append_page()
                document._uids.extend([None] * page_size)
                slot = page << pages.page_bits
                position_in_page = 0
            uid = document._new_uid()
            pages.set(slot, size=container.size[pre], level=container.level[pre],
                      kind=container.kind[pre], name_id=container.name_id[pre],
                      value=container.value[pre])
            document._set_uid(slot, uid)
            for attr_index in container.attributes_of(pre):
                document.attributes.setdefault(uid, []).append(
                    (container.attr_name[attr_index], container.attr_value[attr_index]))
            slot += 1
            position_in_page += 1
        pages.compact_free_runs()
        return document

    def _new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def _uid_at(self, slot: int) -> int | None:
        """The uid of the node stored at a pre-view slot (rids never move)."""
        return self._uids[self.pages.pre_to_rid(slot)]

    def _set_uid(self, slot: int, uid: int | None) -> None:
        self._uids[self.pages.pre_to_rid(slot)] = uid

    # ------------------------------------------------------------------ #
    # dense view helpers
    # ------------------------------------------------------------------ #
    def used_slots(self) -> list[int]:
        """Pre-view slot of every live node, in document order."""
        return [slot for slot in range(self.pages.pre_count)
                if not self.pages.is_unused(slot)]

    @property
    def node_count(self) -> int:
        return len(self.used_slots())

    def dense_to_slot(self, dense_pre: int) -> int:
        """Translate a dense pre rank (what queries see) to a pre-view slot."""
        slots = self.used_slots()
        if not 0 <= dense_pre < len(slots):
            raise UpdateError(f"dense pre {dense_pre} out of range")
        return slots[dense_pre]

    # ------------------------------------------------------------------ #
    # value updates
    # ------------------------------------------------------------------ #
    def replace_value(self, dense_pre: int, new_value: str) -> None:
        """Replace the content of a text / comment / PI node."""
        slot = self.dense_to_slot(dense_pre)
        size, level, kind, name_id, _ = self.pages.get(slot)
        if kind not in (NodeKind.TEXT, NodeKind.COMMENT,
                        NodeKind.PROCESSING_INSTRUCTION):
            raise UpdateError("replace_value targets text, comment or PI nodes")
        self.pages.set(slot, size=size, level=level, kind=kind,
                       name_id=name_id, value=new_value)
        self.stats.pages_touched += 1

    def set_attribute(self, dense_pre: int, name: str, value: str) -> None:
        """Insert or replace an attribute of an element node."""
        slot = self.dense_to_slot(dense_pre)
        _, _, kind, _, _ = self.pages.get(slot)
        if kind != NodeKind.ELEMENT:
            raise UpdateError("attributes can only be set on element nodes")
        if self.names is None:
            raise UpdateError("document has no name pool")
        name_id = self.names.intern(name)
        uid = self._uid_at(slot)
        attrs = self.attributes.setdefault(uid, [])
        for index, (existing, _) in enumerate(attrs):
            if existing == name_id:
                attrs[index] = (name_id, value)
                break
        else:
            attrs.append((name_id, value))
        self.stats.pages_touched += 1

    def delete_attribute(self, dense_pre: int, name: str) -> None:
        slot = self.dense_to_slot(dense_pre)
        uid = self._uid_at(slot)
        if self.names is None:
            raise UpdateError("document has no name pool")
        name_id = self.names.lookup(name)
        attrs = self.attributes.get(uid, [])
        remaining = [(aid, value) for aid, value in attrs if aid != name_id]
        if len(remaining) == len(attrs):
            raise UpdateError(f"element has no attribute {name!r}")
        self.attributes[uid] = remaining

    # ------------------------------------------------------------------ #
    # structural updates
    # ------------------------------------------------------------------ #
    def _ancestor_slots(self, slot: int) -> list[int]:
        """Slots of the ancestors of ``slot`` (walk backwards over live slots)."""
        slots = self.used_slots()
        position = slots.index(slot)
        level = self.pages.get(slot)[1]
        ancestors = []
        for candidate in reversed(slots[:position]):
            candidate_level = self.pages.get(candidate)[1]
            if candidate_level is not None and candidate_level < level:
                ancestors.append(candidate)
                level = candidate_level
                if level == 0:
                    break
        return ancestors

    def _read_node(self, slot: int) -> _Node:
        size, level, kind, name_id, value = self.pages.get(slot)
        return _Node(size, level, kind, name_id, value, self._uid_at(slot))

    def _write_node(self, slot: int, node: _Node) -> None:
        self.pages.set(slot, size=node.size, level=node.level, kind=node.kind,
                       name_id=node.name_id, value=node.value)
        self._set_uid(slot, node.uid)
        self.stats.tuples_written += 1

    def insert_subtree(self, target_dense_pre: int, fragment: DocumentContainer,
                       fragment_pre: int = 0, *, as_first_child: bool = False) -> None:
        """Insert a subtree of ``fragment`` under the target element.

        ``as_first_child=True`` implements ``insert-first`` (the new subtree
        becomes the first child); otherwise the subtree is appended as the
        last child.  Only the logical page containing the insert point is
        rewritten; overflow goes to freshly appended pages.
        """
        self.stats.reset()
        target_slot = self.dense_to_slot(target_dense_pre)
        target_size, target_level, target_kind, _, _ = self.pages.get(target_slot)
        if target_kind not in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            raise UpdateError("insert target must be an element or document node")

        # collect the new nodes from the fragment (dense encoding)
        span = range(fragment_pre, fragment_pre + fragment.size[fragment_pre] + 1)
        base_level = fragment.level[fragment_pre]
        new_nodes: list[_Node] = []
        for pre in span:
            uid = self._new_uid()
            new_nodes.append(_Node(
                size=fragment.size[pre],
                level=fragment.level[pre] - base_level + target_level + 1,
                kind=fragment.kind[pre],
                name_id=self._import_name(fragment, fragment.name_id[pre]),
                value=fragment.value[pre],
                uid=uid,
            ))
            for attr_index in fragment.attributes_of(pre):
                self.attributes.setdefault(uid, []).append(
                    (self._import_name(fragment, fragment.attr_name[attr_index]),
                     fragment.attr_value[attr_index]))

        # determine the pre-view slot right before which the nodes go
        if as_first_child:
            insert_slot = self._next_live_slot(target_slot)
        else:
            insert_slot = self._slot_after_subtree(target_slot, target_dense_pre)

        self._splice_nodes(insert_slot, new_nodes)

        # maintain ancestor sizes through the delta ledger
        delta = len(new_nodes)
        ancestors = self._ancestor_slots(target_slot)
        self.ledger.record(self._uid_at(target_slot), delta)
        self._apply_size_delta(target_slot, delta)
        for ancestor in ancestors:
            self.ledger.record(self._uid_at(ancestor), delta)
            self._apply_size_delta(ancestor, delta)
        self.ledger.commit()
        self.pages.compact_free_runs()

    def delete_subtree(self, target_dense_pre: int) -> None:
        """Delete the subtree rooted at the given dense pre rank.

        The tuples become unused; no other page is touched.  Ancestor sizes
        shrink by the number of deleted nodes.
        """
        self.stats.reset()
        target_slot = self.dense_to_slot(target_dense_pre)
        subtree_size = self.pages.get(target_slot)[0]
        slots = self.used_slots()
        position = slots.index(target_slot)
        doomed = slots[position:position + subtree_size + 1]

        delta = -(subtree_size + 1)
        ancestors = self._ancestor_slots(target_slot)
        for slot in doomed:
            uid = self._uid_at(slot)
            self.attributes.pop(uid, None)
            self.pages.mark_unused(slot)
            self._set_uid(slot, None)
            self.stats.tuples_marked_unused += 1
        for ancestor in ancestors:
            self.ledger.record(self._uid_at(ancestor), delta)
            self._apply_size_delta(ancestor, delta)
        self.ledger.commit()
        self.pages.compact_free_runs()
        self.stats.pages_touched = len({slot >> self.pages.page_bits for slot in doomed})

    # -- helpers ----------------------------------------------------------- #
    def _import_name(self, fragment: DocumentContainer, name_id: int) -> int:
        if name_id < 0 or self.names is None:
            return -1
        qname = fragment.names.name(name_id)
        return self.names.intern(qname.local, qname.namespace)

    def _next_live_slot(self, slot: int) -> int:
        """The slot right after ``slot`` (insert-first position)."""
        return slot + 1

    def _slot_after_subtree(self, target_slot: int, target_dense_pre: int) -> int:
        """The slot right after the last live descendant of the target."""
        size = self.pages.get(target_slot)[0]
        slots = self.used_slots()
        position = slots.index(target_slot)
        last_descendant_position = position + size
        if last_descendant_position >= len(slots) - 1:
            return slots[-1] + 1
        return slots[last_descendant_position] + 1

    def _apply_size_delta(self, slot: int, delta: int) -> None:
        size, level, kind, name_id, value = self.pages.get(slot)
        self.pages.set(slot, size=size + delta, level=level, kind=kind,
                       name_id=name_id, value=value)

    def _splice_nodes(self, insert_slot: int, new_nodes: list[_Node]) -> None:
        """Write ``new_nodes`` at ``insert_slot``, shifting only inside the page.

        The live tuples of the page from ``insert_slot`` onwards (the "tail")
        are re-laid-out after the new nodes.  Whatever does not fit in the
        page spills into freshly appended logical pages spliced right after
        it in the page map.
        """
        pages = self.pages
        page = insert_slot >> pages.page_bits
        if page >= pages.page_count:
            page = pages.append_page()
            self._uids.extend([None] * pages.page_size)
            self.stats.pages_appended += 1
            insert_slot = page << pages.page_bits
        page_start = page << pages.page_bits
        page_end = page_start + pages.page_size

        tail: list[_Node] = []
        for slot in range(insert_slot, page_end):
            if not pages.is_unused(slot):
                tail.append(self._read_node(slot))
                pages.mark_unused(slot)
                self._set_uid(slot, None)

        pending = new_nodes + tail
        touched_pages = {page}

        # fill the current page first
        slot = insert_slot
        while pending and slot < page_end:
            self._write_node(slot, pending.pop(0))
            slot += 1

        # spill the rest into new logical pages spliced right after this one
        # (`page` is the logical page number, so the splice position is page + 1)
        splice_at = page + 1
        while pending:
            new_logical = pages.append_page(at_logical_position=splice_at)
            self._uids.extend([None] * pages.page_size)
            self.stats.pages_appended += 1
            start = new_logical << pages.page_bits
            touched_pages.add(new_logical)
            slot = start
            while pending and slot < start + pages.page_size:
                self._write_node(slot, pending.pop(0))
                slot += 1
            splice_at += 1

        self.stats.pages_touched += len(touched_pages)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_container(self, name: str = "(updated)") -> DocumentContainer:
        """Materialise the dense ``pre|size|level`` view as a fresh container."""
        container = DocumentContainer(name, order_key=0)
        if self.names is not None:
            container.names = self.names
        for slot in self.used_slots():
            size, level, kind, name_id, value = self.pages.get(slot)
            pre = container.add_node(NodeKind(kind), level, name_id=name_id,
                                     value=value, frag=0, size=size)
            uid = self._uid_at(slot)
            for attr_name_id, attr_value in self.attributes.get(uid, []):
                container.add_attribute(pre, attr_name_id, attr_value)
        return container
