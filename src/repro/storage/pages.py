"""Page-wise remappable pre-numbers (Section 5.2, Figure 11).

Structural updates are the Achilles heel of a range-based (``pre``) encoding:
inserting a subtree shifts the ``pre`` rank of every following node.  The
paper's scheme avoids that by

* replacing ``pre`` by an append-only row id ``rid``,
* dividing the ``rid|size|level`` table into *logical pages* of a power-of-two
  number of tuples,
* leaving a configurable percentage of *unused tuples* in every page
  (``level = NULL``; ``size`` holds the length of the free run so scans can
  skip it),
* appending new logical pages at the end only, and
* exposing the ``pre|size|level`` view through a *page map* that lists the
  logical pages in document order; ``pre`` ↔ ``rid`` translation is a cheap
  swizzle using the high bits of the number as an index into the page map.

Deletes leave unused tuples behind; inserts that fit the free space of a page
touch only that page; larger inserts append fresh pages and splice them into
the page map.  Consequently the I/O caused by an update is bounded by a
constant number of logical pages, not by the document size.
"""

from __future__ import annotations

from ..errors import StorageError


#: marker stored in the ``level`` column of unused tuples
UNUSED = None


class PagedStructure:
    """The ``rid|size|level`` table, its page map, and the ``pre`` view.

    ``page_size`` must be a power of two so that pre→rid swizzling can use
    bit operations (high bits select the page-map entry, low bits the offset
    inside the page).
    """

    def __init__(self, page_size: int = 64, fill_factor: float = 0.75):
        if page_size <= 0 or page_size & (page_size - 1):
            raise StorageError("page_size must be a positive power of two")
        if not 0.0 < fill_factor <= 1.0:
            raise StorageError("fill_factor must be in (0, 1]")
        self.page_size = page_size
        self.page_bits = page_size.bit_length() - 1
        self.fill_factor = fill_factor
        # rid table columns (rid is the implicit dense row id)
        self.size: list[int] = []
        self.level: list[int | None] = []
        self.kind: list[int] = []
        self.name_id: list[int] = []
        self.value: list[str | None] = []
        # page map: logical (pre view) order -> rid page number
        self.page_map: list[int] = []

    # ------------------------------------------------------------------ #
    # page bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def rid_count(self) -> int:
        return len(self.size)

    @property
    def page_count(self) -> int:
        return len(self.page_map)

    @property
    def pre_count(self) -> int:
        """Number of addressable slots in the pre view (used + unused)."""
        return self.page_count * self.page_size

    def _append_empty_page(self) -> int:
        """Append a fully unused page to the rid table; returns its page number."""
        rid_page = self.rid_count // self.page_size
        if self.rid_count % self.page_size != 0:
            raise StorageError("rid table is not page aligned")  # pragma: no cover
        for offset in range(self.page_size):
            self.size.append(self.page_size - offset - 1)
            self.level.append(UNUSED)
            self.kind.append(-1)
            self.name_id.append(-1)
            self.value.append(None)
        return rid_page

    def append_page(self, at_logical_position: int | None = None) -> int:
        """Append a new (empty) logical page; splice it into the page map.

        ``at_logical_position=None`` appends at the end of the pre view.
        Returns the logical page number it received.
        """
        rid_page = self._append_empty_page()
        if at_logical_position is None:
            at_logical_position = len(self.page_map)
        if not 0 <= at_logical_position <= len(self.page_map):
            raise StorageError("logical page position out of range")
        self.page_map.insert(at_logical_position, rid_page)
        return at_logical_position

    # ------------------------------------------------------------------ #
    # pre <-> rid swizzling
    # ------------------------------------------------------------------ #
    def pre_to_rid(self, pre: int) -> int:
        """Swizzle a pre-view position into a rid (high bits → page map)."""
        page = pre >> self.page_bits
        offset = pre & (self.page_size - 1)
        if page >= len(self.page_map):
            raise StorageError(f"pre {pre} beyond the last logical page")
        return (self.page_map[page] << self.page_bits) | offset

    def rid_to_pre(self, rid: int) -> int:
        """Inverse swizzle (linear in the number of pages; used by tests)."""
        rid_page = rid >> self.page_bits
        offset = rid & (self.page_size - 1)
        try:
            logical = self.page_map.index(rid_page)
        except ValueError:
            raise StorageError(f"rid {rid} is not mapped to any logical page") from None
        return (logical << self.page_bits) | offset

    # ------------------------------------------------------------------ #
    # pre-view accessors
    # ------------------------------------------------------------------ #
    def is_unused(self, pre: int) -> bool:
        return self.level[self.pre_to_rid(pre)] is UNUSED

    def get(self, pre: int) -> tuple[int, int | None, int, int, str | None]:
        """(size, level, kind, name_id, value) of the pre-view slot."""
        rid = self.pre_to_rid(pre)
        return (self.size[rid], self.level[rid], self.kind[rid],
                self.name_id[rid], self.value[rid])

    def set(self, pre: int, *, size: int, level: int | None, kind: int,
            name_id: int, value: str | None) -> None:
        rid = self.pre_to_rid(pre)
        self.size[rid] = size
        self.level[rid] = level
        self.kind[rid] = kind
        self.name_id[rid] = name_id
        self.value[rid] = value

    def mark_unused(self, pre: int) -> None:
        """Turn a slot into an unused tuple (structural delete leaves these)."""
        rid = self.pre_to_rid(pre)
        self.level[rid] = UNUSED
        self.kind[rid] = -1
        self.name_id[rid] = -1
        self.value[rid] = None
        self.size[rid] = 0

    def compact_free_runs(self) -> None:
        """Recompute the ``size`` of unused tuples to the length of the free run.

        Unused tuples store the number of directly following consecutive
        unused tuples in their ``size`` column so that scans (and the
        staircase join) can skip over them quickly.
        """
        run_end: int | None = None
        for pre in range(self.pre_count - 1, -1, -1):
            rid = self.pre_to_rid(pre)
            if self.level[rid] is UNUSED:
                if run_end is None:
                    run_end = pre
                self.size[rid] = run_end - pre
            else:
                run_end = None

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def used_slots(self) -> list[int]:
        """Pre-view positions of all used (non-NULL level) tuples, in order."""
        return [pre for pre in range(self.pre_count) if not self.is_unused(pre)]
