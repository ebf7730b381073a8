"""Document containers: the ``pre|size|level`` relational XML encoding.

Following Section 2 and Figure 9 of the paper, every XML document (and the
set of transient fragments a query constructs) lives in its own *document
container*:

* the structural table with columns ``size``, ``level``, ``kind`` (the
  preorder rank ``pre`` is the implicit dense row id),
* property containers per node kind — here flattened into a dictionary-
  encoded ``name`` column (elements) and a ``value`` column (text, comment,
  processing-instruction content),
* a separate attribute table ``owner|name|value`` (attributes are not part
  of the structural table, as in the paper),
* a ``frag`` column keeping disjoint tree fragments apart inside the
  transient container; document order across containers/fragments is the
  ``[container, pre]`` combination.

Node surrogates are :class:`NodeRef` values — the ``γ`` of Section 2.1 —
which order by document order and compare by node identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, Iterator

from ..errors import DocumentError
from ..relational.column import Column
from ..relational.table import Table
from ..concurrency import ReadWriteLock
from ..storage.backends import Backend, RamBackend
from .names import NamePool, QName


class NodeKind(IntEnum):
    """Node kinds stored in the structural table (plus ATTRIBUTE for refs)."""

    DOCUMENT = 0
    ELEMENT = 1
    TEXT = 2
    COMMENT = 3
    PROCESSING_INSTRUCTION = 4
    ATTRIBUTE = 5


class NodeRef:
    """A node surrogate: container + preorder rank (+ attribute slot).

    ``NodeRef`` reflects document order (``<``) and node identity (``==``),
    the two requirements Section 2.1 places on node surrogates.
    """

    __slots__ = ("container", "pre", "attr")

    def __init__(self, container: "DocumentContainer", pre: int,
                 attr: int | None = None):
        self.container = container
        self.pre = pre
        self.attr = attr

    # -- identity and order ------------------------------------------------ #
    def order_key(self) -> tuple[int, int, int, int]:
        if self.attr is None:
            return (self.container.order_key, self.pre, 0, 0)
        return (self.container.order_key, self.pre, 1, self.attr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeRef):
            return NotImplemented
        return (self.container is other.container and self.pre == other.pre
                and self.attr == other.attr)

    def __hash__(self) -> int:
        return hash((id(self.container), self.pre, self.attr))

    def __lt__(self, other: "NodeRef") -> bool:
        if not isinstance(other, NodeRef):
            return NotImplemented
        return self.order_key() < other.order_key()

    def __le__(self, other: "NodeRef") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.attr is not None:
            return f"NodeRef({self.container.name}, pre={self.pre}, attr={self.attr})"
        return f"NodeRef({self.container.name}, pre={self.pre})"

    # -- convenience accessors --------------------------------------------- #
    @property
    def kind(self) -> NodeKind:
        if self.attr is not None:
            return NodeKind.ATTRIBUTE
        return NodeKind(self.container.kind[self.pre])

    def name(self) -> str | None:
        """Local name of an element or attribute node (None otherwise)."""
        if self.attr is not None:
            name_id = self.container.attr_name[self.attr]
            return self.container.names.local(name_id)
        name_id = self.container.name_id[self.pre]
        if name_id < 0:
            return None
        return self.container.names.local(name_id)

    def string_value(self) -> str:
        """The XPath string value of the node."""
        if self.attr is not None:
            return self.container.attr_value[self.attr]
        return self.container.string_value(self.pre)


class DocumentContainer:
    """One document (or the transient fragment store) in relational encoding.

    The column buffers live on a pluggable :class:`~repro.storage.backends.
    Backend`.  The default :class:`~repro.storage.backends.RamBackend`
    serves appendable ``array('q')`` / ``list`` buffers (shredding appends
    in C, the staircase joins scan without per-value unboxing); a
    read-only :class:`~repro.storage.backends.MmapBackend` serves
    ``memoryview`` / string-heap views over the column files of a
    persisted store — queryable identically, paged in by the OS on demand.
    """

    def __init__(self, name: str, order_key: int, *, transient: bool = False,
                 backend: Backend | None = None):
        self.name = name
        self.order_key = order_key
        self.transient = transient
        self.backend = backend if backend is not None else RamBackend()
        self.names = NamePool()
        # structural table (pre is the implicit dense row id)
        self.size = self.backend.int_column("size")
        self.level = self.backend.int_column("level")
        self.kind = self.backend.int_column("kind")
        self.name_id = self.backend.int_column("name_id")   # -1 for non-elements
        self.value = self.backend.str_column("value")   # text / comment / PI
        self.frag = self.backend.int_column("frag")     # fragment root pre
        # attribute table
        self.attr_owner = self.backend.int_column("attr_owner")
        self.attr_name = self.backend.int_column("attr_name")
        self.attr_value = self.backend.str_column("attr_value")
        # owner -> attribute slots; maintained eagerly while building on a
        # writable backend, built lazily on first use for read-only backends
        # (a reopened store must not scan the attribute table at open time)
        self._attrs_by_owner: dict[int, list[int]] | None = \
            None if self.backend.readonly else {}
        # lazily built element-name index (nametest pushdown candidate lists)
        self._name_index: dict[int, list[int]] | None = None
        # per-tag element counts, maintained eagerly while shredding — the
        # statistics the cost-based optimizer derives cardinalities from
        self._tag_counts: dict[int, int] = {}
        # source name pool id -> (pool, id translation), for subtree copies
        self._name_maps: dict[int, tuple[NamePool, list[int]]] = {}

    # ------------------------------------------------------------------ #
    # construction (used by the shredder and by node constructors)
    # ------------------------------------------------------------------ #
    def add_node(self, kind: NodeKind, level: int, *, name_id: int = -1,
                 value: str | None = None, frag: int | None = None,
                 size: int = 0) -> int:
        """Append a node; returns its preorder rank."""
        if self.backend.readonly:
            raise DocumentError(
                f"container {self.name!r} is backed by a read-only store; "
                "updates go through XMLUpdater / DocumentStore.replace")
        pre = len(self.size)
        self.size.append(size)
        self.level.append(level)
        self.kind.append(int(kind))
        self.name_id.append(name_id)
        self.value.append(value)
        self.frag.append(frag if frag is not None else pre)
        self._name_index = None
        if kind == NodeKind.ELEMENT and name_id >= 0:
            self._tag_counts[name_id] = self._tag_counts.get(name_id, 0) + 1
        return pre

    def set_size(self, pre: int, size: int) -> None:
        self.size[pre] = size

    def add_attribute(self, owner: int, name_id: int, value: str) -> int:
        if self.backend.readonly:
            raise DocumentError(
                f"container {self.name!r} is backed by a read-only store; "
                "updates go through XMLUpdater / DocumentStore.replace")
        index = len(self.attr_owner)
        self.attr_owner.append(owner)
        self.attr_name.append(name_id)
        self.attr_value.append(value)
        self._attrs_by_owner.setdefault(owner, []).append(index)
        return index

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return len(self.size)

    @property
    def attribute_count(self) -> int:
        return len(self.attr_owner)

    def node(self, pre: int) -> NodeRef:
        if pre < 0 or pre >= self.node_count:
            raise DocumentError(f"pre value {pre} out of range for {self.name!r}")
        return NodeRef(self, pre)

    def attribute(self, index: int) -> NodeRef:
        if index < 0 or index >= self.attribute_count:
            raise DocumentError(f"attribute index {index} out of range")
        return NodeRef(self, self.attr_owner[index], attr=index)

    def attributes_of(self, pre: int) -> list[int]:
        """Attribute-table row indexes owned by the element at ``pre``."""
        return self._attr_index().get(pre, [])

    def _attr_index(self) -> dict[int, list[int]]:
        """The owner → attribute-slot index (built on first use for
        read-only backends)."""
        if self._attrs_by_owner is None:
            self._rebuild_attr_index()
        return self._attrs_by_owner

    def _rebuild_attr_index(self) -> None:
        """(Re)build the owner → attribute-slot index from the attribute
        table — used after bulk-loading the columns from a persisted store."""
        index: dict[int, list[int]] = {}
        for slot, owner in enumerate(self.attr_owner):
            index.setdefault(owner, []).append(slot)
        self._attrs_by_owner = index

    def root_pre(self, pre: int) -> int:
        """The root of the fragment containing ``pre`` (frag column)."""
        return self.frag[pre]

    def parent_pre(self, pre: int) -> int | None:
        """The parent of ``pre`` (None for fragment roots).

        With the pre/size/level encoding the parent is the closest preceding
        node with a smaller level.
        """
        target_level = self.level[pre]
        if target_level == 0:
            return None
        candidate = pre - 1
        while candidate >= 0:
            if self.level[candidate] < target_level:
                return candidate
            candidate -= 1
        return None

    def children_pre(self, pre: int) -> Iterator[int]:
        """Iterate the children of ``pre`` using the size-skipping rule.

        ``v1 = pre + 1`` is the first child and ``v_{i+1} = v_i + size(v_i) + 1``
        (Section 2) — exactly the skipping the child staircase join exploits.
        """
        end = pre + self.size[pre]
        child = pre + 1
        while child <= end:
            yield child
            child += self.size[child] + 1

    def descendants_pre(self, pre: int) -> range:
        """Preorder ranks of the descendants of ``pre`` (excluding ``pre``)."""
        return range(pre + 1, pre + self.size[pre] + 1)

    def string_value(self, pre: int) -> str:
        """Concatenation of all descendant-or-self text node contents."""
        kind = self.kind[pre]
        if kind in (NodeKind.TEXT, NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION):
            return self.value[pre] or ""
        pieces = []
        for descendant in self.descendants_pre(pre):
            if self.kind[descendant] == NodeKind.TEXT:
                pieces.append(self.value[descendant] or "")
        return "".join(pieces)

    def element_name(self, pre: int) -> str | None:
        name_id = self.name_id[pre]
        if name_id < 0:
            return None
        return self.names.local(name_id)

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #
    def name_index(self) -> dict[int, list[int]]:
        """``name_id -> sorted pre list`` index over element nodes.

        This is the element-name index of Figure 9 that the nametest
        pushdown variant of the staircase join uses as its candidate list.
        """
        if self._name_index is None:
            index: dict[int, list[int]] = {}
            for pre, (kind, name_id) in enumerate(zip(self.kind, self.name_id)):
                if kind == NodeKind.ELEMENT and name_id >= 0:
                    index.setdefault(name_id, []).append(pre)
            self._name_index = index
        return self._name_index

    def candidates_by_name(self, local: str) -> list[int]:
        """Sorted pre ranks of elements with the given local name."""
        name_id = self.names.lookup(local)
        if name_id is None:
            return []
        return self.name_index().get(name_id, [])

    # ------------------------------------------------------------------ #
    # statistics (cardinality estimation)
    # ------------------------------------------------------------------ #
    def tag_counts(self) -> dict[str, int]:
        """Element counts per local tag name, collected at shred time."""
        return {self.names.local(name_id): count
                for name_id, count in self._tag_counts.items()}

    def tag_count(self, local: str) -> int:
        """Number of elements with the given local name (0 when unknown)."""
        name_id = self.names.lookup(local)
        if name_id is None:
            return 0
        return self._tag_counts.get(name_id, 0)

    @property
    def element_count(self) -> int:
        """Total number of element nodes in this container."""
        return sum(self._tag_counts.values())

    # ------------------------------------------------------------------ #
    # subtree copying (element construction, Section 5.1)
    # ------------------------------------------------------------------ #
    def copy_subtree_from(self, source: "DocumentContainer", source_pre: int,
                          level_offset: int, frag: int) -> int:
        """Paste the encoding of a subtree of ``source`` into this container.

        The subtree is one contiguous ``pre`` range, so it is copied as
        column slices: ``size`` and ``kind`` verbatim, ``level`` shifted by
        one offset, name ids translated through a per-source-pool map, and
        every copied node stamped with ``frag`` (a leaf takes the one-row
        ``add_node`` path).  Attributes follow through the source's owner
        index.  Returns the pre rank the copied subtree root received in
        this container.
        """
        if self.backend.readonly:
            raise DocumentError(
                f"container {self.name!r} is backed by a read-only store; "
                "updates go through XMLUpdater / DocumentStore.replace")
        stop = source_pre + source.size[source_pre] + 1
        if stop == source_pre + 1:
            # a leaf (mostly a text node): one row, no slices to build
            name_id = source.name_id[source_pre]
            if name_id >= 0:
                name_id = self._name_map(source.names)[name_id]
            new_root = self.add_node(source.kind[source_pre], level_offset,
                                     name_id=name_id,
                                     value=source.value[source_pre],
                                     frag=frag)
        else:
            new_root = len(self.size)
            shift = level_offset - source.level[source_pre]
            translate = self._name_map(source.names)
            name_ids = [translate[name_id]
                        for name_id in source.name_id[source_pre:stop]]
            self.size.extend(source.size[source_pre:stop])
            self.level.extend([level + shift
                               for level in source.level[source_pre:stop]])
            self.kind.extend(source.kind[source_pre:stop])
            self.name_id.extend(name_ids)
            values = source.value
            self.value.extend(
                values[source_pre:stop] if isinstance(values, list)
                else [values[pre] for pre in range(source_pre, stop)])
            self.frag.extend([frag] * (stop - source_pre))
            self._name_index = None
            tag_counts = self._tag_counts
            for name_id in name_ids:
                if name_id >= 0:
                    tag_counts[name_id] = tag_counts.get(name_id, 0) + 1
        if source.attribute_count:
            by_owner = source._attr_index()
            translate = self._name_map(source.names)
            offset = new_root - source_pre
            for pre in range(source_pre, stop):
                for slot in by_owner.get(pre, ()):
                    self.add_attribute(pre + offset,
                                       translate[source.attr_name[slot]],
                                       source.attr_value[slot])
        return new_root

    def _name_map(self, names: NamePool) -> list[int]:
        """Ids of ``names`` translated into this container's pool, plus a
        trailing ``-1`` so the non-element id ``-1`` maps to itself.  Kept
        per source pool and rebuilt only when that pool has grown."""
        cached = self._name_maps.get(id(names))
        if cached is not None and cached[0] is names \
                and len(cached[1]) == len(names) + 1:
            return cached[1]
        mapping = [self.names.intern(qname.local, qname.namespace)
                   for qname in names.all_names()]
        mapping.append(-1)
        self._name_maps[id(names)] = (names, mapping)
        return mapping


@dataclass(frozen=True)
class StoreSnapshot:
    """One atomic observation of the document store.

    Version, document names and container references are captured under a
    single read-lock acquisition, so the three fields always correspond to
    one committed state — a consumer (``ServerStats``, the shared-memory
    publication path) can never mix an old document list with a new
    version.  The containers tuple holds strong references, so the
    snapshot stays fully readable even if documents are dropped or
    replaced afterwards.
    """

    version: int
    names: tuple[str, ...]
    containers: "tuple[DocumentContainer, ...]"
    order_counter: int = 0


class DocumentStore:
    """The "loaded documents" table: all persistent and transient containers.

    The store is **thread-safe**: lookups take a shared (read) lock, and
    every change to the set of loaded documents — load, register, drop,
    :meth:`replace` (update commit) — takes the exclusive (write) lock and
    bumps the monotonically increasing :attr:`version`.  That version is
    the invalidation token of the serving layer: prepared plans and
    cross-query materialized subplan results are cached against it, so a
    cached artifact can never be served across a schema-version boundary.

    Containers themselves follow a snapshot discipline: they are filled
    *before* registration and never mutated afterwards (updates commit by
    atomically replacing the container), so readers that already hold a
    container reference keep a consistent snapshot without locking.
    """

    def __init__(self) -> None:
        self._documents: dict[str, DocumentContainer] = {}
        self._order_counter = 0
        self._version = 0
        self._lock = ReadWriteLock()
        # the on-disk home of the store, once save()/open() bound one;
        # every version bump writes through to it under the write lock
        self._persistence: Any = None

    @property
    def version(self) -> int:
        """Schema version: bumped whenever the set of loaded documents
        changes (load, register, drop, update commit).  Prepared query
        plans and materialized subplan results are cached against this
        number; a persisted store restores it on :meth:`open`, so cached
        artifacts stay correctly keyed across restarts."""
        with self._lock.read_locked():
            return self._version

    # ------------------------------------------------------------------ #
    # persistence (storage.persist)
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Any") -> None:
        """Persist every loaded document under ``path`` and stay bound.

        Publishes the directory-per-store format of
        :mod:`repro.storage.persist` (column files + catalog, atomically).
        After a save the store *writes through*: loads, drops and update
        commits rewrite the changed column files and republish the catalog
        with the bumped store version.
        """
        from ..storage.persist import save_store
        with self._lock.write_locked():
            containers = list(self._documents.values())
            self._persistence = save_store(
                path, containers, store_version=self._version,
                order_counter=self._order_counter)

    @classmethod
    def open(cls, path: "str | Any", *, backend: str = "mmap",
             verify: bool | None = None) -> "DocumentStore":
        """Reopen a persisted store — warm, with no re-parse or re-shred.

        ``backend="mmap"`` serves the documents out-of-core from mapped
        column files; ``backend="ram"`` loads them into ordinary
        ``array('q')`` / ``list`` buffers (the pure-RAM path, byte-identical
        query results).  The persisted schema version, document order keys
        and shred-time tag statistics are restored, and the store stays
        bound to the directory for write-through.

        ``verify`` controls CRC checking of the column payloads and is
        resolved identically for both backends
        (:func:`repro.storage.persist.resolve_verify`): ``None`` — the
        default — means *full CRC verification for* ``ram`` (the load
        pass reads every byte anyway, so checking is nearly free) and
        *structural-only validation for* ``mmap`` (sizes and layout; a
        full checksum would fault in every page and defeat lazy
        mapping).  Pass ``verify=True`` to force full CRC checks on
        either backend, ``verify=False`` to skip them on either.
        """
        from ..storage.persist import StoreDirectory
        persistence = StoreDirectory.load(path)
        store = cls()
        for name in persistence.document_names():
            store._documents[name] = persistence.open_container(
                name, backend=backend, verify=verify)
        store._version = persistence.catalog["store_version"]
        store._order_counter = persistence.catalog["order_counter"]
        store._persistence = persistence
        return store

    @classmethod
    def attach_shared(cls, catalog: dict) -> "DocumentStore":
        """Attach a published shared-memory store by segment names.

        The worker-process mirror of :meth:`open`: ``catalog`` is the
        shared-store catalog the publishing parent built
        (:func:`repro.storage.persist.shared_catalog`); every document's
        segment is attached read-only and zero-copy, the store version,
        order counter and tag statistics are restored, so plan-cache and
        subplan-cache keys in this process agree with the parent's.
        """
        from ..storage.persist import attach_container_shared
        store = cls()
        for name, entry in catalog["documents"].items():
            store._documents[name] = attach_container_shared(name, entry)
        store._version = catalog["store_version"]
        store._order_counter = catalog["order_counter"]
        return store

    def snapshot(self) -> StoreSnapshot:
        """Version + names + containers under one lock acquisition."""
        with self._lock.read_locked():
            return StoreSnapshot(self._version, tuple(self._documents),
                                 tuple(self._documents.values()),
                                 self._order_counter)

    def _write_through(self, container: "DocumentContainer | None" = None, *,
                       removed: str | None = None) -> None:
        """Mirror one catalog change to the bound store directory.

        Caller holds the write lock (writers are serialized).  Only changed
        column files are rewritten; republishing the catalog is the atomic
        commit point, so a crash mid-write leaves the previous catalog —
        and therefore a consistent store — in place.
        """
        if self._persistence is None:
            return
        if removed is not None:
            self._persistence.remove_container(removed)
        if container is not None and not container.transient:
            self._persistence.write_container(container)
        self._persistence.publish_catalog(
            store_version=self._version, order_counter=self._order_counter)

    def close(self) -> None:
        """Release backend resources (mapped column files) of all documents."""
        with self._lock.write_locked():
            for container in self._documents.values():
                container.backend.close()

    def new_container(self, name: str, *, transient: bool = False) -> DocumentContainer:
        with self._lock.write_locked():
            if not transient and name in self._documents:
                raise DocumentError(f"document {name!r} already loaded")
            self._order_counter += 1
            container = DocumentContainer(name, self._order_counter,
                                          transient=transient)
            if not transient:
                self._documents[name] = container
                self._version += 1
                self._write_through(container)
            return container

    def detached_container(self, name: str) -> DocumentContainer:
        """A persistent-to-be container that is *not yet* registered.

        Shredding fills the container first and registers it afterwards
        (:meth:`register`), so concurrent readers never observe a
        half-shredded document.  The name collision is re-checked at
        registration time.
        """
        with self._lock.write_locked():
            if name in self._documents:
                raise DocumentError(f"document {name!r} already loaded")
            self._order_counter += 1
            return DocumentContainer(name, self._order_counter)

    def register(self, container: DocumentContainer) -> None:
        """Register an externally built (already shredded) container."""
        with self._lock.write_locked():
            if container.name in self._documents:
                raise DocumentError(f"document {container.name!r} already loaded")
            self._documents[container.name] = container
            self._version += 1
            self._write_through(container)

    def replace(self, container: DocumentContainer) -> None:
        """Atomically swap a loaded document for an updated container.

        Used by update commits: unlike a ``drop`` + ``register`` pair there
        is no window in which the document is missing, and the schema
        version advances exactly once.  Queries already running keep their
        snapshot of the old container; queries prepared after the swap see
        the new content.
        """
        with self._lock.write_locked():
            if container.name not in self._documents:
                raise DocumentError(f"document {container.name!r} is not loaded")
            self._documents[container.name] = container
            self._version += 1
            self._write_through(container)

    def get(self, name: str) -> DocumentContainer:
        with self._lock.read_locked():
            try:
                return self._documents[name]
            except KeyError:
                raise DocumentError(f"document {name!r} is not loaded") from None

    def drop(self, name: str) -> None:
        with self._lock.write_locked():
            if name not in self._documents:
                raise DocumentError(f"document {name!r} is not loaded")
            del self._documents[name]
            self._version += 1
            self._write_through(removed=name)

    def names(self) -> list[str]:
        with self._lock.read_locked():
            return list(self._documents)

    def __contains__(self, name: str) -> bool:
        with self._lock.read_locked():
            return name in self._documents

    def loaded_documents_table(self) -> Table:
        """The loaded-document table of Figure 9 as a relational Table."""
        with self._lock.read_locked():
            names = list(self._documents)
            containers = [self._documents[name] for name in names]
        columns = [
            Column("doc", names),
            Column("nodes", [container.node_count for container in containers]),
            Column("elements", [container.element_count
                                for container in containers]),
            Column("height", [max(container.level) + 1 if container.level else 0
                              for container in containers]),
        ]
        return Table(columns)

    def tag_statistics_table(self) -> Table:
        """Per-tag element counts across loaded documents (``doc|tag|count``)."""
        docs: list[str] = []
        tags: list[str] = []
        counts: list[int] = []
        with self._lock.read_locked():
            snapshot = dict(self._documents)
        for name, container in snapshot.items():
            for tag, count in sorted(container.tag_counts().items()):
                docs.append(name)
                tags.append(tag)
                counts.append(count)
        return Table([Column("doc", docs), Column("tag", tags),
                      Column("count", counts)])

    def containers(self) -> list[DocumentContainer]:
        """All loaded (persistent) containers."""
        with self._lock.read_locked():
            return list(self._documents.values())
