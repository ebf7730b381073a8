"""Node construction into the transient document container (Section 5.1).

XQuery element constructors create new nodes.  In the relational encoding a
constructed element is appended to the query's *transient* document
container: copied content subtrees are pasted as ``pre|size|level`` range
slices (shifted pre ranks and levels, preserved sizes), atomic content
becomes text nodes, and each constructed tree receives a fresh ``frag`` id
so disjoint fragments stay apart.  Nested element constructors are built in
place — straight into their parent's fragment at the next level — instead
of being built standalone and copied.  The returned node surrogate points
into the transient container.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..xml.document import DocumentContainer, NodeKind, NodeRef
from .types import to_string


class ElementSpec:
    """One element to build: its name id and ``(name id, value)``
    attribute pairs in the target container's name pool, and its content
    sequence.  A content item is a node surrogate (copied), a nested
    :class:`ElementSpec` (built in place) or an atomic value."""

    __slots__ = ("name_id", "attributes", "content")

    def __init__(self, name_id: int, attributes: Sequence[tuple[int, str]],
                 content: Sequence[Any]):
        self.name_id = name_id
        self.attributes = attributes
        self.content = content


def construct_text(container: DocumentContainer, content: str) -> NodeRef:
    """Create a standalone text node in the transient container."""
    return NodeRef(container, container.add_node(NodeKind.TEXT, 0,
                                                 value=content))


def construct_element(container: DocumentContainer, name: str,
                      attributes: Sequence[tuple[str, str]],
                      content: Sequence[Any]) -> NodeRef:
    """Create an element node with the given attributes and content sequence.

    ``content`` items are either node surrogates (their subtrees are copied
    into the new element — attribute nodes become attributes of the new
    element) or atomic values (adjacent atomics merge into one text node,
    separated by a single space, per the XQuery constructor rules).
    """
    names = container.names
    spec = ElementSpec(names.intern(name),
                       [(names.intern(attribute_name), value)
                        for attribute_name, value in attributes],
                       content)
    return NodeRef(container, build_element(container, spec))


def build_element(container: DocumentContainer, spec: ElementSpec,
                  level: int = 0, frag: int | None = None) -> int:
    """Append the element ``spec`` at ``level`` of fragment ``frag`` (a new
    fragment when ``None``); returns its pre rank.  Nested specs in the
    content are emitted in place one level deeper, into the same fragment.
    """
    root = container.add_node(NodeKind.ELEMENT, level, name_id=spec.name_id,
                              frag=frag)
    if frag is None:
        frag = root
    for name_id, value in spec.attributes:
        container.add_attribute(root, name_id, value)

    child_level = level + 1
    names = container.names
    pending_atomics: list[str] = []
    for item in spec.content:
        if isinstance(item, NodeRef):
            if item.attr is not None:
                container.add_attribute(root,
                                        names.intern(item.name() or "attr"),
                                        item.string_value())
                continue
        elif not isinstance(item, ElementSpec):
            pending_atomics.append(to_string(item))
            continue
        if pending_atomics:
            container.add_node(NodeKind.TEXT, child_level,
                               value=" ".join(pending_atomics), frag=frag)
            pending_atomics.clear()
        if isinstance(item, ElementSpec):
            build_element(container, item, child_level, frag)
            continue
        source = item.container
        if source.kind[item.pre] == NodeKind.DOCUMENT:
            # copying a document node copies its children
            for child in source.children_pre(item.pre):
                container.copy_subtree_from(source, child, child_level, frag)
        else:
            container.copy_subtree_from(source, item.pre, child_level, frag)
    if pending_atomics:
        container.add_node(NodeKind.TEXT, child_level,
                           value=" ".join(pending_atomics), frag=frag)

    container.set_size(root, container.node_count - root - 1)
    return root
