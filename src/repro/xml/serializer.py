"""Serialization: ``pre|size|level`` encoded subtrees back to XML text.

Because the encoding stores nodes in document order, serialization is a
single sequential scan over the subtree's pre range; close tags are emitted
whenever the level drops — the linear behaviour the paper measures in its
shredding/serialization experiment.
"""

from __future__ import annotations

import math
from typing import Any

from .document import DocumentContainer, NodeKind, NodeRef
from .parser import escape_attribute, escape_text


def serialize_subtree(container: DocumentContainer, pre: int, *,
                      indent: bool = False) -> str:
    """Serialize the subtree rooted at ``pre`` to XML text."""
    pieces: list[str] = []
    open_elements: list[tuple[int, str]] = []   # (level, name)

    first = pre
    last = pre + container.size[pre]
    for current in range(first, last + 1):
        level = container.level[current]
        # close elements whose subtree has ended
        while open_elements and open_elements[-1][0] >= level:
            _, name = open_elements.pop()
            pieces.append(f"</{name}>")
        kind = container.kind[current]
        if kind == NodeKind.DOCUMENT:
            continue
        if kind == NodeKind.ELEMENT:
            name = container.element_name(current) or ""
            attrs = []
            for attr_index in container.attributes_of(current):
                attr_name = container.names.local(container.attr_name[attr_index])
                attr_value = escape_attribute(container.attr_value[attr_index])
                attrs.append(f' {attr_name}="{attr_value}"')
            if container.size[current] == 0:
                pieces.append(f"<{name}{''.join(attrs)}/>")
            else:
                pieces.append(f"<{name}{''.join(attrs)}>")
                open_elements.append((level, name))
        elif kind == NodeKind.TEXT:
            pieces.append(escape_text(container.value[current] or ""))
        elif kind == NodeKind.COMMENT:
            pieces.append(f"<!--{container.value[current] or ''}-->")
        elif kind == NodeKind.PROCESSING_INSTRUCTION:
            pieces.append(f"<?{container.value[current] or ''}?>")
    while open_elements:
        _, name = open_elements.pop()
        pieces.append(f"</{name}>")
    return "".join(pieces)


def serialize_node(node: NodeRef) -> str:
    """Serialize a single node (tree node, attribute, or document node)."""
    if node.attr is not None:
        name = node.name() or ""
        value = escape_attribute(node.string_value())
        return f'{name}="{value}"'
    return serialize_subtree(node.container, node.pre)


def special_double(value: float) -> str:
    """The xs:double lexical form of NaN or an infinity."""
    if math.isnan(value):
        return "NaN"
    return "INF" if value > 0 else "-INF"


def serialize_item(item: Any) -> str:
    """Serialize one XQuery item: nodes as XML, atomics via string conversion."""
    if isinstance(item, NodeRef):
        return serialize_node(item)
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        if not math.isfinite(item):
            return special_double(item)
        if item == int(item):
            return str(int(item))
        return repr(item)
    return str(item)


def serialize_sequence(items: list[Any], *, separator: str = " ") -> str:
    """Serialize an item sequence.

    Adjacent atomic values are separated by ``separator`` (a space, as in the
    W3C serialization rules); nodes are serialized as XML without separators
    around them.
    """
    pieces: list[str] = []
    previous_atomic = False
    for item in items:
        is_atomic = not isinstance(item, NodeRef)
        if previous_atomic and is_atomic:
            pieces.append(separator)
        pieces.append(serialize_item(item))
        previous_atomic = is_atomic
    return "".join(pieces)
