"""Plain (single context set) staircase join — Section 2 / [18, 19].

``staircase_join`` evaluates one XPath location step for an entire context
*set* in (at most) one sequential pass over the ``pre|size|level`` encoding,
using the three techniques of Figures 1–3:

* **pruning** — context nodes covered by another context node are dropped,
* **partitioning** — overlapping axis regions are split along the pre axis
  so every result node is generated exactly once,
* **skipping** — document regions that cannot contain results are jumped
  over using the ``size`` column.

The function returns result pre ranks in document order and without
duplicates; :class:`StaircaseStats` exposes the number of document tuples
touched so the ``|result| + |context|`` bound of the paper can be verified
(benchmark *fig1-3*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StaircaseJoinError
from ..xml.document import DocumentContainer, NodeKind
from .axes import Axis, NodeTest


@dataclass
class StaircaseStats:
    """Instrumentation counters for one staircase-join invocation."""

    nodes_scanned: int = 0          # document tuples touched
    contexts_pruned: int = 0        # context nodes removed by pruning
    contexts_seen: int = 0
    results: int = 0

    def touch(self, count: int = 1) -> None:
        self.nodes_scanned += count


def _normalize_context(context: list[int]) -> list[int]:
    """Sort the context set and remove duplicate pre values."""
    return sorted(set(context))


def _prune_descendant(context: list[int], container: DocumentContainer,
                      stats: StaircaseStats) -> list[int]:
    """Drop context nodes lying inside the subtree of an earlier context node."""
    pruned: list[int] = []
    current_end = -1
    for pre in context:
        if pre <= current_end:
            stats.contexts_pruned += 1
            continue
        pruned.append(pre)
        current_end = pre + container.size[pre]
    return pruned


def _prune_ancestor(context: list[int], container: DocumentContainer,
                    stats: StaircaseStats) -> list[int]:
    """For the ancestor axis, a context node that is an ancestor of another
    context node produces a subset of the other's results and can be pruned."""
    pruned: list[int] = []
    for index, pre in enumerate(context):
        end = pre + container.size[pre]
        # pruned if the next context node is inside this node's subtree
        if index + 1 < len(context) and context[index + 1] <= end:
            stats.contexts_pruned += 1
            continue
        pruned.append(pre)
    return pruned


def staircase_join(container: DocumentContainer, context: list[int],
                   axis: Axis, node_test: NodeTest | None = None, *,
                   stats: StaircaseStats | None = None) -> list[int]:
    """Evaluate ``context/axis::node_test`` over one document container.

    ``context`` is a list of pre ranks (duplicates allowed, any order); the
    result is a duplicate-free, document-ordered list of pre ranks.  The
    attribute axis is not handled here (attributes live in a separate table;
    see :func:`attribute_step`).
    """
    if stats is None:
        stats = StaircaseStats()
    if axis is Axis.ATTRIBUTE:
        raise StaircaseJoinError("attribute axis is handled by attribute_step()")

    context = _normalize_context(context)
    stats.contexts_seen += len(context)
    if not context:
        return []

    if axis is Axis.SELF:
        results = [pre for pre in context
                   if node_test is None
                   or node_test.matches_tree_node(container, pre)]
        stats.touch(len(context))
        stats.results += len(results)
        return results

    handler = _AXIS_HANDLERS.get(axis)
    if handler is None:
        raise StaircaseJoinError(f"unsupported axis {axis}")
    results = handler(container, context, stats)

    if node_test is not None and node_test != NodeTest(kind="node"):
        results = [pre for pre in results
                   if node_test.matches_tree_node(container, pre)]
    stats.results += len(results)
    return results


# --------------------------------------------------------------------------- #
# per-axis scans
# --------------------------------------------------------------------------- #
def _descendant(container: DocumentContainer, context: list[int],
                stats: StaircaseStats, *, or_self: bool = False) -> list[int]:
    context = _prune_descendant(context, container, stats)
    results: list[int] = []
    for pre in context:
        stats.touch()                      # touch the context node itself
        if or_self:
            results.append(pre)
        end = pre + container.size[pre]
        # after pruning every partition is one contiguous pre window:
        # append it with a single C-level extend instead of a node loop
        span = range(pre + 1, end + 1)
        stats.touch(len(span))
        results.extend(span)
        # skipping: everything between `end` and the next context node is
        # never touched
    return results


def _child(container: DocumentContainer, context: list[int],
           stats: StaircaseStats) -> list[int]:
    results: list[int] = []
    seen: set[int] = set()
    for pre in context:
        stats.touch()
        end = pre + container.size[pre]
        child = pre + 1
        while child <= end:
            stats.touch()
            if child not in seen:
                seen.add(child)
                results.append(child)
            # skipping: jump over the child's own subtree
            child += container.size[child] + 1
    results.sort()
    return results


def _parent(container: DocumentContainer, context: list[int],
            stats: StaircaseStats) -> list[int]:
    results: set[int] = set()
    for pre in context:
        stats.touch()
        parent = container.parent_pre(pre)
        if parent is not None:
            results.add(parent)
    return sorted(results)


def _ancestor(container: DocumentContainer, context: list[int],
              stats: StaircaseStats, *, or_self: bool = False) -> list[int]:
    context = _prune_ancestor(list(context), container, stats) if not or_self else context
    results: set[int] = set()
    for pre in context:
        if or_self:
            results.add(pre)
        current = container.parent_pre(pre)
        while current is not None:
            stats.touch()
            if current in results:
                break                     # pruning: shared ancestor path
            results.add(current)
            current = container.parent_pre(current)
    return sorted(results)


def _following(container: DocumentContainer, context: list[int],
               stats: StaircaseStats) -> list[int]:
    # the union of following regions is a single pre range starting after the
    # earliest context subtree end (partitioning degenerates to one region)
    first_end = min(pre + container.size[pre] for pre in context)
    results = []
    for node in range(first_end + 1, container.node_count):
        stats.touch()
        results.append(node)
    return results


def _preceding(container: DocumentContainer, context: list[int],
               stats: StaircaseStats) -> list[int]:
    # the union of preceding regions is determined by the latest context
    # node: v qualifies iff its whole subtree ends before that context node
    # (this automatically excludes the ancestors of the context node)
    last = max(context)
    results = []
    for node in range(last):
        stats.touch()
        if node + container.size[node] < last:
            results.append(node)
    return results


def _following_sibling(container: DocumentContainer, context: list[int],
                       stats: StaircaseStats) -> list[int]:
    results: set[int] = set()
    for pre in context:
        stats.touch()
        parent = container.parent_pre(pre)
        if parent is None:
            continue
        sibling = pre + container.size[pre] + 1
        end = parent + container.size[parent]
        while sibling <= end:
            stats.touch()
            results.add(sibling)
            sibling += container.size[sibling] + 1
    return sorted(results)


def _preceding_sibling(container: DocumentContainer, context: list[int],
                       stats: StaircaseStats) -> list[int]:
    results: set[int] = set()
    for pre in context:
        stats.touch()
        parent = container.parent_pre(pre)
        if parent is None:
            continue
        sibling = parent + 1
        while sibling < pre:
            stats.touch()
            results.add(sibling)
            sibling += container.size[sibling] + 1
    return sorted(results)


_AXIS_HANDLERS = {
    Axis.DESCENDANT: _descendant,
    Axis.DESCENDANT_OR_SELF:
        lambda container, context, stats: _descendant(container, context, stats,
                                                      or_self=True),
    Axis.CHILD: _child,
    Axis.PARENT: _parent,
    Axis.ANCESTOR: _ancestor,
    Axis.ANCESTOR_OR_SELF:
        lambda container, context, stats: _ancestor(container, context, stats,
                                                    or_self=True),
    Axis.FOLLOWING: _following,
    Axis.PRECEDING: _preceding,
    Axis.FOLLOWING_SIBLING: _following_sibling,
    Axis.PRECEDING_SIBLING: _preceding_sibling,
}


# --------------------------------------------------------------------------- #
# attribute step (separate table)
# --------------------------------------------------------------------------- #
def attribute_step(container: DocumentContainer, context: list[int],
                   name: str | None = None) -> list[int]:
    """Return attribute-table row indexes of attributes owned by the context.

    ``name=None`` (or ``"*"``) selects all attributes.
    """
    wanted_name_id = None
    if name is not None and name != "*":
        wanted_name_id = container.names.lookup(name)
        if wanted_name_id is None:
            return []
    results: list[int] = []
    for pre in _normalize_context(context):
        for attr_index in container.attributes_of(pre):
            if wanted_name_id is None or container.attr_name[attr_index] == wanted_name_id:
                results.append(attr_index)
    return results


# --------------------------------------------------------------------------- #
# reference implementation (for tests): naive axis semantics
# --------------------------------------------------------------------------- #
def naive_axis(container: DocumentContainer, context: list[int],
               axis: Axis, node_test: NodeTest | None = None) -> list[int]:
    """Straightforward O(|context| * |doc|) axis evaluation used as an oracle."""
    results: set[int] = set()
    for pre in set(context):
        end = pre + container.size[pre]
        for node in range(container.node_count):
            if _naive_axis_member(container, pre, end, node, axis):
                results.add(node)
    ordered = sorted(results)
    if node_test is not None and node_test != NodeTest(kind="node"):
        ordered = [node for node in ordered
                   if node_test.matches_tree_node(container, node)]
    return ordered


def _naive_axis_member(container: DocumentContainer, pre: int, end: int,
                       node: int, axis: Axis) -> bool:
    node_end = node + container.size[node]
    if axis is Axis.DESCENDANT:
        return pre < node <= end
    if axis is Axis.DESCENDANT_OR_SELF:
        return pre <= node <= end
    if axis is Axis.CHILD:
        return pre < node <= end and container.level[node] == container.level[pre] + 1
    if axis is Axis.PARENT:
        return node < pre <= node_end and container.level[node] == container.level[pre] - 1
    if axis is Axis.ANCESTOR:
        return node < pre <= node_end
    if axis is Axis.ANCESTOR_OR_SELF:
        return node <= pre <= node_end
    if axis is Axis.FOLLOWING:
        return node > end
    if axis is Axis.PRECEDING:
        return node < pre and node_end < pre
    if axis is Axis.FOLLOWING_SIBLING:
        return (node > end
                and container.parent_pre(node) == container.parent_pre(pre))
    if axis is Axis.PRECEDING_SIBLING:
        return (node_end < pre
                and container.parent_pre(node) == container.parent_pre(pre))
    if axis is Axis.SELF:
        return node == pre
    raise StaircaseJoinError(f"unsupported axis {axis}")
