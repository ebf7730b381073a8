"""Loop-lifted staircase join — Section 3 of the paper.

The loop-lifted staircase join evaluates an XPath location step for *all*
context-node sequences of *all* iterations of the enclosing ``for``-loops in
a single sequential pass over the document encoding.  Its input is the
relational encoding of the context: ``(pre, iter)`` pairs sorted on
``[pre, iter]`` (document order, iterations clustered per context node); its
output is a list of ``(iter, pre)`` result pairs such that

* within one iteration, result nodes are duplicate free and in document
  order, and
* result nodes that belong to multiple iterations occur in iteration order
  (the inner ``FOR iter FROM fstIter TO lstIter`` loop of Figure 6).

The module provides the stack-based ``child`` algorithm of Figure 6, a
matching single-scan ``descendant`` algorithm, and loop-lifted versions of
the remaining axes.  ``loop_lifted_step`` dispatches on the axis and applies
an optional node test as a post-filter (see :mod:`repro.staircase.pushdown`
for the pushed-down variant).

The *iterative* execution mode used as the Figure 12 baseline simply calls
the plain staircase join once per iteration — see
:func:`iterative_step` below.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass

from ..errors import StaircaseJoinError
from ..xml.document import DocumentContainer, NodeKind
from .axes import Axis, NodeTest
from .iterative import StaircaseStats, attribute_step, staircase_join


ContextPairs = list[tuple[int, int]]      # (pre, iter), sorted on [pre, iter]
ResultPairs = list[tuple[int, int]]       # (iter, pre)


def normalize_context(pairs: ContextPairs) -> ContextPairs:
    """Sort the context on ``[pre, iter]`` and drop duplicate pairs."""
    return sorted(set(pairs))


def pairs_to_arrays(pairs: ResultPairs) -> "tuple[array, array]":
    """Convert ``(iter, pre)`` tuple pairs into paired ``array('q')`` columns."""
    iters = array("q", (pair[0] for pair in pairs))
    pres = array("q", (pair[1] for pair in pairs))
    return iters, pres


# --------------------------------------------------------------------------- #
# child axis — the detailed algorithm of Figure 6
# --------------------------------------------------------------------------- #
def ll_child_arrays(container: DocumentContainer, context: ContextPairs, *,
                    stats: StaircaseStats | None = None,
                    normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted staircase join for the ``child`` axis (Figure 6),
    producing the result as paired ``(iter, pre)`` int arrays.

    A stack of *active* context nodes is maintained; each entry records the
    end of its partition (``eos``), the next child still to be produced
    (``nxt_child``) and the iterations in which the context node is active.
    Children are produced by skipping over their subtrees; when the scan
    reaches the next context node the current context is suspended (pushed
    deeper) and resumed after the inner context's partition is finished.

    ``normalized=True`` promises the context is already sorted on
    ``[pre, iter]`` and duplicate free (the step assembly and the fused
    chain pipeline normalize once per step) — the redundant sort/dedup
    pass is skipped.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    out_iters = array("q")
    out_pres = array("q")
    size = container.size

    # group consecutive context entries that share the same pre value
    groups: list[tuple[int, list[int]]] = []       # (pre, [iters])
    for pre, iteration in context:
        if groups and groups[-1][0] == pre:
            groups[-1][1].append(iteration)
        else:
            groups.append((pre, [iteration]))

    # stack entries: [eos, nxt_child, iters]
    active: list[list] = []

    def inner_loop_child(limit: int) -> None:
        """Produce children of the top context up to pre rank ``limit``."""
        entry = active[-1]
        next_child = entry[1]
        iters = entry[2]
        while next_child <= limit:
            stats.touch()
            out_iters.extend(iters)
            out_pres.extend([next_child] * len(iters))
            next_child += size[next_child] + 1
        entry[1] = next_child

    index = 0
    while index < len(groups):
        pre, iters = groups[index]
        stats.touch()
        if not active:
            active.append([pre + size[pre], pre + 1, iters])       # push_ctx
            index += 1
        elif active[-1][0] >= pre:
            # next context node is a descendant of the current context node:
            # produce the current context's children up to it, then push
            inner_loop_child(pre)
            active.append([pre + size[pre], pre + 1, iters])
            index += 1
        else:
            # next context is outside the current partition: finish it
            inner_loop_child(active[-1][0])
            active.pop()
    while active:
        inner_loop_child(active[-1][0])
        active.pop()

    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_child(container: DocumentContainer, context: ContextPairs, *,
             stats: StaircaseStats | None = None) -> ResultPairs:
    """Tuple-pair facade over :func:`ll_child_arrays`."""
    iters, pres = ll_child_arrays(container, context, stats=stats)
    return list(zip(iters, pres))


# --------------------------------------------------------------------------- #
# descendant / descendant-or-self — single scan with an active-iteration stack
# --------------------------------------------------------------------------- #
def ll_descendant_arrays(container: DocumentContainer, context: ContextPairs, *,
                         or_self: bool = False,
                         stats: StaircaseStats | None = None,
                         normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted descendant(-or-self) step as paired ``(iter, pre)`` arrays.

    The document region spanned by the context is scanned once; a stack of
    ``(eos, iteration)`` entries tracks which iterations are currently
    *active* (their context subtree covers the scan position).  Pruning
    happens per iteration: a context node whose iteration is already active
    is ignored (it would only generate duplicates within that iteration).

    The common single-active-context run (one outermost context per document
    region — every absolute path) is emitted as one dense ``pre`` window
    appended with two C-level ``extend`` calls instead of a per-node loop.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    out_iters = array("q")
    out_pres = array("q")
    size = container.size

    active: list[tuple[int, int]] = []      # (eos, iteration); one entry per iter
    index = 0
    total = len(context)
    position = context[0][0] if context else 0

    while index < total or active:
        if not active:
            # skipping: jump straight to the next context node
            position = context[index][0]
        # retire partitions that ended before the current position
        if active:
            active = [(end, iteration) for end, iteration in active
                      if end >= position]
        if len(active) == 1:
            # fast path: a single active context and no upcoming context
            # node before its end means the rest of its partition is one
            # contiguous descendant window — emit it wholesale
            end, iteration = active[0]
            next_context = context[index][0] if index < total else end + 1
            window_end = min(end, next_context - 1)
            if window_end >= position:
                span = range(position, window_end + 1)
                stats.touch(len(span))
                out_pres.extend(span)
                out_iters.extend([iteration] * len(span))
                position = window_end + 1
                if position > end:
                    active = []
                if index >= total and not active:
                    break
                continue
        # the current node is a descendant of every still-active context
        emitted = [iteration for _, iteration in active]
        if emitted:
            stats.touch()
        # activate context nodes located at the current position
        while index < total and context[index][0] == position:
            pre, iteration = context[index]
            index += 1
            stats.touch()
            if any(active_iter == iteration for _, active_iter in active):
                # pruning: this iteration is already covered by an outer
                # context node — the node above was (or will be) emitted for
                # it anyway
                stats.contexts_pruned += 1
                continue
            # keep the active list iteration-ordered so rows sharing a pre
            # rank come out iteration-ascending (the shared (pre, iter)
            # output contract of every array producer)
            bisect.insort(active, (pre + size[pre], iteration),
                          key=lambda entry: entry[1])
            if or_self:
                emitted.append(iteration)
        if emitted:
            if or_self:
                emitted.sort()
            out_iters.extend(emitted)
            out_pres.extend([position] * len(emitted))
        position += 1

    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_descendant(container: DocumentContainer, context: ContextPairs, *,
                  or_self: bool = False,
                  stats: StaircaseStats | None = None) -> ResultPairs:
    """Tuple-pair facade over :func:`ll_descendant_arrays`."""
    iters, pres = ll_descendant_arrays(container, context, or_self=or_self,
                                       stats=stats)
    return list(zip(iters, pres))


# --------------------------------------------------------------------------- #
# remaining axes — window arithmetic on the (pre, size, level) columns
# --------------------------------------------------------------------------- #
def ll_self_arrays(container: DocumentContainer, context: ContextPairs, *,
                   stats: StaircaseStats | None = None,
                   normalized: bool = False) -> "tuple[array, array]":
    """The self axis is the identity on the normalized context."""
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    out_iters = array("q", (iteration for _, iteration in context))
    out_pres = array("q", (pre for pre, _ in context))
    stats.results += len(out_pres)
    return out_iters, out_pres


def ancestor_stack_scan(container: DocumentContainer, context: ContextPairs):
    """One forward skip-scan over a normalized context, yielding
    ``(pre, iterations, stack)`` per distinct context pre rank.

    ``stack`` is the open-ancestor chain of ``pre`` as ``(ancestor_pre,
    ancestor_end)`` entries, outermost first — derived in a single pass by
    advancing a global cursor: subtrees that end before the next context
    node are skipped wholesale (``v += size[v] + 1``), nodes whose subtree
    covers it are pushed (they are exactly its ancestors).  Total cost is
    O(context + distinct ancestors touched), independent of the pre gaps
    the per-node ``parent_pre`` walk would re-scan.

    The yielded stack is reused across yields — callers must not hold on
    to it after advancing the generator.
    """
    size = container.size
    stack: list[tuple[int, int]] = []
    cursor = 0
    index = 0
    total = len(context)
    while index < total:
        pre = context[index][0]
        iterations = []
        while index < total and context[index][0] == pre:
            iterations.append(context[index][1])
            index += 1
        while stack and stack[-1][1] < pre:
            stack.pop()
        while cursor < pre:
            end = cursor + size[cursor]
            if end < pre:
                cursor = end + 1
            else:
                stack.append((cursor, end))
                cursor += 1
        yield pre, iterations, stack


def ll_parent_arrays(container: DocumentContainer, context: ContextPairs, *,
                     stats: StaircaseStats | None = None,
                     normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted parent step via the ancestor-stack scan (the parent of
    each context node is the top of its open-ancestor stack)."""
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    pairs: set[tuple[int, int]] = set()
    for pre, iterations, stack in ancestor_stack_scan(container, context):
        stats.touch()
        if not stack:
            continue                    # document root: no parent
        parent = stack[-1][0]
        for iteration in iterations:
            pairs.add((parent, iteration))
    ordered = sorted(pairs)
    out_iters = array("q", (iteration for _, iteration in ordered))
    out_pres = array("q", (pre for pre, _ in ordered))
    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_ancestor_arrays(container: DocumentContainer, context: ContextPairs, *,
                       or_self: bool = False,
                       stats: StaircaseStats | None = None,
                       normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted ancestor(-or-self) step via the ancestor-stack scan.

    The open-ancestor stack at each context node *is* its ancestor chain;
    walking it innermost-first allows path-sharing pruning per iteration —
    once an (ancestor, iteration) pair is known, all its own ancestors were
    recorded alongside it.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    seen: set[tuple[int, int]] = set()
    for pre, iterations, stack in ancestor_stack_scan(container, context):
        stats.touch()
        for iteration in iterations:
            if or_self:
                seen.add((pre, iteration))
            for ancestor, _ in reversed(stack):
                key = (ancestor, iteration)
                if key in seen:
                    break               # pruning: chain already emitted
                seen.add(key)
    ordered = sorted(seen)
    out_iters = array("q", (iteration for _, iteration in ordered))
    out_pres = array("q", (pre for pre, _ in ordered))
    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_following_arrays(container: DocumentContainer, context: ContextPairs, *,
                        stats: StaircaseStats | None = None,
                        normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted following step as one dense window per iteration.

    ``following(c) = pre(v) > pre(c) + size(c)``, so the union over an
    iteration's context set is the single window starting after the
    *earliest* context subtree end.  Iterations are activated in bound
    order during one sweep, keeping the output sorted ``(pre, iter)``
    without a final sort; the single-iteration case is two C-level extends.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    size = container.size
    bound: dict[int, int] = {}          # iteration -> min subtree end
    for pre, iteration in context:
        end = pre + size[pre]
        if iteration not in bound or end < bound[iteration]:
            bound[iteration] = end
    out_iters = array("q")
    out_pres = array("q")
    total = container.node_count
    if len(bound) == 1:
        iteration, end = next(iter(bound.items()))
        span = range(end + 1, total)
        stats.touch(len(span))
        out_pres.extend(span)
        out_iters.extend([iteration] * len(span))
    elif bound:
        starts = sorted((end + 1, iteration)
                        for iteration, end in bound.items())
        active: list[int] = []
        index = 0
        count = len(starts)
        while index < count:
            segment_start = starts[index][0]
            while index < count and starts[index][0] == segment_start:
                active.append(starts[index][1])
                index += 1
            active.sort()
            segment_end = starts[index][0] - 1 if index < count else total - 1
            for pre in range(segment_start, min(segment_end, total - 1) + 1):
                stats.touch()
                out_iters.extend(active)
                out_pres.extend([pre] * len(active))
    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_preceding_arrays(container: DocumentContainer, context: ContextPairs, *,
                        stats: StaircaseStats | None = None,
                        normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted preceding step as a shrinking subtree-block scan.

    ``preceding(c) = pre(v) + size(v) < pre(c)``: per iteration the union
    is governed by the *latest* context pre ``b``.  Scanning from the
    document start, a node whose subtree ends before ``b`` contributes its
    whole subtree as one dense block (every node inside also ends before
    ``b``) and the scan jumps past it; otherwise the node is an ancestor
    of ``b`` and the scan steps inside.  Only the O(depth) ancestors of
    ``b`` are stepped over one by one — the scan is proportional to the
    output, not the document.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    size = container.size
    bound: dict[int, int] = {}          # iteration -> max context pre
    for pre, iteration in context:
        if iteration not in bound or pre > bound[iteration]:
            bound[iteration] = pre

    out_iters = array("q")
    out_pres = array("q")
    if len(bound) == 1:
        iteration, limit = next(iter(bound.items()))
        pre = 0
        while pre < limit:
            stats.touch()
            end = pre + size[pre]
            if end < limit:
                span = range(pre, end + 1)
                out_pres.extend(span)
                out_iters.extend([iteration] * len(span))
                pre = end + 1
            else:
                pre += 1                # ancestor of the bound: not preceding
    elif bound:
        pairs: ResultPairs = []         # (pre, iteration) for the final sort
        for iteration, limit in bound.items():
            pre = 0
            while pre < limit:
                stats.touch()
                end = pre + size[pre]
                if end < limit:
                    pairs.extend((node, iteration)
                                 for node in range(pre, end + 1))
                    pre = end + 1
                else:
                    pre += 1
        pairs.sort()
        out_iters.extend(iteration for _, iteration in pairs)
        out_pres.extend(pre for pre, _ in pairs)
    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_siblings_arrays(container: DocumentContainer, context: ContextPairs, *,
                       following: bool,
                       stats: StaircaseStats | None = None,
                       normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted sibling steps with per-(parent, iteration) shrinking.

    Parents come from the one-pass ancestor-stack scan (no per-node
    ``parent_pre`` walks).  Context nodes sharing a parent within one
    iteration collapse to a single representative — the *earliest* for
    following-sibling (its following siblings cover every later context's)
    and the *latest* for preceding-sibling — so each sibling run is hopped
    exactly once per group, and distinct groups are disjoint by
    construction (every node has one parent): no dedup pass is needed.
    """
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    size = container.size
    # (parent, parent_end, iteration) -> representative context pre;
    # the scan is pre-ascending, so first-wins = min, last-wins = max
    groups: dict[tuple[int, int, int], int] = {}
    for pre, iterations, stack in ancestor_stack_scan(container, context):
        stats.touch()
        if not stack:
            continue                    # document root: no siblings
        parent, parent_end = stack[-1]
        for iteration in iterations:
            key = (parent, parent_end, iteration)
            if following:
                groups.setdefault(key, pre)
            else:
                groups[key] = pre
    pairs: ResultPairs = []             # (pre, iteration)
    for (parent, parent_end, iteration), pre in groups.items():
        if following:
            sibling = pre + size[pre] + 1
            while sibling <= parent_end:
                stats.touch()
                pairs.append((sibling, iteration))
                sibling += size[sibling] + 1
        else:
            sibling = parent + 1
            while sibling < pre:
                stats.touch()
                pairs.append((sibling, iteration))
                sibling += size[sibling] + 1
    pairs.sort()
    out_iters = array("q", (iteration for _, iteration in pairs))
    out_pres = array("q", (pre for pre, _ in pairs))
    stats.results += len(out_pres)
    return out_iters, out_pres


def ll_attribute(container: DocumentContainer, context: ContextPairs,
                 name: str | None = None) -> list[tuple[int, int]]:
    """Loop-lifted attribute step: returns ``(iter, attribute_row)`` pairs."""
    wanted = None
    if name is not None and name != "*":
        wanted = container.names.lookup(name)
        if wanted is None:
            return []
    result: list[tuple[int, int]] = []
    for pre, iteration in normalize_context(context):
        for attr_index in container.attributes_of(pre):
            if wanted is None or container.attr_name[attr_index] == wanted:
                result.append((iteration, attr_index))
    return result


# --------------------------------------------------------------------------- #
# dispatching entry points
# --------------------------------------------------------------------------- #
def loop_lifted_step_arrays(container: DocumentContainer, context: ContextPairs,
                            axis: Axis, node_test: NodeTest | None = None, *,
                            stats: StaircaseStats | None = None,
                            normalized: bool = False) -> "tuple[array, array]":
    """Evaluate one location step for all iterations in a single pass,
    returning the result as paired ``(iter, pre)`` ``array('q')`` columns.

    Every tree axis runs natively on arrays — the window-arithmetic
    kernels above share the output contract (rows sorted ``(pre, iter)``,
    duplicate free, document order per iteration).  This is the producer
    the typed executor consumes — step results feed the relational layer
    without ever round-tripping through lists of Python tuples.
    ``normalized=True`` promises the context is already sorted on
    ``[pre, iter]`` and duplicate free.
    """
    if axis is Axis.ATTRIBUTE:
        raise StaircaseJoinError("attribute axis is handled by ll_attribute()")
    if axis is Axis.CHILD:
        iters, pres = ll_child_arrays(container, context, stats=stats,
                                      normalized=normalized)
    elif axis is Axis.DESCENDANT:
        iters, pres = ll_descendant_arrays(container, context, stats=stats,
                                           normalized=normalized)
    elif axis is Axis.DESCENDANT_OR_SELF:
        iters, pres = ll_descendant_arrays(container, context, or_self=True,
                                           stats=stats, normalized=normalized)
    elif axis is Axis.SELF:
        iters, pres = ll_self_arrays(container, context, stats=stats,
                                     normalized=normalized)
    elif axis is Axis.PARENT:
        iters, pres = ll_parent_arrays(container, context, stats=stats,
                                       normalized=normalized)
    elif axis is Axis.ANCESTOR:
        iters, pres = ll_ancestor_arrays(container, context, stats=stats,
                                         normalized=normalized)
    elif axis is Axis.ANCESTOR_OR_SELF:
        iters, pres = ll_ancestor_arrays(container, context, or_self=True,
                                         stats=stats, normalized=normalized)
    elif axis is Axis.FOLLOWING:
        iters, pres = ll_following_arrays(container, context, stats=stats,
                                          normalized=normalized)
    elif axis is Axis.PRECEDING:
        iters, pres = ll_preceding_arrays(container, context, stats=stats,
                                          normalized=normalized)
    elif axis is Axis.FOLLOWING_SIBLING:
        iters, pres = ll_siblings_arrays(container, context, following=True,
                                         stats=stats, normalized=normalized)
    elif axis is Axis.PRECEDING_SIBLING:
        iters, pres = ll_siblings_arrays(container, context, following=False,
                                         stats=stats, normalized=normalized)
    else:  # pragma: no cover - the Axis enum is exhausted above
        raise StaircaseJoinError(f"unsupported axis {axis}")

    if node_test is not None and node_test != NodeTest(kind="node"):
        matches = node_test.matches_tree_node
        kept_iters = array("q")
        kept_pres = array("q")
        for iteration, pre in zip(iters, pres):
            if matches(container, pre):
                kept_iters.append(iteration)
                kept_pres.append(pre)
        return kept_iters, kept_pres
    return iters, pres


def loop_lifted_step(container: DocumentContainer, context: ContextPairs,
                     axis: Axis, node_test: NodeTest | None = None, *,
                     stats: StaircaseStats | None = None) -> ResultPairs:
    """Evaluate one location step for all iterations in a single pass
    (tuple-pair facade over :func:`loop_lifted_step_arrays`)."""
    iters, pres = loop_lifted_step_arrays(container, context, axis, node_test,
                                          stats=stats)
    return list(zip(iters, pres))


def iterative_step_arrays(container: DocumentContainer, context: ContextPairs,
                          axis: Axis, node_test: NodeTest | None = None, *,
                          stats: StaircaseStats | None = None
                          ) -> "tuple[array, array]":
    """Figure 12 baseline: one plain staircase join per iteration, with the
    result delivered as paired ``(iter, pre)`` int arrays.

    The context pairs are grouped by iteration and the plain (single context
    set) staircase join is invoked once per group — i.e. one sequential pass
    over the document per iteration, which is exactly the overhead the
    loop-lifted algorithm removes.
    """
    if axis is Axis.ATTRIBUTE:
        raise StaircaseJoinError("attribute axis is handled by ll_attribute()")
    by_iteration: dict[int, list[int]] = {}
    for pre, iteration in context:
        by_iteration.setdefault(iteration, []).append(pre)
    out_iters = array("q")
    out_pres = array("q")
    for iteration in sorted(by_iteration):
        nodes = staircase_join(container, by_iteration[iteration], axis,
                               node_test, stats=stats)
        out_iters.extend([iteration] * len(nodes))
        out_pres.extend(nodes)
    return out_iters, out_pres


def iterative_step(container: DocumentContainer, context: ContextPairs,
                   axis: Axis, node_test: NodeTest | None = None, *,
                   stats: StaircaseStats | None = None) -> ResultPairs:
    """Tuple-pair facade over :func:`iterative_step_arrays`."""
    iters, pres = iterative_step_arrays(container, context, axis, node_test,
                                        stats=stats)
    return list(zip(iters, pres))
