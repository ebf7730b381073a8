"""Column and table properties used by the peephole optimizer.

Section 4.1 of the paper defines a small set of properties that the
property-driven peephole optimization stage maintains on intermediate
relational results:

``dense(c)``
    column *c* is a densely increasing integer sequence ``base, base+1, ...``
``key(c)``
    column *c* contains no duplicate values
``const(c = v)``
    column *c* carries the constant value *v* in every row
``ord([c1, ..., cn])``
    the table is lexicographically ordered on the listed columns
``grpord([ci], g)``
    within every group of rows sharing the same value in column *g*, the rows
    are ordered on the listed columns (groups need not be clustered)
``indep({ci})``
    the table's contents do not depend on the listed columns (used by join
    recognition at the compiler level)

In MonetDB the properties live on (materialised) intermediate results; we
mirror that by attaching a :class:`ColumnProps` to every column of a
:class:`~repro.relational.table.Table` and an ordering description to the
table itself.  Operators propagate the properties so that later operators can
pick cheaper physical algorithms (positional lookup, merge instead of hash,
skipped sorts, streaming DENSE_RANK).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence


_MISSING = object()


@dataclass
class ColumnProps:
    """Per-column properties tracked on intermediate results."""

    #: column is ``base, base+1, base+2, ...`` (implies ``key``)
    dense: bool = False
    #: first value of a dense column (only meaningful when ``dense`` is True)
    dense_base: int = 0
    #: column holds no duplicate values
    key: bool = False
    #: column holds a single constant value in every row
    const: bool = False
    #: the constant value (only meaningful when ``const`` is True)
    const_value: Any = None

    def copy(self) -> "ColumnProps":
        return replace(self)

    def describe(self) -> str:
        parts = []
        if self.dense:
            parts.append(f"dense(base={self.dense_base})")
        if self.key:
            parts.append("key")
        if self.const:
            parts.append(f"const({self.const_value!r})")
        return ",".join(parts) if parts else "-"


@dataclass
class GroupOrder:
    """A ``grpord([cols], group)`` property: per-group secondary ordering."""

    columns: tuple[str, ...]
    group: str

    def renamed(self, mapping: dict[str, str]) -> "GroupOrder | None":
        """Translate through a column renaming; drop if any column vanishes."""
        if self.group not in mapping:
            return None
        cols = []
        for col in self.columns:
            if col not in mapping:
                return None
            cols.append(mapping[col])
        return GroupOrder(tuple(cols), mapping[self.group])


@dataclass
class TableProps:
    """Table-level ordering properties."""

    #: lexicographic ordering of the whole table (``ord`` in the paper)
    order: tuple[str, ...] = ()
    #: secondary, per-group orderings (``grpord`` in the paper)
    group_orders: tuple[GroupOrder, ...] = ()

    def copy(self) -> "TableProps":
        return TableProps(order=tuple(self.order),
                          group_orders=tuple(self.group_orders))

    def ordered_on(self, columns: Sequence[str]) -> bool:
        """True if the table is known to be ordered on the given prefix."""
        columns = tuple(columns)
        return self.order[: len(columns)] == columns

    def group_ordered_on(self, columns: Sequence[str], group: str) -> bool:
        """True if a matching ``grpord`` property is known."""
        columns = tuple(columns)
        if self.ordered_on((group, *columns)):
            return True
        for grpord in self.group_orders:
            if grpord.group == group and grpord.columns[: len(columns)] == columns:
                return True
        return False

    def describe(self) -> str:
        parts = []
        if self.order:
            parts.append("ord[" + ",".join(self.order) + "]")
        for grpord in self.group_orders:
            parts.append(
                "grpord[" + ",".join(grpord.columns) + f"/{grpord.group}]")
        return " ".join(parts) if parts else "-"


def is_dense_sequence(values: Iterable[int]) -> tuple[bool, int]:
    """Check whether ``values`` is a dense integer sequence.

    Returns ``(True, base)`` when the values are ``base, base+1, ...`` and
    ``(False, 0)`` otherwise.  An empty sequence counts as dense with base 0.
    """
    if isinstance(values, range):
        # virtual dense columns answer without a scan
        if len(values) == 0:
            return True, 0
        if values.step == 1:
            return True, values.start
        return (True, values.start) if len(values) == 1 else (False, 0)
    base = 0
    expected = _MISSING
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            return False, 0
        if expected is _MISSING:
            base = value
            expected = value + 1
        else:
            if value != expected:
                return False, 0
            expected += 1
    return True, base


def infer_column_props(values: Sequence[Any]) -> ColumnProps:
    """Derive :class:`ColumnProps` by inspecting actual column values.

    This is the "measurement" path used when a column is created from raw
    data (e.g. document encoding tables created by the shredder) rather than
    derived through operators that propagate properties analytically.
    """
    props = ColumnProps()
    if not len(values):
        props.dense = True
        props.key = True
        props.const = False
        return props
    dense, base = is_dense_sequence(values)
    if dense:
        props.dense = True
        props.dense_base = base
        props.key = True
        return props
    try:
        unique = len(set(values)) == len(values)
    except TypeError:  # unhashable items: give up on key inference
        unique = False
    props.key = unique
    first = values[0]
    if all(value == first for value in values):
        props.const = True
        props.const_value = first
    return props
