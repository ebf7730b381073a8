"""Tables: named collections of equally long columns.

A :class:`Table` is the materialised intermediate result of the
column-at-a-time engine.  Besides the columns it carries the table-level
ordering properties (``ord``, ``grpord``) that the peephole optimization of
Section 4.1 uses to avoid sorts.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..errors import SchemaError
from .column import Column
from .properties import ColumnProps, GroupOrder, TableProps


class Table:
    """A named-column table with property tracking.

    The table owns its columns; operators never mutate an input table's
    columns (they build new ones), which keeps shared intermediates safe for
    re-use — exactly the behaviour of MonetDB's read-only materialised
    intermediate results the paper relies on for positional algorithms.
    """

    __slots__ = ("columns", "props")

    def __init__(self, columns: Sequence[Column] | None = None, *,
                 props: TableProps | None = None):
        self.columns: dict[str, Column] = {}
        if columns:
            for column in columns:
                if column.name in self.columns:
                    raise SchemaError(f"duplicate column name {column.name!r}")
                self.columns[column.name] = column
            lengths = {len(column) for column in self.columns.values()}
            if len(lengths) > 1:
                raise SchemaError(
                    f"columns have differing lengths: "
                    + ", ".join(f"{c.name}={len(c)}" for c in self.columns.values()))
        self.props = props if props is not None else TableProps()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any]], *,
                  infer_props: bool = False,
                  order: Sequence[str] = ()) -> "Table":
        """Build a table from ``{column_name: values}`` (test-friendly)."""
        columns = [Column(name, values, infer=infer_props)
                   for name, values in data.items()]
        props = TableProps(order=tuple(order))
        return cls(columns, props=props)

    @classmethod
    def empty(cls, names: Sequence[str]) -> "Table":
        """An empty table with the given column names."""
        return cls([Column(name, []) for name in names])

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def row_count(self) -> int:
        for column in self.columns.values():
            return len(column)
        return 0

    def __len__(self) -> int:
        return self.row_count

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; table has {list(self.columns)}") from None

    def col(self, name: str) -> Sequence[Any]:
        """Shorthand for the raw value sequence of a column.

        The representation depends on the column: a plain ``list`` for
        polymorphic columns, ``array('q')`` for typed integer columns, a
        virtual ``range`` for dense columns.  All support ``len``,
        indexing, slicing and iteration uniformly.
        """
        return self.column(name).values

    def rows(self, names: Sequence[str] | None = None) -> Iterator[tuple[Any, ...]]:
        """Iterate tuples over the given columns (all columns by default)."""
        names = list(names) if names is not None else list(self.columns)
        cols = [self.col(name) for name in names]
        return zip(*cols) if cols else iter(())

    def to_rows(self, names: Sequence[str] | None = None) -> list[tuple[Any, ...]]:
        return list(self.rows(names))

    def to_dict(self) -> dict[str, list[Any]]:
        return {name: list(column.values) for name, column in self.columns.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Table(cols={list(self.columns)}, rows={self.row_count}, "
                f"props={self.props.describe()})")

    # ------------------------------------------------------------------ #
    # property helpers
    # ------------------------------------------------------------------ #
    def col_props(self, name: str) -> ColumnProps:
        return self.column(name).props

    def add_group_order(self, columns: Sequence[str], group: str) -> "Table":
        """Declare a ``grpord`` property (in place)."""
        self.props.group_orders = self.props.group_orders + (
            GroupOrder(tuple(columns), group),)
        return self

    def ordered_on(self, *columns: str) -> bool:
        return self.props.ordered_on(columns)

    # ------------------------------------------------------------------ #
    # structural helpers used by the operators
    # ------------------------------------------------------------------ #
    def take(self, positions: Sequence[int], *,
             keep_order: bool = False) -> "Table":
        """Row selection by position, applied to every column.

        ``keep_order=True`` asserts that ``positions`` is monotonically
        increasing, in which case the table ordering properties survive.
        """
        new_columns = [column.take(positions) for column in self.columns.values()]
        props = TableProps()
        if keep_order:
            props.order = tuple(self.props.order)
            props.group_orders = tuple(self.props.group_orders)
        return Table(new_columns, props=props)

    def head(self, count: int) -> "Table":
        """The first ``count`` rows (ordering preserved)."""
        return self.take(range(min(count, self.row_count)), keep_order=True)

    def describe(self) -> str:
        """Human readable schema + properties summary (for ``explain``)."""
        pieces = []
        for name, column in self.columns.items():
            pieces.append(f"{name}:{column.rep}[{column.props.describe()}]")
        return f"({', '.join(pieces)}) rows={self.row_count} {self.props.describe()}"
