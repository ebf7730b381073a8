"""XQuery item typing helpers: atomization, effective boolean value, casts.

The relational encoding stores polymorphic items (numbers, strings, booleans
and node surrogates) in a single ``item`` column.  These helpers implement
the slice of the XQuery data model the XMark workload needs:

* ``atomize`` — nodes become their (untyped-atomic) string value, atomic
  values pass through;
* ``effective_boolean_value`` — the rules of fn:boolean();
* ``to_number`` / ``to_string`` — the casts used by arithmetic, comparisons
  and string functions (untyped atomics are promoted to numbers when the
  other operand is numeric, as in the paper's general-comparison handling).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..errors import XQueryTypeError
from ..xml.document import NodeRef
from ..xml.serializer import special_double


#: the xs:double lexical forms of the special values (Python's own
#: spellings — "inf", "nan", "Infinity" — are not XQuery numerals)
_SPECIAL_DOUBLES = {"INF": math.inf, "+INF": math.inf, "-INF": -math.inf,
                    "NaN": math.nan}


def atomize(item: Any) -> Any:
    """Atomize one item: nodes yield their string value, atomics pass through."""
    if isinstance(item, NodeRef):
        return item.string_value()
    return item


def to_number(value: Any) -> float | int | None:
    """Cast a value to a number; returns ``None`` when the cast fails."""
    value = atomize(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return None
        special = _SPECIAL_DOUBLES.get(text)
        if special is not None:
            return special
        if "_" in text:  # Python digit grouping, not an XQuery numeral
            return None
        try:
            if any(ch in text for ch in ".eE"):
                return float(text)
            return int(text)
        except ValueError:
            return None
    return None


def to_string(value: Any) -> str:
    """The fn:string() cast."""
    value = atomize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return special_double(value)
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def effective_boolean_value(items: Sequence[Any]) -> bool:
    """fn:boolean() over an item sequence."""
    if not items:
        return False
    first = items[0]
    if isinstance(first, NodeRef):
        return True
    if len(items) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return bool(first) and not (isinstance(first, float) and math.isnan(first))
    if isinstance(first, str):
        return len(first) > 0
    return True
