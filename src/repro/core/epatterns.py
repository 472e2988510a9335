"""Extended pattern entries: the eCFD extension ([17], Bravo et al., ICDE'08).

The paper's related work notes that the SQL detection technique
"generalizes to detect violations of eCFDs, an extension of CFDs by
supporting disjunctions and negations".  This module adds those entry
types to pattern tuples:

* :class:`OneOf` — a disjunction ``A ∈ {a1, ..., ak}``;
* :class:`NotValue` — a negation ``A ≠ a``;
* :class:`Range` — an order constraint ``A < a``, ``A ≤ a``, ``A > a``,
  ``A ≥ a`` (a convenience the eCFD encoding subsumes on ordered domains).

An entry of any of these types may appear wherever a constant may: on the
LHS it restricts which tuples a pattern applies to; on the RHS it is a
single-tuple constraint like a constant (``t[Y] ≍ tp[Y]`` becomes "the
value satisfies the predicate").  The detection algorithms of Section IV
carry over unchanged — only the match operator and the σ index generalize
(tuples with predicate entries are probed linearly, constants stay hashed).

The implication chase of Section V does **not** support predicate entries
(eCFD implication has its own complexity story [17]); it raises
``NotImplementedError`` when it meets one.
"""

from __future__ import annotations

from typing import Iterable


class PatternPredicate:
    """Base class for non-constant, non-wildcard pattern entries."""

    def matches(self, value: object) -> bool:
        raise NotImplementedError


class OneOf(PatternPredicate):
    """Disjunction: the attribute takes one of the listed values."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[object]) -> None:
        self.values = frozenset(values)
        if not self.values:
            raise ValueError("OneOf needs at least one value")

    def matches(self, value: object) -> bool:
        return value in self.values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OneOf) and self.values == other.values

    def __hash__(self) -> int:
        return hash(("oneof", self.values))

    def __repr__(self) -> str:
        return "{" + "|".join(sorted(map(repr, self.values))) + "}"


class NotValue(PatternPredicate):
    """Negation: the attribute differs from the value."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def matches(self, value: object) -> bool:
        return value != self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NotValue) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("notvalue", self.value))

    def __repr__(self) -> str:
        return f"!{self.value!r}"


_RANGE_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Range(PatternPredicate):
    """Order constraint against a bound (incomparable values never match)."""

    __slots__ = ("op", "bound")

    def __init__(self, op: str, bound: object) -> None:
        if op not in _RANGE_OPS:
            raise ValueError(f"unknown range operator {op!r}")
        self.op = op
        self.bound = bound

    def matches(self, value: object) -> bool:
        try:
            return _RANGE_OPS[self.op](value, self.bound)
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Range)
            and self.op == other.op
            and self.bound == other.bound
        )

    def __hash__(self) -> int:
        return hash(("range", self.op, self.bound))

    def __repr__(self) -> str:
        return f"{self.op}{self.bound!r}"


def is_predicate(entry: object) -> bool:
    """Whether a pattern entry is an extended (eCFD) predicate."""
    return isinstance(entry, PatternPredicate)
