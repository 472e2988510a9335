"""In-memory relations and relational operators.

This is the local "DBMS" each simulated site runs.  It provides exactly the
operators the paper's detection machinery needs: selection, projection
(with or without duplicate elimination), key-based natural join (used to
reconstruct vertically partitioned relations), union, and hash group-by
(the engine behind the SQL GROUP BY detection technique of [2]).

Rows are plain tuples positioned according to ``relation.schema.attributes``.
Because relations are immutable values, each one lazily grows a cached
columnar view (:mod:`repro.relational.columnar`) that ``group_by``,
``join`` and :class:`~repro.relational.index.HashIndex` share, so repeated
hashing of the same attribute combinations is paid once per relation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .schema import Schema, SchemaError


def _sort_key(value: object) -> tuple:
    """A total order over mixed-type values: numbers first, numerically."""
    if isinstance(value, (int, float)):
        return (0, "", value)
    if isinstance(value, str):
        return (1, "str", value)
    return (1, type(value).__name__, str(value))


class Relation:
    """A bag of tuples under a :class:`Schema` — the unit every detector eats.

    Rows are plain tuples positioned by ``schema.attributes``.  Relations
    are treated as **immutable values** throughout the library; that
    contract is what lets each relation lazily grow a cached columnar view
    (:func:`repro.relational.column_store`) that ``group_by``, ``join``,
    ``HashIndex``, the fused detection engines and the distributed
    detectors' σ scans all share without invalidation.

    The constructor validates and copies ``rows`` by default; pass
    ``copy=False`` for rows you own and will not mutate (the operators
    below do this for their freshly-built row lists).
    """

    __slots__ = ("schema", "rows", "_colstore")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[object]] = (),
        copy: bool = True,
    ) -> None:
        self.schema = schema
        if copy:
            width = len(schema)
            prepared = []
            for row in rows:
                row = tuple(row)
                if len(row) != width:
                    raise SchemaError(
                        f"row of width {len(row)} does not fit schema "
                        f"{schema.name!r} of width {width}: {row!r}"
                    )
                prepared.append(row)
            self.rows = prepared
        else:
            self.rows = list(rows)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dicts(
        cls, schema: Schema, records: Iterable[Mapping[str, object]]
    ) -> "Relation":
        """Build a relation from attribute-name to value mappings."""
        attrs = schema.attributes
        return cls(schema, (tuple(rec[a] for a in attrs) for rec in records), copy=False)

    def to_dicts(self) -> list[dict[str, object]]:
        """Return rows as attribute-name to value dictionaries."""
        attrs = self.schema.attributes
        return [dict(zip(attrs, row)) for row in self.rows]

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def value(self, row: Sequence[object], attribute: str) -> object:
        """Value of ``attribute`` in ``row``."""
        return row[self.schema.position(attribute)]

    def distinct(self) -> "Relation":
        """Duplicate-eliminated copy (preserves first-seen order)."""
        return Relation(self.schema, dict.fromkeys(self.rows), copy=False)

    # -- operators -------------------------------------------------------

    def select(self, predicate: Callable[[tuple, Schema], bool]) -> "Relation":
        """``σ_predicate``: rows for which ``predicate(row, schema)`` holds.

        Accepts either a :class:`repro.relational.predicate.Predicate` or any
        callable of ``(row, schema)``.
        """
        evaluate = getattr(predicate, "evaluate", predicate)
        schema = self.schema
        return Relation(
            schema, (row for row in self.rows if evaluate(row, schema)), copy=False
        )

    def project(
        self,
        attributes: Sequence[str],
        dedupe: bool = False,
        name: str | None = None,
    ) -> "Relation":
        """``π_attributes``; set semantics when ``dedupe`` is true."""
        positions = self.schema.positions(attributes)
        # one C-level zip over per-attribute columns (a schema rejects π_())
        rows: Iterable[tuple] = zip(*(map(itemgetter(p), self.rows) for p in positions))
        if dedupe:
            rows = dict.fromkeys(rows)
        return Relation(self.schema.project(attributes, name=name), rows, copy=False)

    def union(self, other: "Relation") -> "Relation":
        """Bag union of two relations over the same attribute list."""
        if other.schema.attributes != self.schema.attributes:
            raise SchemaError(
                f"union over different attribute lists: "
                f"{self.schema.attributes} vs {other.schema.attributes}"
            )
        return Relation(self.schema, self.rows + other.rows, copy=False)

    def join(self, other: "Relation", on: Sequence[str] | None = None) -> "Relation":
        """Natural join on ``on`` (defaults to this relation's key).

        Used to reconstruct a vertically partitioned relation
        (``D = ⋈ D_i`` on ``key(R)``).  The result schema carries this
        relation's attributes followed by the other's non-join attributes.
        """
        if on is None:
            on = self.schema.key
        on = tuple(on)
        left_pos = self.schema.positions(on)
        right_pos = other.schema.positions(on)
        right_rest = [a for a in other.schema.attributes if a not in on]
        right_rest_pos = other.schema.positions(right_rest)

        overlap = set(right_rest) & set(self.schema.attributes)
        if overlap:
            raise SchemaError(
                f"join would duplicate non-join attributes {sorted(overlap)}"
            )

        from .columnar import column_store

        # build side: the other relation's cached group index on the join key
        index = column_store(other).group_index(on)
        other_rows = other.rows

        out_schema = Schema(
            f"{self.schema.name}⋈{other.schema.name}",
            self.schema.attributes + tuple(right_rest),
            key=self.schema.key,
        )
        out_rows = []
        for row in self.rows:
            ids = index.get(tuple(row[p] for p in left_pos))
            if ids:
                for i in ids:
                    match = other_rows[i]
                    out_rows.append(row + tuple(match[p] for p in right_rest_pos))
        return Relation(out_schema, out_rows, copy=False)

    def group_by(self, attributes: Sequence[str]) -> dict[tuple, list[tuple]]:
        """Hash group-by: grouping-key tuple -> rows in first-seen order.

        Backed by the relation's cached columnar group index, so grouping
        by the same attributes twice hashes the rows only once.
        """
        from .columnar import column_store

        index = column_store(self).group_index(tuple(attributes))
        rows = self.rows
        return {key: [rows[i] for i in ids] for key, ids in index.items()}

    # -- updates -----------------------------------------------------------

    def insert(self, rows: Iterable[Sequence[object]]) -> "Relation":
        """A new relation with ``rows`` appended (validated like the
        constructor).  Relations stay immutable values, so this copies the
        row list; an empty batch returns ``self``."""
        added = Relation(self.schema, rows).rows
        if not added:
            return self
        return Relation(self.schema, self.rows + added, copy=False)

    def delete(self, keys_or_predicate) -> "Relation":
        """A new relation without the matching rows.

        ``keys_or_predicate`` is an iterable of key values (projections on
        ``schema.key``; bare values accepted for single-attribute keys) or
        any predicate callable of ``(row, schema)``.  Every row carrying a
        listed key goes (bag semantics: duplicates go together); unknown
        keys are no-ops; a wrong-width key raises :class:`SchemaError`.
        An empty key batch returns ``self``.
        """
        if callable(keys_or_predicate) or hasattr(keys_or_predicate, "evaluate"):
            evaluate = getattr(keys_or_predicate, "evaluate", keys_or_predicate)
            return self.select(lambda row, schema: not evaluate(row, schema))
        schema = self.schema
        key_pos = schema.key_positions()
        doomed = set()
        for key in keys_or_predicate:
            if not isinstance(key, tuple):
                key = (key,)
            if len(key) != len(key_pos):
                raise SchemaError(
                    f"key {key!r} does not fit key attributes {schema.key}"
                )
            # itemgetter's shape: a bare value for a one-attribute key
            doomed.add(key if len(key) > 1 else key[0])
        if not doomed:
            return self
        key_of = itemgetter(*key_pos)
        return Relation(
            schema,
            [row for row in self.rows if key_of(row) not in doomed],
            copy=False,
        )

    def sorted_by(self, attributes: Sequence[str]) -> "Relation":
        """Rows sorted lexicographically by ``attributes``, type-aware.

        Numeric values order numerically (and before non-numeric ones);
        other values order by type name then string form, so mixed-type
        columns still get a stable total order without ``1, 10, 2``-style
        stringified misordering.
        """
        positions = self.schema.positions(attributes)
        keyed = sorted(
            self.rows,
            key=lambda row: tuple(_sort_key(row[p]) for p in positions),
        )
        return Relation(self.schema, keyed, copy=False)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and sorted(
            map(repr, self.rows)
        ) == sorted(map(repr, other.rows))

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self.rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small aligned text rendering (for examples and debugging)."""
        attrs = self.schema.attributes
        shown = self.rows[:limit]
        cells = [list(map(str, attrs))] + [[str(v) for v in row] for row in shown]
        widths = [max(len(r[i]) for r in cells) for i in range(len(attrs))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells
        ]
        lines.insert(1, "  ".join("-" * w for w in widths))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
