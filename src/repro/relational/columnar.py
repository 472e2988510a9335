"""Dictionary-encoded columnar execution backend.

The row store (:class:`~repro.relational.relation.Relation`) keeps tuples,
which is what the paper's formalism talks about — but every hot query in
this library (σ partitioning, GROUP BY detection, hash joins) only compares
values for *equality*.  A dictionary-encoded column replaces each value by a
small integer code, after which those comparisons become integer
comparisons over contiguous code arrays, and repeated group-bys over the
same attributes become free: the grouping is computed once and cached.

Three views are built lazily, per relation, and cached on the relation
itself (relations are treated as immutable values throughout the library,
so the caches never need invalidation):

* :class:`Column` — one attribute as ``codes`` (row -> int code), ``values``
  (code -> value) and ``code_of`` (value -> code);
* :class:`KeyColumn` — the composite over an attribute *list*: ``codes``
  assigns every row the ordinal of its distinct value combination, and
  ``values`` decodes an ordinal back to the value tuple.  This is the
  dictionary-encoded form of a GROUP BY key;
* ``group_index`` — the classic hash index (value tuple -> row ids),
  derived from a :class:`KeyColumn`; :class:`~repro.relational.index.HashIndex`,
  :meth:`Relation.group_by` and :meth:`Relation.join` all share it.

Codes are stored twice, as plain lists (CPython indexes lists faster than
it unboxes array elements, so the per-row loops of the delta engine, the
group indexes and the distributed scans read those) and as cached
``int32`` numpy arrays, which the fused detection engine's vectorized
folds (:mod:`repro.core.fused`) consume through
:meth:`Column.codes_array` / :meth:`KeyColumn.codes_array`.

Every column is encoded by one dictionary loop, whatever its type: with
CPython's cached hashes it beats a sort-based ``np.unique`` even on
numeric columns, and it numbers values by first appearance with the
dict's own equality (``1 == 1.0 == True`` conflate, a NaN object keys by
identity).  Composite keys combine the per-attribute code arrays instead
of hashing row tuples: attributes fold into a dense first-seen table of
``groups × n_distinct`` cells while it stays small next to the row count,
and whatever remains packs mixed-radix into one int64 for a single
``np.unique``.  Both steps renumber groups by first appearance, so the
result is the hash loop's encoding bit for bit; the vectorized combine
kicks in at :data:`VECTORIZE_MIN_ROWS` rows, below which the hash loop
wins on constant factors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

#: below this many rows the hash loop beats the vectorized composite-key
#: combine on constant factors; tests force the vectorized path by patching
#: this to 0.
VECTORIZE_MIN_ROWS = 256

#: a composite key folds attributes into a dense first-seen table while the
#: table has at most this many cells per row; past that, one ``np.unique``
_DENSE_CELLS_PER_ROW = 8


def _int32(codes: list[int]):
    return _np.fromiter(codes, dtype=_np.int32, count=len(codes))


def _first_seen(packed, size: int):
    """Renumber ``packed``, an int array over ``range(size)``, by first
    appearance — the dictionary encoder's order — without sorting.

    Returns ``(codes, firsts)``: ``codes[i]`` is row ``i``'s group ordinal
    and ``firsts`` holds each group's first row, in row order.
    """
    n = len(packed)
    first = _np.full(size, n, dtype=_np.int64)
    _np.minimum.at(first, packed, _np.arange(n, dtype=_np.int64))
    seen = _np.zeros(n + 1, dtype=bool)
    seen[first] = True  # absent cells land on the sentinel slot n
    firsts = _np.flatnonzero(seen[:n])
    first[packed[firsts]] = _np.arange(len(firsts))  # cell -> group ordinal
    return first[packed], firsts


class Column:
    """One attribute of a relation, dictionary-encoded.

    ``codes[i]`` is the code of row ``i``'s value; ``values[c]`` decodes a
    code; ``code_of[v]`` encodes a value (absent values of the domain are
    simply missing — a probe with ``code_of.get`` answers "does any row
    carry this constant?" in O(1)).
    """

    __slots__ = ("attribute", "codes", "values", "code_of", "_codes_np")

    def __init__(
        self,
        attribute: str,
        codes: list[int],
        values: list[object],
        code_of: dict[object, int],
    ) -> None:
        self.attribute = attribute
        self.codes = codes
        self.values = values
        self.code_of = code_of
        self._codes_np = None

    @property
    def n_distinct(self) -> int:
        return len(self.values)

    def codes_array(self):
        """The codes as an ``int32`` ndarray, converted from the list on
        first use and cached.  The two views describe the same encoding."""
        if self._codes_np is None:
            self._codes_np = _int32(self.codes)
        return self._codes_np

    def __repr__(self) -> str:
        return (
            f"Column({self.attribute!r}, {len(self.codes)} rows, "
            f"{len(self.values)} distinct)"
        )


class KeyColumn:
    """A composite (multi-attribute) dictionary-encoded column.

    ``codes[i]`` is the ordinal of row ``i``'s distinct value *combination*
    over ``attributes``; ``values[g]`` is that combination as a tuple, in
    first-seen order.  Equal to the grouping a hash GROUP BY would compute,
    in a form that downstream passes can consume with two list lookups per
    row.
    """

    __slots__ = ("attributes", "codes", "values", "_codes_np")

    def __init__(
        self,
        attributes: tuple[str, ...],
        codes: list[int],
        values: list[tuple],
        codes_np=None,
    ) -> None:
        self.attributes = attributes
        self.codes = codes
        self.values = values
        self._codes_np = codes_np

    @property
    def n_groups(self) -> int:
        return len(self.values)

    def codes_array(self):
        """The group ordinals as a cached ``int32`` ndarray (see
        :meth:`Column.codes_array`)."""
        if self._codes_np is None:
            self._codes_np = _int32(self.codes)
        return self._codes_np

    def __repr__(self) -> str:
        return (
            f"KeyColumn({list(self.attributes)}, {len(self.codes)} rows, "
            f"{len(self.values)} groups)"
        )


class ColumnStore:
    """Lazily built, cached columnar views of one (immutable) relation.

    Obtain through :func:`column_store`, which hangs the store off the
    relation so every consumer — the fused detector, ``HashIndex``,
    ``group_by``, ``join`` — shares one set of columns and group indexes.
    """

    __slots__ = (
        "schema",
        "rows",
        "_columns",
        "_key_columns",
        "_group_indexes",
        "scratch",
    )

    def __init__(self, relation) -> None:
        self.schema = relation.schema
        self.rows = relation.rows
        self._columns: dict[str, Column] = {}
        self._key_columns: dict[tuple[str, ...], KeyColumn] = {}
        self._group_indexes: dict[tuple[str, ...], dict[tuple, list[int]]] = {}
        #: free-form memo space for engines that adapt to reuse (e.g. the
        #: vectorized folds switch key-collection strategy on repeat runs)
        self.scratch: dict = {}

    # -- per-attribute columns -------------------------------------------

    def column(self, attribute: str) -> Column:
        """The dictionary-encoded column of ``attribute`` (cached)."""
        cached = self._columns.get(attribute)
        if cached is not None:
            return cached
        position = self.schema.position(attribute)
        codes: list[int] = []
        values: list[object] = []
        code_of: dict[object, int] = {}
        append = codes.append
        get = code_of.get
        for row in self.rows:
            value = row[position]
            code = get(value)
            if code is None:
                code = len(values)
                code_of[value] = code
                values.append(value)
            append(code)
        column = Column(attribute, codes, values, code_of)
        self._columns[attribute] = column
        return column

    # -- composite key columns -------------------------------------------

    def key_column(self, attributes: Sequence[str]) -> KeyColumn:
        """The composite column over ``attributes`` (cached per tuple)."""
        attributes = tuple(attributes)
        cached = self._key_columns.get(attributes)
        if cached is not None:
            return cached
        if not attributes:
            # degenerate GROUP BY (): every row in the single empty group
            key = KeyColumn(attributes, [0] * len(self.rows), [()])
            self._key_columns[attributes] = key
            return key
        if len(attributes) == 1:
            # reuse the per-attribute codes; only the decode side is new
            column = self.column(attributes[0])
            key = KeyColumn(
                attributes,
                column.codes,
                list(zip(column.values)),
                column.codes_array(),
            )
            self._key_columns[attributes] = key
            return key
        columns = [self.column(a) for a in attributes]
        if len(self.rows) >= VECTORIZE_MIN_ROWS:
            key = self._key_column_numpy(attributes, columns)
            if key is not None:
                self._key_columns[attributes] = key
                return key
        code_arrays = [column.codes for column in columns]
        value_arrays = [column.values for column in columns]
        codes: list[int] = []
        values: list[tuple] = []
        index: dict[tuple, int] = {}
        append = codes.append
        get = index.get
        for combo in zip(*code_arrays):
            group = get(combo)
            if group is None:
                group = len(values)
                index[combo] = group
                values.append(
                    tuple(decode[c] for decode, c in zip(value_arrays, combo))
                )
            append(group)
        key = KeyColumn(attributes, codes, values)
        self._key_columns[attributes] = key
        return key

    def _key_column_numpy(
        self, attributes: tuple[str, ...], columns: list[Column]
    ) -> KeyColumn | None:
        """Vectorized composite encoding over the per-attribute codes.

        Attributes fold one at a time into a dense table of the
        ``groups × n_distinct`` cells, renumbered by first appearance, while
        that table stays within :data:`_DENSE_CELLS_PER_ROW` cells per row.
        The remaining attributes pack mixed-radix into one int64, grouped
        by a single ``np.unique`` and renumbered the same way.  Returns
        ``None`` when the packed key could overflow int64 — the hash loop
        handles that (rare, very-high-cardinality) case.
        """
        n = len(self.rows)
        combined = columns[0].codes_array().astype(_np.int64)
        groups = columns[0].n_distinct
        dense = 1
        for column in columns[1:]:
            width = column.n_distinct
            if groups * width > _DENSE_CELLS_PER_ROW * n:
                break
            packed = combined * width + column.codes_array()
            combined, firsts = _first_seen(packed, groups * width)
            groups = len(firsts)
            dense += 1
        rest = columns[dense:]
        if rest:
            capacity = groups
            for column in rest:
                capacity *= column.n_distinct
                if capacity > 2 ** 62:
                    return None
            for column in rest:
                combined = combined * column.n_distinct + column.codes_array()
            distinct, inverse = _np.unique(combined, return_inverse=True)
            combined, firsts = _first_seen(inverse, len(distinct))
        codes_arr = combined.astype(_np.int32)
        # decode each group from its first occurrence's per-attribute codes
        decoded = []
        for column in columns:
            codes = column.codes_array()[firsts].tolist()
            decoded.append(map(column.values.__getitem__, codes))
        values = list(zip(*decoded))
        return KeyColumn(attributes, codes_arr.tolist(), values, codes_arr)

    # -- hash group index -------------------------------------------------

    def group_index(self, attributes: Sequence[str]) -> dict[tuple, list[int]]:
        """Value tuple -> row ids, in first-seen order (cached per tuple).

        The shared backing of ``HashIndex``, ``Relation.group_by`` and the
        build side of ``Relation.join``.  Callers must not mutate the
        returned dict or its lists.
        """
        attributes = tuple(attributes)
        cached = self._group_indexes.get(attributes)
        if cached is not None:
            return cached
        key = self.key_column(attributes)
        buckets: list[list[int]] = [[] for _ in key.values]
        for i, group in enumerate(key.codes):
            buckets[group].append(i)
        # skip empty buckets: the one a GROUP BY () over zero rows
        # yields, since every other group is coded from a row of its own
        index = {key.values[g]: ids for g, ids in enumerate(buckets) if ids}
        self._group_indexes[attributes] = index
        return index

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self.schema.name!r}, {len(self.rows)} rows, "
            f"{len(self._columns)} columns built)"
        )


def column_store(relation) -> ColumnStore:
    """The relation's cached :class:`ColumnStore`, built on first use.

    The store is stowed in the relation's ``_colstore`` slot; objects
    without that slot (duck-typed relation stand-ins) still work, they just
    rebuild per call.
    """
    store = getattr(relation, "_colstore", None)
    if store is None:
        store = ColumnStore(relation)
        try:
            relation._colstore = store
        except AttributeError:  # no slot on a relation-like stand-in
            pass
    return store
