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
:meth:`Column.codes_array` / :meth:`KeyColumn.codes_array`.  numpy also
speeds up the encoding pass itself:

* ``np.unique(..., return_inverse=True)`` replaces the per-row dictionary
  probe for numeric columns, with the sorted codes remapped so the
  first-seen-order contract of the dictionary encoder is preserved
  bit-for-bit (string, mixed and NaN-carrying columns keep the dictionary
  loop, which beats a wide-element sort there);
* composite keys combine the per-attribute code arrays arithmetically in
  one int64 mixed-radix pass instead of hashing row tuples.

Both encoders produce the same encoding.  The vectorized one kicks in at
:data:`VECTORIZE_MIN_ROWS` rows; below that the dictionary loop wins on
constant factors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

#: below this many rows the dictionary loop beats ``np.unique`` on constant
#: factors; tests force the vectorized path by patching this to 0.
VECTORIZE_MIN_ROWS = 256


def _first_seen_remap(sorted_values, first_index, inverse):
    """Remap ``np.unique`` output from sorted order to first-seen order.

    Returns ``(codes, decode)`` where ``codes[i]`` numbers distinct values
    by first appearance — the contract of the dictionary encoder — and
    ``decode`` lists the (still numpy-boxed) values in that order.
    """
    order = _np.argsort(first_index)  # sorted ordinal -> first-seen position
    rank = _np.empty(len(order), dtype=_np.int64)
    rank[order] = _np.arange(len(order), dtype=_np.int64)
    return rank[inverse].astype(_np.int32), sorted_values[order]


def _encode_values_numpy(raw: list):
    """Vectorized dictionary encoding of one *numeric* attribute, or ``None``.

    Only numeric columns take this path; everything else — strings, whose
    cached hashes make the dictionary loop faster than a wide-element sort
    anyway; mixed columns, which ``np.asarray`` would silently stringify;
    arbitrary objects; int64-overflowing integers — falls back (returns
    ``None``).  A float result additionally must survive a value-exact
    round trip: an int/float mix upcasts to float64, where ints beyond
    2**53 collapse onto the same float and NaNs (which a Python dict keys
    by identity) compare unequal to themselves — either would silently
    diverge from the dictionary backend, and the two must agree
    bit-for-bit.  Benign conflations (1 / 1.0 / True) round-trip as equal,
    exactly as a dict conflates those keys.
    """
    try:
        arr = _np.asarray(raw)
    except (OverflowError, ValueError):  # ints beyond int64, odd shapes
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "biuf":
        return None
    if arr.dtype.kind == "f" and arr.tolist() != raw:
        return None
    sorted_values, first_index, inverse = _np.unique(
        arr, return_index=True, return_inverse=True
    )
    codes_arr, decode = _first_seen_remap(sorted_values, first_index, inverse)
    values = decode.tolist()  # unbox to plain Python values
    code_of = {value: code for code, value in enumerate(values)}
    return codes_arr.tolist(), values, code_of, codes_arr


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
        codes_np=None,
    ) -> None:
        self.attribute = attribute
        self.codes = codes
        self.values = values
        self.code_of = code_of
        self._codes_np = codes_np

    @property
    def n_distinct(self) -> int:
        return len(self.values)

    def codes_array(self):
        """The codes as a cached ``int32`` ndarray.

        Built natively by the vectorized encoder; otherwise converted from
        the list on first use.  The two views describe the same encoding.
        """
        if self._codes_np is None:
            self._codes_np = _np.asarray(self.codes, dtype=_np.int32)
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
            self._codes_np = _np.asarray(self.codes, dtype=_np.int32)
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
        if (
            self.rows
            and len(self.rows) >= VECTORIZE_MIN_ROWS
            # cheap prefilter on the first value: a string/object column
            # would only be rejected by the encoder after a throwaway
            # wide-dtype array conversion (full checks still run inside)
            and isinstance(self.rows[0][position], (bool, int, float))
        ):
            raw = [row[position] for row in self.rows]
            encoded = _encode_values_numpy(raw)
            if encoded is not None:
                codes, values, code_of, codes_arr = encoded
                column = Column(attribute, codes, values, code_of, codes_arr)
                self._columns[attribute] = column
                return column
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
                [(v,) for v in column.values],
                column._codes_np,
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
        """Vectorized composite encoding: one mixed-radix int64 pass.

        Each row's combination is packed into a single int64 (per-attribute
        code weighted by the later attributes' alphabet sizes), grouped
        with one ``np.unique`` and remapped to first-seen order.  Returns
        ``None`` when the packed key could overflow int64 — the hash loop
        handles that (rare, very-high-cardinality) case.
        """
        capacity = 1
        for column in columns:
            capacity *= max(column.n_distinct, 1)
            if capacity > 2 ** 62:
                return None
        combined = columns[0].codes_array().astype(_np.int64)
        for column in columns[1:]:
            combined = combined * max(column.n_distinct, 1) + column.codes_array()
        sorted_keys, first_index, inverse = _np.unique(
            combined, return_index=True, return_inverse=True
        )
        codes_arr, _ = _first_seen_remap(sorted_keys, first_index, inverse)
        # decode each group from its first occurrence's per-attribute codes
        firsts = _np.sort(first_index).tolist()
        code_lists = [column.codes for column in columns]
        value_lists = [column.values for column in columns]
        values = [
            tuple(vl[cl[i]] for vl, cl in zip(value_lists, code_lists))
            for i in firsts
        ]
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
