"""Delta relations: O(|ΔD|)-ish insert/delete over the immutable Relation.

Relations are immutable values — that contract is what lets every layer
above them cache encodings without invalidation.  Updates therefore do not
mutate: :meth:`Relation.insert` and :meth:`Relation.delete` (implemented
here) return a **new** relation that *remembers its lineage* — the parent
version plus the inserted/deleted rows — and shares the parent's columnar
state structurally instead of re-encoding from scratch:

* **Inserts** extend each of the parent's dictionary-encoded columns by
  *appending*: existing values keep their codes (one ``code_of`` probe per
  new cell), new values get the next code exactly as the first-seen
  encoder would assign it, so a derived column is bit-identical to a fresh
  encode of the child's rows.  Composite :class:`KeyColumn` views extend
  the same way through a rebuilt combo index (O(groups), not O(rows)).
* **Deletes** keep a **tombstone mask** over the parent's rows.  Column
  codes are filtered through the mask (one vectorized gather); the value
  dictionaries are shared as-is — a value whose last row died stays in
  the dictionary as a harmless stale entry (codes never reference it, and
  every consumer treats ``values`` as decode-only).
  Composite key columns *are* compacted (surviving groups renumbered in
  first-seen order) because group ordinals feed group indexes and σ
  partitions, where phantom empty groups would be observable.
* **Cluster codes stay stable**: a derived store built against a
  :class:`~repro.relational.shareddict.SharedDictionary` interns new
  values into the cluster's append-only global tables, so a code obtained
  before an update decodes to the same value after it — the invariant the
  incremental distributed detectors (:mod:`repro.detect.incremental`)
  rely on to ship only coded deltas.

Derivation is **lazy**: the child's :class:`DerivedColumnStore` derives a
column only when (and if) someone asks for it, and only when the parent
(or an ancestor along the delta chain) already built that column;
otherwise it falls back to a plain fresh build.  Applying an update
therefore costs O(|ΔD|) plus one pointer-level copy of the row list —
re-encoding, re-hashing and re-grouping are only ever paid for the
columns a consumer actually touches.

``REPRO_INCREMENTAL=0`` disables structural sharing (every insert/delete
still returns a correct delta relation, but with cold caches).
"""

from __future__ import annotations

import operator
import os
from typing import Callable, Iterable, Sequence

import numpy as _np

from .columnar import Column, ColumnStore, KeyColumn
from .relation import Relation
from .schema import SchemaError


def incremental_enabled() -> bool:
    """Whether delta relations derive their stores structurally.

    ``REPRO_INCREMENTAL=0`` opts out (children rebuild caches from
    scratch); any other value — including unset — leaves sharing on.
    """
    return os.environ.get("REPRO_INCREMENTAL", "1") != "0"


class DeltaRelation(Relation):
    """A relation version produced by :meth:`Relation.insert` / ``delete``.

    Behaves exactly like a plain :class:`Relation` (every operator and
    engine works unchanged); additionally carries its **provenance**:

    ``delta_parent``
        the version this one was derived from;
    ``delta_inserted`` / ``delta_deleted``
        the rows added / removed by this step (exactly one of the two is
        non-empty — each update step is a pure insert or a pure delete);
    ``delta_doomed``
        for deletes, the tombstone mask over the parent's rows (``True``
        = deleted), which derived stores filter codes through.

    :class:`~repro.core.incremental.IncrementalDetector` consumes the
    provenance to re-fold only the delta.
    """

    __slots__ = ("delta_parent", "delta_inserted", "delta_deleted", "delta_doomed")

    def __init__(
        self,
        parent: Relation,
        rows: list,
        inserted: tuple = (),
        deleted: tuple = (),
        doomed: list | None = None,
    ) -> None:
        # rows is a freshly built list this relation owns; assigning it
        # directly (instead of Relation.__init__'s defensive list()) keeps
        # the per-update cost at one row-list construction, not two
        self.schema = parent.schema
        self.rows = rows
        self.delta_parent = parent
        self.delta_inserted = inserted
        self.delta_deleted = deleted
        self.delta_doomed = doomed
        if incremental_enabled():
            parent_store = getattr(parent, "_colstore", None)
            if parent_store is not None:
                self._colstore = DerivedColumnStore(
                    self, parent_store, inserted=inserted, doomed=doomed
                )


def insert_rows(parent: Relation, rows: Iterable[Sequence[object]]) -> Relation:
    """``D ∪ ΔD⁺``: a new version with ``rows`` appended (validated).

    An empty batch is a no-op and returns ``parent`` itself — no
    :class:`DeltaRelation`, no row-list copy, nothing for a session to
    fold.
    """
    width = len(parent.schema)
    inserted = []
    for row in rows:
        row = tuple(row)
        if len(row) != width:
            raise SchemaError(
                f"row of width {len(row)} does not fit schema "
                f"{parent.schema.name!r} of width {width}: {row!r}"
            )
        inserted.append(row)
    if not inserted:
        return parent
    return DeltaRelation(
        parent, parent.rows + inserted, inserted=tuple(inserted)
    )


def delete_rows(
    parent: Relation,
    keys_or_predicate: Iterable | Callable,
) -> Relation:
    """``D ∖ ΔD⁻``: a new version with the matching rows tombstoned.

    ``keys_or_predicate`` is either a predicate — any callable of
    ``(row, schema)``, including :class:`~repro.relational.predicate.Predicate`
    — marking the rows to delete, or an iterable of key values: key-tuple
    projections onto ``schema.key`` (bare values accepted for
    single-attribute keys).  Every row carrying a listed key is removed
    (bag semantics: duplicates go together).  An *empty* key batch is a
    no-op and returns ``parent`` itself — no version, no row-list copy.
    """
    from itertools import compress

    schema = parent.schema
    rows = parent.rows
    evaluate = getattr(keys_or_predicate, "evaluate", None)
    if evaluate is None and callable(keys_or_predicate):
        evaluate = keys_or_predicate
    if evaluate is not None:
        doomed_mask = [bool(evaluate(row, schema)) for row in rows]
    else:
        key_pos = schema.key_positions()
        doomed = set()
        for key in keys_or_predicate:
            if not isinstance(key, tuple):
                key = (key,)
            if len(key) != len(key_pos):
                raise SchemaError(
                    f"key {key!r} does not fit key attributes {schema.key}"
                )
            doomed.add(key)
        if not doomed:
            return parent
        doomed_mask = _doomed_mask_for_keys(parent, key_pos, doomed)
    if isinstance(doomed_mask, _np.ndarray):
        # vectorized path: C-speed compress over the raw mask bytes
        deleted = tuple(compress(rows, doomed_mask.tobytes()))
        if not deleted:
            return DeltaRelation(parent, list(rows))
        kept_rows = list(compress(rows, (~doomed_mask).tobytes()))
        return DeltaRelation(
            parent,
            kept_rows,
            deleted=deleted,
            doomed=bytearray(doomed_mask.tobytes()),
        )
    deleted = tuple(compress(rows, doomed_mask))
    if not deleted:
        # nothing matched: an empty delta, no mask to filter through
        return DeltaRelation(parent, list(rows))
    kept_rows = list(compress(rows, map(operator.not_, doomed_mask)))
    return DeltaRelation(parent, kept_rows, deleted=deleted, doomed=doomed_mask)


def _doomed_mask_for_keys(parent: Relation, key_pos, doomed: set):
    """The tombstone mask (``True`` = deleted) of a delete-by-keys.

    Three tiers, fastest available wins: an existing key group index
    (O(|ΔD|) hash probes into a byte fill); the incrementally maintained
    key *array* (:func:`_key_array` — one vectorized ``np.isin``); and the
    scan fallback, run entirely through ``itemgetter`` /
    ``set.__contains__`` maps (bare values, not tuples, for
    single-attribute keys), so even that tier costs C-level per-row work.
    """
    rows = parent.rows
    store = getattr(parent, "_colstore", None)
    index = (
        store._group_indexes.get(parent.schema.key)
        if store is not None
        else None
    )
    if index is not None:
        mask = bytearray(len(rows))
        for key in doomed:
            for i in index.get(key, ()):
                mask[i] = 1
        return mask
    if len(key_pos) == 1:
        marked = {key[0] for key in doomed}
        keys_arr = _key_array(parent)
        if keys_arr is not None:
            mask = _isin_mask(keys_arr, marked)
            if mask is not None:
                return mask
        projected = map(operator.itemgetter(key_pos[0]), rows)
    else:
        marked = doomed
        projected = map(operator.itemgetter(*key_pos), rows)
    return list(map(marked.__contains__, projected))


def _isin_mask(keys_arr, marked: set):
    """``np.isin`` against the key array, or ``None`` when unsafe.

    Unsafe means the needles cannot be represented exactly in the array's
    dtype family — mixed kinds, NaNs (whose set semantics differ from
    array equality), overflowing ints — in which case the caller falls
    back to the set scan, which is always exact.
    """
    try:
        needles = _np.asarray(list(marked))
    except (OverflowError, ValueError):
        return None
    if needles.ndim != 1:
        return None
    kinds = (keys_arr.dtype.kind, needles.dtype.kind)
    if all(kind in "biu" for kind in kinds):
        pass
    elif kinds == ("U", "U"):
        pass
    elif all(kind in "biuf" for kind in kinds):
        floats = [a for a in (keys_arr, needles) if a.dtype.kind == "f"]
        if any(_np.isnan(a).any() for a in floats):
            return None
    else:
        return None
    return _np.isin(keys_arr, needles)


def _key_array(relation: Relation):
    """The (cached) single-attribute key column as a numpy array.

    Maintained *incrementally* along the delta chain: a child filters its
    parent's array through the tombstone mask or appends the inserted
    keys — O(|ΔD|) numpy work — so repeated delete-by-key batches never
    re-project the whole relation.  ``None`` (memoized as ``False`` in the
    store's scratch) when the key is composite or the key values do not
    round-trip through an array dtype exactly.
    """
    schema = relation.schema
    if len(schema.key) != 1:
        return None
    from .columnar import column_store

    store = column_store(relation)
    cached = store.scratch.get("delta_key_array")
    if cached is not None:
        return cached if cached is not False else None
    arr = None
    parent = getattr(relation, "delta_parent", None)
    if parent is not None and incremental_enabled():
        parent_arr = _key_array(parent)
        if parent_arr is not None:
            doomed = relation.delta_doomed
            if doomed is not None:
                arr = parent_arr[~_np.asarray(doomed, dtype=bool)]
            elif relation.delta_inserted:
                position = schema.key_positions()[0]
                fresh = [row[position] for row in relation.delta_inserted]
                try:
                    fresh_arr = _np.asarray(fresh)
                except (OverflowError, ValueError):
                    fresh_arr = None
                if (
                    fresh_arr is not None
                    and fresh_arr.ndim == 1
                    and _compatible_key_kinds(parent_arr, fresh_arr)
                ):
                    arr = _np.concatenate([parent_arr, fresh_arr])
            else:
                arr = parent_arr
    if arr is None and parent is None:
        arr = _fresh_key_array(relation)
    store.scratch["delta_key_array"] = arr if arr is not None else False
    return arr


def _compatible_key_kinds(left, right) -> bool:
    kinds = (left.dtype.kind, right.dtype.kind)
    if all(kind in "biu" for kind in kinds):
        return True
    if kinds == ("U", "U"):
        return True
    if all(kind in "biuf" for kind in kinds):
        return not any(
            a.dtype.kind == "f" and _np.isnan(a).any() for a in (left, right)
        )
    return False


def prune_delta_history(relation: Relation | None) -> None:
    """Sever a consumed version's provenance so ancestors can be freed.

    Every delta version holds its parent alive — its full row list plus
    derived store — so a long-lived incremental session that never drops
    provenance grows without bound (one O(|D|) row list per absorbed
    batch).  Once a consumer has folded a version's delta (the
    incremental detectors call this after every ``update``), the history
    serves no further purpose: this materializes the incrementally
    maintained key array first (so later delete-by-key batches keep their
    vectorized fast path), then cuts ``delta_parent``, the provenance
    rows, and the derived store's parent link.

    Only prune versions you own: a severed relation can no longer be
    ``apply``-ed to another detector, and columnar views not derived
    before the cut rebuild from scratch (correct, just cold).
    ``None`` and plain relations pass through untouched.
    """
    if not isinstance(relation, DeltaRelation):
        return
    if relation.delta_parent is None:
        return
    _key_array(relation)
    relation.delta_parent = None
    relation.delta_inserted = ()
    relation.delta_deleted = ()
    relation.delta_doomed = None
    store = getattr(relation, "_colstore", None)
    if isinstance(store, DerivedColumnStore):
        store._parent_store = None
        store._inserted = ()
        store._doomed = None


def _fresh_key_array(relation: Relation):
    """Project and validate the key column from scratch (paid once)."""
    position = relation.schema.key_positions()[0]
    raw = list(map(operator.itemgetter(position), relation.rows))
    try:
        arr = _np.asarray(raw)
    except (OverflowError, ValueError):
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "biufU":
        return None
    if arr.dtype.kind == "f" and (
        _np.isnan(arr).any() or arr.tolist() != raw
    ):
        return None
    return arr


class DerivedColumnStore(ColumnStore):
    """A child version's column store, derived lazily from the parent's.

    Each ``column()`` / ``key_column()`` request first checks whether the
    parent (or any ancestor along the delta chain) already built that
    view; if so the child's view is *derived* — codes appended for
    inserts, filtered through the tombstone mask for deletes — instead of
    re-encoded from the rows.  Views no ancestor has are built fresh, so
    the store is always complete and always bit-equivalent (for inserts)
    or value-equivalent (for deletes, which share dictionaries with
    possibly-stale entries) to a from-scratch build.
    """

    __slots__ = ("_parent_store", "_inserted", "_doomed", "_survivors_np")

    def __init__(
        self,
        relation,
        parent_store: ColumnStore,
        inserted: tuple = (),
        doomed: list | None = None,
        shared=None,
    ) -> None:
        super().__init__(relation, shared=shared)
        self._parent_store = parent_store
        self._inserted = inserted
        self._doomed = doomed
        self._survivors_np = None

    # -- chain probing ---------------------------------------------------

    def _ancestor_has(self, cache_name: str, key) -> bool:
        """Whether some store along the parent chain already built ``key``.

        The chain may have been severed by :func:`prune_delta_history`
        (``_parent_store`` set to ``None``), in which case nothing is
        derivable and requests fall back to fresh builds.
        """
        store = self._parent_store
        while store is not None:
            if key in getattr(store, cache_name):
                return True
            store = (
                store._parent_store
                if isinstance(store, DerivedColumnStore)
                else None
            )
        return False

    def _survivor_mask_np(self):
        if self._survivors_np is None:
            self._survivors_np = ~_np.asarray(self._doomed, dtype=bool)
        return self._survivors_np

    # -- per-attribute columns -------------------------------------------

    def column(self, attribute: str) -> Column:
        cached = self._columns.get(attribute)
        if cached is not None:
            return cached
        if not self._ancestor_has("_columns", attribute):
            return super().column(attribute)
        # materialize the parent's view (recursively derived if need be)
        parent = self._parent_store.column(attribute)
        if self._doomed is not None:
            column = self._derive_column_delete(parent, attribute)
        else:
            column = self._derive_column_insert(parent, attribute)
        self._columns[attribute] = column
        return column

    def _derive_column_insert(self, parent: Column, attribute: str) -> Column:
        position = self.schema.position(attribute)
        codes = list(parent.codes)
        if self.shared is not None:
            # cluster-aware: new values intern into the global append-only
            # table, so existing codes stay stable across the cluster
            table = self.shared.column(attribute)
            intern = table.intern
            appended = [intern(row[position]) for row in self._inserted]
            codes.extend(appended)
            return Column(attribute, codes, table.values, table.code_of)
        values, code_of = parent.values, parent.code_of
        copied = False
        appended: list[int] = []
        get = code_of.get
        for row in self._inserted:
            value = row[position]
            code = get(value)
            if code is None:
                if not copied:
                    # copy-on-write: the parent's dictionaries stay frozen
                    values = list(values)
                    code_of = dict(code_of)
                    get = code_of.get
                    copied = True
                code = len(values)
                code_of[value] = code
                values.append(value)
            appended.append(code)
        codes.extend(appended)
        codes_np = None
        if parent._codes_np is not None:
            codes_np = _np.concatenate(
                [parent._codes_np, _np.asarray(appended, dtype=_np.int32)]
            )
        return Column(attribute, codes, values, code_of, codes_np)

    def _derive_column_delete(self, parent: Column, attribute: str) -> Column:
        codes_np = parent.codes_array()[self._survivor_mask_np()]
        codes = codes_np.tolist()
        # dictionaries are shared as-is: values whose last row died remain
        # as stale decode entries, which every consumer tolerates (codes
        # never reference them; constant-form pruning just prunes less)
        return Column(attribute, codes, parent.values, parent.code_of, codes_np)

    # -- composite key columns -------------------------------------------

    def key_column(self, attributes: Sequence[str]) -> KeyColumn:
        attributes = tuple(attributes)
        cached = self._key_columns.get(attributes)
        if cached is not None:
            return cached
        if len(attributes) < 2 or not self._ancestor_has(
            "_key_columns", attributes
        ):
            # empty/single-attribute keys reuse the (derived) column path;
            # unknown composites build fresh
            return super().key_column(attributes)
        parent = self._parent_store.key_column(attributes)
        if self._doomed is not None:
            key = self._derive_key_delete(parent, attributes)
        else:
            key = self._derive_key_insert(parent, attributes)
        self._key_columns[attributes] = key
        return key

    def _derive_key_insert(
        self, parent: KeyColumn, attributes: tuple[str, ...]
    ) -> KeyColumn:
        positions = self.schema.positions(attributes)
        # O(groups) combo index rebuild, then one probe per inserted row —
        # first-seen ordinals extend exactly as a fresh hash build would
        index = {combo: g for g, combo in enumerate(parent.values)}
        values = parent.values
        copied = False
        codes = list(parent.codes)
        get = index.get
        for row in self._inserted:
            combo = tuple(row[p] for p in positions)
            group = get(combo)
            if group is None:
                if not copied:
                    values = list(values)
                    copied = True
                group = len(values)
                index[combo] = group
                values.append(combo)
            codes.append(group)
        return KeyColumn(attributes, codes, values)

    def _derive_key_delete(
        self, parent: KeyColumn, attributes: tuple[str, ...]
    ) -> KeyColumn:
        # compact: renumber surviving groups in (child) first-seen order so
        # no phantom empty group survives into group indexes or σ scans
        remap = [-1] * parent.n_groups
        values: list[tuple] = []
        codes: list[int] = []
        append = codes.append
        parent_values = parent.values
        for code, flag in zip(parent.codes, self._doomed):
            if flag:
                continue
            group = remap[code]
            if group < 0:
                group = len(values)
                remap[code] = group
                values.append(parent_values[code])
            append(group)
        return KeyColumn(attributes, codes, values)
