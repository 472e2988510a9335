"""A resident relation's rows, keyed: a DBMS-style heap plus primary index.

A session that absorbs insert/delete batches must not pay O(|D|) per
batch for the rows it keeps.  :class:`KeyedRows` maps each key projection
to its row — or to a list of rows, for bag duplicates — so a batch of
keys and rows moves O(|ΔD|) dictionary entries, with no row-list copy.
The centralized :class:`~repro.core.incremental.IncrementalDetector`
keeps one, every horizontal, CLUST and hybrid session keeps one per
place (site or region), and the vertical session one per fragment.

Batches are transactional: while one is open (:meth:`KeyedRows.begin`)
the first touch of each key journals its pre-batch entry, so
:meth:`KeyedRows.rollback` restores the exact pre-batch rows in
O(|touched keys|).  :attr:`KeyedRows.relation` is a lazily materialized
:class:`~repro.relational.relation.Relation` snapshot, cached until a
batch changes a row and reinstated — the same object — by a rollback.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .relation import Relation
from .schema import SchemaError


def _is_predicate(deleted) -> bool:
    """Whether ``deleted`` is a predicate (the :meth:`Relation.delete`
    contract: any callable of ``(row, schema)``) rather than keys."""
    return callable(deleted) or hasattr(deleted, "evaluate")


class KeyedRows:
    """Mutable resident rows of one relation, keyed by key projection.

    Keys are *raw* for single-attribute keys (the bare value, no 1-tuple)
    and tuples otherwise.  Deletes follow :meth:`Relation.delete`: every
    row carrying a listed key goes, unknown keys are no-ops, a predicate
    removes exactly the rows it matches (one scan of the rows), and a
    wrong-width key or row raises :class:`SchemaError` from :meth:`check`
    before any row moves.
    """

    __slots__ = (
        "schema",
        "_entries",
        "_key_of",
        "_undo",
        "_relation",
        "_saved_relation",
    )

    def __init__(self, relation: Relation) -> None:
        self.schema = relation.schema
        key_of = self._key_of = itemgetter(*relation.schema.key_positions())
        rows = relation.rows
        # the C fast path; bag duplicates collapse entries, so rebuild
        entries = dict(zip(map(key_of, rows), rows))
        if len(entries) != len(rows):
            entries = {}
            for row in rows:
                _append(entries, key_of(row), row)
        self._entries = entries
        #: open batch: key -> pre-batch entry (``None``: absent)
        self._undo: dict | None = None
        self._relation: Relation | None = relation
        self._saved_relation: Relation | None = None

    # -- the snapshot -------------------------------------------------------

    def __iter__(self) -> Iterator[tuple]:
        for entry in self._entries.values():
            if type(entry) is list:
                yield from entry
            else:
                yield entry

    @property
    def relation(self) -> Relation:
        """The rows as a :class:`Relation` (materialized once per change;
        treat it as an immutable value like any relation)."""
        if self._relation is None:
            self._relation = Relation(self.schema, self, copy=False)
        return self._relation

    # -- transactional batches ----------------------------------------------

    def begin(self) -> None:
        """Open a batch: journal each touched key on first touch."""
        self._undo = {}
        self._saved_relation = self._relation

    def commit(self) -> None:
        """Close the batch, discarding its journal."""
        self._undo = None
        self._saved_relation = None

    def rollback(self) -> None:
        """Restore the pre-batch rows and snapshot; a no-op when no batch
        is open."""
        undo = self._undo
        if undo is None:
            return
        entries = self._entries
        for key, entry in undo.items():
            if entry is None:
                entries.pop(key, None)
            else:
                entries[key] = entry
        self._relation = self._saved_relation
        self.commit()

    def _touch(self, key) -> None:
        """Journal ``key``'s pre-batch entry, copying a list entry (later
        ops mutate it in place)."""
        undo = self._undo
        if undo is None or key in undo:
            return
        entry = self._entries.get(key)
        undo[key] = list(entry) if type(entry) is list else entry

    # -- batches --------------------------------------------------------------

    def check(self, inserted: Iterable[Sequence], deleted) -> tuple[list, object]:
        """Validate one batch: ``(rows as tuples, store keys or the
        predicate)``.  Bare values are accepted for single-attribute keys;
        :class:`SchemaError` on a wrong-width row or key."""
        schema = self.schema
        width = len(schema)
        rows = [tuple(row) for row in inserted]
        if set(map(len, rows)) - {width}:
            bad = next(row for row in rows if len(row) != width)
            raise SchemaError(
                f"row of width {len(bad)} does not fit schema "
                f"{schema.name!r} of width {width}: {bad!r}"
            )
        if _is_predicate(deleted):
            return rows, deleted
        doomed = deleted if type(deleted) is list else list(deleted)
        key_width = len(schema.key)
        if key_width == 1:
            # raw store keys: unwrap 1-tuples, keep bare values
            if tuple in set(map(type, doomed)):
                doomed = [
                    key[0] if type(key) is tuple and len(key) == 1 else key
                    for key in doomed
                ]
                if any(type(key) is tuple for key in doomed):
                    bad = next(k for k in doomed if type(k) is tuple)
                    raise SchemaError(
                        f"key {bad!r} does not fit key attributes "
                        f"{schema.key}"
                    )
        else:
            doomed = [
                key if isinstance(key, tuple) else (key,) for key in doomed
            ]
            if set(map(len, doomed)) - {key_width}:
                bad = next(k for k in doomed if len(k) != key_width)
                raise SchemaError(
                    f"key {bad!r} does not fit key attributes {schema.key}"
                )
        return rows, doomed

    def delete(self, doomed) -> list[tuple]:
        """Remove the rows of :meth:`check`-ed keys (or matching a
        predicate); returns the removed rows."""
        if _is_predicate(doomed):
            evaluate = getattr(doomed, "evaluate", doomed)
            schema = self.schema
            removed = [row for row in self if evaluate(row, schema)]
            self.remove(removed)
            return removed
        if not doomed:
            return []
        entries = self._entries
        for key in doomed:
            self._touch(key)
        # unknown keys are no-ops, like Relation.delete
        removed = [
            entry
            for entry in map(entries.pop, doomed, repeat(None))
            if entry is not None
        ]
        if list in set(map(type, removed)):
            flat: list[tuple] = []
            for entry in removed:
                if type(entry) is list:
                    flat.extend(entry)
                else:
                    flat.append(entry)
            removed = flat
        if removed:
            self._relation = None
        return removed

    def insert(self, rows: list[tuple]) -> None:
        """Add :meth:`check`-ed rows (bag semantics: a resident key gains
        a duplicate)."""
        if not rows:
            return
        entries = self._entries
        keys = list(map(self._key_of, rows))
        if len(set(keys)) == len(keys) and entries.keys().isdisjoint(keys):
            # the C fast path; the keys are absent, so their journal
            # entries are plain "absent" markers
            undo = self._undo
            if undo is not None:
                for key in keys:
                    if key not in undo:
                        undo[key] = None
            entries.update(zip(keys, rows))
        else:
            for key, row in zip(keys, rows):
                self._touch(key)
                _append(entries, key, row)
        self._relation = None

    def remove(self, rows: Sequence[tuple]) -> None:
        """Remove these specific resident rows (one occurrence each)."""
        if not rows:
            return
        entries = self._entries
        for key, row in zip(map(self._key_of, rows), rows):
            self._touch(key)
            entry = entries.get(key)
            if type(entry) is list:
                entry.remove(row)
                if len(entry) == 1:
                    entries[key] = entry[0]
            elif entry is not None:
                del entries[key]
        self._relation = None


def _append(entries: dict, key, row: tuple) -> None:
    entry = entries.get(key)
    if entry is None:
        entries[key] = row
    elif type(entry) is list:
        entry.append(row)
    else:
        entries[key] = [entry, row]
