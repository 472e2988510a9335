"""Cluster-scoped shared dictionaries: one value ↔ code table per cluster.

Each fragment's :class:`~repro.relational.columnar.ColumnStore` dictionary-
encodes *locally*: code 3 at site 1 and code 3 at site 2 generally decode
to different values, so local codes cannot cross sites.  This module adds
the cluster-wide layer: global interning tables shared by all fragments of
one cluster, so that equal values (or value combinations) carry the *same*
integer code at every site.  With that invariant, the distributed
detectors ship int codes instead of value tuples, and the coordinator-side
merge — grouping the received ``(X, A)`` projections and spotting groups
with two distinct RHS combinations — runs entirely on code pairs, decoding
only the handful of violating ``X`` values at the end.

The dictionaries follow the federated-summary playbook: a fragment sends
its *local dictionary* (the distinct combinations, a fraction of its rows)
to the coordinator **once**; the coordinator interns them, in site order
and local first-seen order, into the global table and keeps the resulting
local-code → global-code translation.  Every later detection against the
same cluster ships only codes.  Like the paper's ``lstat`` statistics
exchange, the one-off dictionary shipment is accounted as control traffic,
not tuple shipment; the per-row payload is what
:attr:`~repro.distributed.network.ShipmentRecord.n_codes` counts.

Two granularities, one idea:

* :class:`SharedPairDictionary` — per-variable-CFD ``(X, Y)`` projection
  interner: each shipped row collapses to a single ``(x_code, y_code)``
  pair regardless of attribute width.  Used by the horizontal detectors.
* :class:`SharedComboDictionary` — whole-combination interner (one code
  per distinct ``X ∪ A`` union row).  Used by CLUSTDETECT, whose
  coordinators group the same received codes once per member CFD, each
  under a different ``(X, A)`` projection of the combination.

All interning is deterministic (site order, then local first-seen order),
so repeat detections produce identical codes — and identical reports.

Thread-safety contract: every shared table is mutated under a
per-dictionary lock (the same discipline ``normalize.py`` applies to its
parse memos with ``_MEMO_LOCK``).  Interning is a check-then-act sequence,
so without the lock two racing threads — concurrent sessions of the
resident service — can assign two codes to one value or append one value twice, silently
corrupting every coded shipment that follows.  Reads stay lock-free: the
tables are append-only and a published entry never changes, so a
``code_of`` hit is final (entries are published values-first, making
``values[code]`` valid the instant the code is visible).
"""

from __future__ import annotations

import threading

from typing import Sequence


def _intern(lock: threading.Lock, code_of: dict, values: list, value) -> int:
    """Append-only get-or-assign: the one interning primitive every
    shared table here builds on.

    Lock-free on the hot path — a hit in ``code_of`` is immutable once
    published — and double-checked under ``lock`` on a miss so exactly
    one thread assigns the code.  ``values.append`` runs *before* the
    ``code_of`` publish: a concurrent reader that sees the code can
    always decode it.
    """
    code = code_of.get(value)
    if code is not None:
        return code
    with lock:
        code = code_of.get(value)
        if code is None:
            code = len(values)
            values.append(value)
            code_of[value] = code
    return code


class SharedPairDictionary:
    """Global ``(X, Y)`` projection codes for one variable CFD.

    A shipped projection row over ``X ∪ A`` becomes the pair
    ``(x_code, y_code)``: ``x_code`` interns the ``X`` sub-tuple,
    ``y_code`` the RHS sub-tuple.  The coordinator merge needs nothing
    else — a σ bucket violates at ``x`` exactly when two pairs with the
    same ``x_code`` carry different ``y_code``s — and only the violating
    ``x_code``s are decoded (:attr:`x_values`).

    :meth:`translate` interns one fragment's distinct combinations and
    memoizes the local → global translation per site, implementing the
    "dictionary ships once" protocol described in the module docstring.
    """

    __slots__ = (
        "lhs_width",
        "x_values",
        "x_code_of",
        "y_values",
        "y_code_of",
        "_site_pairs",
        "_lock",
    )

    def __init__(self, lhs_width: int) -> None:
        self.lhs_width = lhs_width
        self.x_values: list[tuple] = []
        self.x_code_of: dict[tuple, int] = {}
        self.y_values: list[tuple] = []
        self.y_code_of: dict[tuple, int] = {}
        self._site_pairs: dict[object, list[tuple[int, int]]] = {}
        self._lock = threading.Lock()

    def pairs_for(self, site_key: object) -> list[tuple[int, int]] | None:
        """The memoized translation of one site, or ``None`` if not built."""
        return self._site_pairs.get(site_key)

    def intern_x(self, x: tuple) -> int:
        """The global code of one ``X`` projection (assigned if new).

        The append-only primitive behind incremental detection: a delta
        row's combination interns through the same tables the initial
        run's dictionaries populated, so pre-update codes never move.
        """
        return _intern(self._lock, self.x_code_of, self.x_values, x)

    def intern_y(self, y: tuple) -> int:
        """The global code of one RHS projection (assigned if new)."""
        return _intern(self._lock, self.y_code_of, self.y_values, y)

    def translate(
        self, site_key: object, distincts: Sequence[tuple]
    ) -> list[tuple[int, int]]:
        """Intern a fragment's distinct ``X ∪ A`` combinations, in order.

        Returns (and memoizes) ``pairs`` with ``pairs[g]`` the global
        ``(x_code, y_code)`` of the fragment's local combination ``g``.
        Deterministic: callers intern sites in site order, and within one
        site ``distincts`` comes in the fragment's first-seen order.
        """
        width = self.lhs_width
        lock = self._lock
        x_code_of, y_code_of = self.x_code_of, self.y_code_of
        x_values, y_values = self.x_values, self.y_values
        pairs: list[tuple[int, int]] = []
        for combo in distincts:
            # lock-free hits; _intern re-checks under the lock on a miss
            x = combo[:width]
            x_code = x_code_of.get(x)
            if x_code is None:
                x_code = _intern(lock, x_code_of, x_values, x)
            y = combo[width:]
            y_code = y_code_of.get(y)
            if y_code is None:
                y_code = _intern(lock, y_code_of, y_values, y)
            pairs.append((x_code, y_code))
        with lock:
            self._site_pairs[site_key] = pairs
        return pairs

    def __repr__(self) -> str:
        return (
            f"SharedPairDictionary({len(self.x_values)} X, "
            f"{len(self.y_values)} Y values, {len(self._site_pairs)} sites)"
        )


class SharedComboDictionary:
    """Global codes for whole attribute-union combinations (CLUSTDETECT).

    One code per distinct combination over the CFD cluster's attribute
    union; :attr:`values` decodes (a list index returning the interned
    tuple).  A coordinator site dedupes the codes of every bucket it
    coordinates and, per member CFD, groups their ``X`` projections by RHS
    projection — conflict existence does not depend on multiplicity, so
    the check stays proportional to distinct combinations while the
    shipment accounting keeps honest row counts.
    """

    __slots__ = ("values", "code_of", "_site_codes", "_lock")

    def __init__(self) -> None:
        self.values: list[tuple] = []
        self.code_of: dict[tuple, int] = {}
        self._site_codes: dict[object, list[int]] = {}
        self._lock = threading.Lock()

    def codes_for(self, site_key: object) -> list[int] | None:
        return self._site_codes.get(site_key)

    def intern(self, combo: tuple) -> int:
        """The global code of one combination (assigned if new).

        The append-only primitive behind incremental CLUSTDETECT: a delta
        row's combination interns through the same table the initial
        run's translations populated, so codes obtained before an update
        stay valid after it — the invariant that lets a resident
        coordinator patch its per-combination counts in place.
        """
        return _intern(self._lock, self.code_of, self.values, combo)

    def translate(self, site_key: object, distincts: Sequence[tuple]) -> list[int]:
        """Intern one fragment's distinct combinations; memoized per site."""
        lock = self._lock
        code_of, values = self.code_of, self.values
        codes: list[int] = []
        for combo in distincts:
            # lock-free hits; _intern re-checks under the lock on a miss
            code = code_of.get(combo)
            if code is None:
                code = _intern(lock, code_of, values, combo)
            codes.append(code)
        with lock:
            self._site_codes[site_key] = codes
        return codes

    def __repr__(self) -> str:
        return (
            f"SharedComboDictionary({len(self.values)} combos, "
            f"{len(self._site_codes)} sites)"
        )


#: guards cache creation in :func:`shared_dict_on` across *all* owners —
#: installs are rare (once per (cluster, CFD) key), so one module lock
#: beats threading a lock through every owner type
_SHARED_DICTS_LOCK = threading.Lock()


def shared_dict_on(owner, key, factory):
    """A cluster-cached shared dictionary: ``owner._shared_dicts[key]``.

    Clusters are immutable, so the dictionaries (and the per-site
    translations memoized inside them) stay valid for the owner's
    lifetime; repeated detections against one cluster skip re-interning
    entirely.  Unhashable keys (exotic pattern entries) and slotted owners
    degrade gracefully to a fresh dictionary per call — correct, just not
    memoized.

    Cache probes are lock-free; cache *installs* (of ``_shared_dicts``
    itself and of each dictionary) are double-checked under a module lock
    so every thread asking one owner for one key gets the same table —
    two dictionaries for one key would split the cluster's value↔code
    space in half.
    """
    try:
        cache = owner._shared_dicts
    except AttributeError:
        with _SHARED_DICTS_LOCK:
            try:
                cache = owner._shared_dicts
            except AttributeError:
                cache = {}
                try:
                    owner._shared_dicts = cache
                except AttributeError:  # slotted stand-in: no caching
                    return factory()
    try:
        shared = cache.get(key)
    except TypeError:  # unhashable key: no caching
        return factory()
    if shared is None:
        with _SHARED_DICTS_LOCK:
            shared = cache.get(key)
            if shared is None:
                shared = factory()
                cache[key] = shared
    return shared
