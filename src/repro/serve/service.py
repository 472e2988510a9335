"""Managed resident sessions: the service layer under the HTTP front end.

One :class:`ManagedSession` wraps one resident ``Incremental*Detector``
per (tenant, relation-id, Σ) and makes it safe and cheap to drive from
many request threads at once:

* **single-writer enforcement** — every fold runs under one per-session
  lock, so a fold, its WAL append and the settling of its tickets are
  one step (every hosted detector also carries its own reentrant lock);
* **group commit** — tiny update batches coalesce before the delta
  fold: requests enqueue tickets, the first thread through the lock
  drains up to ``REPRO_SERVE_COALESCE`` of them, reconciles them
  key-level into one combined batch (a delete cancels the pending
  insert of the same key, so the fold is equivalent to replaying the
  tickets serially) and folds once, amortizing the fixed per-batch cost
  over the coalesced requests;
* **admission control** — a session's pending queue is bounded by
  ``REPRO_SERVE_QUEUE``; an update stream that outruns its session gets
  :class:`Backpressure` (HTTP 429 + ``Retry-After``) instead of
  unbounded memory growth;
* **snapshot / restore** — :meth:`ManagedSession.retire` drains the
  queue and emits a JSON-able snapshot (schema, CFD sources, resident
  rows per fragment, cumulative stats) from which
  :meth:`ManagedSession.from_snapshot` rebuilds an equivalent session;
  the registry uses the pair for transparent LRU eviction.

Session kinds mirror the detector families: ``central`` (the
:class:`~repro.core.incremental.IncrementalDetector` keyed row store),
``ctr`` / ``pat-s`` / ``pat-rt`` (resident horizontal coordinators over
a uniform partition) and ``clust`` (resident CLUSTDETECT, the only kind
accepting several CFDs).  Every kind answers one session interface —
``fragments``, ``apply_updates({site: (inserted, deleted)})``,
``report_size``, ``verify`` — the central one as a single place ``0``,
so only construction (:meth:`ManagedSession._build`) knows the kind.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Iterable, Mapping, Sequence

from ..core import parse_cfd
from ..core.faults import FoldFaultInjected, active_plan
from ..core.incremental import IncrementalDetector
from ..detect.clust import IncrementalClustDetector
from ..detect.incremental import IncrementalHorizontalDetector
from ..knobs import resolve
from ..partition import partition_uniform
from ..relational import Relation
from ..relational.schema import Schema, SchemaError

#: session kinds the service hosts; all but ``central`` partition the
#: payload rows uniformly over ``sites`` simulated fragments
SESSION_KINDS = ("central", "ctr", "pat-s", "pat-rt", "clust")


class ServeError(Exception):
    """Base of every typed service failure (mapped to HTTP statuses)."""


class BadSessionSpec(ServeError):
    """The session/update payload does not satisfy the contract (400)."""


class UnknownSession(ServeError):
    """No live or parked session under that (tenant, name) (404)."""


class DuplicateSession(ServeError):
    """create() for a (tenant, name) that already exists (409)."""


class SessionRetired(ServeError):
    """The session was retired (LRU-evicted) between lookup and use.

    Callers holding a stale reference retry through the registry, which
    restores the session from its parked snapshot transparently.
    """


class Backpressure(ServeError):
    """The session's pending-update queue is full (429).

    ``retry_after`` is the suggested client backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class BadSnapshot(ServeError):
    """A snapshot payload is truncated, garbage or structurally wrong.

    The typed boundary for restore paths: :meth:`ManagedSession.from_snapshot`
    and the disk store raise this — never a bare ``KeyError`` or
    ``json.JSONDecodeError`` — so recovery can quarantine and keep serving.
    """


class WALError(ServeError):
    """Durable logging of a committed batch failed (500).

    The in-memory fold already applied when this surfaces, but the batch
    may not have reached disk — the client must treat the update outcome
    as unknown and re-verify after a restart.
    """


class QuotaExceeded(Backpressure):
    """A tenant is over one of its admission quotas (429).

    Subclasses :class:`Backpressure` on purpose: the HTTP layer already
    maps that to 429 + ``Retry-After``, and for clients the remedy is
    identical — back off and retry.  Raised *before* any fold runs, so
    an over-quota request never partially applies.
    """


class CircuitOpen(ServeError):
    """The session's circuit breaker is open (503 + ``Retry-After``).

    After K consecutive fold/WAL failures the session degrades to fast
    failure instead of burning a handler thread per doomed request;
    ``retry_after`` is the cool-down remaining before the next half-open
    probe is allowed through.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(ServeError):
    """The ticket expired in the queue before its fold ran (503).

    Only raised *before* folding — an acknowledged fold is never
    un-applied — so a shed update is guaranteed to have left no trace.
    ``retry_after`` suggests when queue pressure may have drained.
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SessionQuarantined(ServeError):
    """The session was quarantined by the integrity scrubber (503).

    Deliberately *not* a :class:`SessionRetired`: the façade's retry
    would loop on a session that is gone for cause, not for capacity.
    Its durable state sits under ``.quarantine/`` for forensics; drop
    or re-create the name to serve it again.
    """


class PayloadTooLarge(ServeError):
    """The request body exceeds ``REPRO_SERVE_MAX_BODY`` (413)."""


class _Ticket:
    """One enqueued update: rows in, results (or the error) out.

    ``deadline`` (absolute, governor clock) is stamped at admission when
    ``REPRO_SERVE_DEADLINE`` is set; the group-commit leader sheds
    tickets that expired while queued before folding them.
    """

    __slots__ = (
        "inserted", "deleted", "site", "done", "result", "error", "deadline"
    )

    def __init__(self, inserted: list, deleted: list, site: int) -> None:
        self.inserted = inserted
        self.deleted = deleted
        self.site = site
        self.done = False
        self.result = None
        self.error: BaseException | None = None
        self.deadline: float | None = None

    def settle(self, result=None, error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.done = True


def validate_snapshot(snapshot) -> Mapping:
    """Structural check of a snapshot payload; typed errors only.

    Every restore path funnels through here so a truncated or corrupted
    snapshot — from a client, the parked store or the disk store — fails
    as :class:`BadSnapshot`, which recovery treats as "quarantine and
    keep serving", never as a crash.
    """
    if not isinstance(snapshot, Mapping):
        raise BadSnapshot(
            f"snapshot must be a JSON object, got {type(snapshot).__name__}"
        )
    for field, kinds in (
        ("tenant", str),
        ("name", str),
        ("spec", Mapping),
        ("fragments", (list, tuple)),
    ):
        value = snapshot.get(field)
        if not isinstance(value, kinds):
            raise BadSnapshot(
                f"snapshot field {field!r} is missing or malformed "
                f"(got {type(value).__name__})"
            )
    for rows in snapshot["fragments"]:
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise BadSnapshot("snapshot 'fragments' must be lists of rows")
    stats = snapshot.get("stats", {})
    if not isinstance(stats, Mapping):
        raise BadSnapshot("snapshot 'stats' must be an object")
    return snapshot


def _reconcile(tickets: Sequence[_Ticket], key_of) -> tuple[list, list]:
    """Fold a ticket sequence into one equivalent (deleted, inserted) pair.

    The detectors fold deletes before inserts, so a combined batch is
    equivalent to replaying the tickets serially exactly when key-level
    order effects cancel: a delete arriving *after* a pending insert of
    the same key must erase that insert (and still delete the key's
    resident rows), while an insert after a delete keeps both (the
    delete-then-insert order already matches the fold).  O(rows): a
    key → positions index finds the pending inserts a delete erases,
    erased entries are tombstoned in place and compacted once at the
    end, so insertion order survives exactly.
    """
    deleted: dict = {}
    inserted: list = []  # rows in insertion order; None once erased
    pending: dict = {}  # key -> positions in `inserted` not yet erased
    for ticket in tickets:
        for key in ticket.deleted:
            for position in pending.pop(key, ()):
                inserted[position] = None
            deleted[key] = None
        for row in ticket.inserted:
            pending.setdefault(key_of(row), []).append(len(inserted))
            inserted.append(row)
    return list(deleted), [row for row in inserted if row is not None]


class ManagedSession:
    """One resident detection session with group commit and backpressure."""

    def __init__(
        self,
        tenant: str,
        name: str,
        spec: Mapping,
        queue_depth: int,
        coalesce: int,
        _snapshot: Mapping | None = None,
    ) -> None:
        self.tenant = tenant
        self.name = name
        self.kind = spec.get("kind", "central")
        if self.kind not in SESSION_KINDS:
            raise BadSessionSpec(
                f"unknown session kind {self.kind!r}; "
                f"use one of {', '.join(SESSION_KINDS)}"
            )
        schema_spec = spec.get("schema")
        if not isinstance(schema_spec, Mapping) or "attributes" not in schema_spec:
            raise BadSessionSpec(
                "spec needs a 'schema' object with 'attributes' "
                "(and optionally 'name' and 'key')"
            )
        try:
            self.schema = Schema(
                schema_spec.get("name", name),
                schema_spec["attributes"],
                schema_spec.get("key"),
            )
        except SchemaError as error:
            raise BadSessionSpec(str(error)) from None
        sources = spec.get("cfds")
        if not sources or not isinstance(sources, (list, tuple)):
            raise BadSessionSpec("spec needs a non-empty 'cfds' list")
        self.cfd_sources = [str(source) for source in sources]
        try:
            self.cfds = [parse_cfd(source) for source in self.cfd_sources]
        except Exception as error:
            raise BadSessionSpec(f"bad CFD: {error}") from None
        if self.kind in ("ctr", "pat-s", "pat-rt") and len(self.cfds) != 1:
            raise BadSessionSpec(
                f"kind {self.kind!r} hosts exactly one CFD per session; "
                "use kind 'clust' (or 'central') for CFD sets"
            )
        self.sites = int(spec.get("sites", 3)) if self.kind != "central" else 1
        if self.kind != "central" and self.sites < 1:
            raise BadSessionSpec(f"'sites' must be >= 1, got {self.sites}")
        self._key_positions = self.schema.key_positions()
        self._queue_depth = queue_depth
        self._coalesce = coalesce
        #: _admit guards the pending queue + the retired flag; _lock
        #: serializes folds and reads.  Order: _lock may take _admit,
        #: never the reverse.
        self._admit = threading.Lock()
        self._lock = threading.RLock()
        self._pending: deque[_Ticket] = deque()
        self._retired = False
        #: quarantine reason once the scrubber condemned this session;
        #: stale references fail typed instead of serving drifted state
        self._degraded: str | None = None
        #: bound by the registry when a durable store is configured; the
        #: journal is a lock leaf (registry lock → _lock → journal lock)
        self._journal = None
        #: bound by the registry when the service runs governed; the
        #: governor (and the breaker it built) is a lock leaf too
        self._governor = None
        self.breaker = None
        self.stats = {
            "updates": 0,
            "folds": 0,
            "coalesced_max": 0,
            "detects": 0,
            "verifies": 0,
            "restores": 0,
            "deadline_dropped": 0,
        }
        if _snapshot is not None:
            self.stats.update(_snapshot.get("stats", {}))
            self.stats["restores"] += 1
            fragments = [
                Relation(self.schema, [tuple(row) for row in rows], copy=False)
                for rows in _snapshot["fragments"]
            ]
        else:
            fragments = None
        self._detector = self._build(spec, fragments)

    # -- construction ------------------------------------------------------

    def _check_row(self, row) -> tuple:
        row = tuple(row)
        if len(row) != len(self.schema):
            raise BadSessionSpec(
                f"row of width {len(row)} does not fit schema "
                f"{self.schema.name!r} of width {len(self.schema)}: {row!r}"
            )
        try:
            # one hash per row, not per cell: a JSON array or object in
            # any cell is unhashable, and every fold groups by hashing
            hash(row)
        except TypeError:
            raise BadSessionSpec(
                f"row {row!r} holds a non-scalar cell (JSON array or "
                "object); cells must be strings, numbers, booleans or null"
            ) from None
        return row

    def _build(self, spec: Mapping, fragments: list[Relation] | None):
        """Attach the detector: one full fold over the initial rows."""
        from ..distributed import Cluster

        if fragments is None:
            rows = [self._check_row(row) for row in spec.get("rows", [])]
            relation = Relation(self.schema, rows, copy=False)
        if self.kind == "central":
            if fragments is not None:
                rows = [row for fragment in fragments for row in fragment.rows]
                relation = Relation(self.schema, rows, copy=False)
            detector = IncrementalDetector(self.cfds)
            detector.attach(relation)
            return detector
        if fragments is not None:
            cluster = Cluster.from_fragments(fragments)
        else:
            cluster = partition_uniform(relation, self.sites)
        if self.kind == "clust":
            detector = IncrementalClustDetector(cluster, self.cfds)
        else:
            detector = IncrementalHorizontalDetector(
                cluster, self.cfds[0], self.kind
            )
        detector.detect()
        return detector

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping, queue_depth: int, coalesce: int
    ) -> "ManagedSession":
        """An equivalent session rebuilt from :meth:`snapshot` output.

        Raises :class:`BadSnapshot` for truncated/garbage payloads and
        :class:`BadSessionSpec` for well-formed snapshots whose spec or
        rows break the session contract — typed either way, so restore
        and recovery paths can quarantine instead of crashing.
        """
        validate_snapshot(snapshot)
        try:
            return cls(
                snapshot["tenant"],
                snapshot["name"],
                snapshot["spec"],
                queue_depth,
                coalesce,
                _snapshot=snapshot,
            )
        except ServeError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise BadSnapshot(
                f"snapshot does not rebuild a session: "
                f"{type(error).__name__}: {error}"
            ) from None

    # -- keys --------------------------------------------------------------

    def _key_of(self, row: tuple):
        positions = self._key_positions
        if len(positions) == 1:
            return row[positions[0]]
        return tuple(row[p] for p in positions)

    def _check_key(self, key):
        """Normalize one client-supplied deleted key (JSON lists arrive
        as lists; single-attribute keys travel raw, like the store's)."""
        if isinstance(key, list):
            key = tuple(key)
        if len(self._key_positions) == 1:
            if isinstance(key, tuple):
                if len(key) != 1:
                    raise BadSessionSpec(
                        f"key {key!r} does not fit key attributes "
                        f"{self.schema.key}"
                    )
                return key[0]
            return key
        if not isinstance(key, tuple) or len(key) != len(self._key_positions):
            raise BadSessionSpec(
                f"key {key!r} does not fit key attributes {self.schema.key}"
            )
        return key

    # -- updates: group commit --------------------------------------------

    def update(self, inserted=(), deleted=(), site: int | None = None) -> dict:
        """Absorb one update request; may coalesce with neighbours.

        Enqueues a ticket (bounded queue → :class:`Backpressure`), then
        races for the session lock: the winner drains up to the coalesce
        cap, reconciles and folds the combined batch; losers find their
        ticket already settled when they get the lock.  Either way the
        caller observes its update folded before the call returns.
        """
        if self.kind == "central":
            site = None  # one place: a central session ignores ``site``
        if site is not None and not (0 <= int(site) < self.sites):
            raise BadSessionSpec(
                f"site {site} out of range for {self.sites} sites"
            )
        if self.breaker is not None:
            self.breaker.admit()  # CircuitOpen before any work queues
        ticket = _Ticket(
            [self._check_row(row) for row in inserted],
            [self._check_key(key) for key in deleted],
            int(site or 0),
        )
        governor = self._governor
        if governor is not None:
            ticket.deadline = governor.deadline_for()
            governor.ticket_admitted(self.tenant)  # QuotaExceeded
        admitted = time.perf_counter()
        try:
            with self._admit:
                if self._degraded is not None:
                    raise SessionQuarantined(
                        f"session {self.tenant}/{self.name} is "
                        f"quarantined: {self._degraded}"
                    )
                if self._retired:
                    raise SessionRetired(
                        f"session {self.tenant}/{self.name} was retired"
                    )
                if len(self._pending) >= self._queue_depth:
                    raise Backpressure(
                        f"session {self.tenant}/{self.name} has "
                        f"{len(self._pending)} pending updates (limit "
                        f"{self._queue_depth}); retry shortly"
                    )
                self._pending.append(ticket)
            while not ticket.done:
                with self._lock:
                    if ticket.done:
                        break
                    self._fold_round()
        finally:
            if governor is not None:
                governor.ticket_settled(self.tenant)
        if ticket.error is not None:
            raise ticket.error
        # queue_seconds is the governed region — enqueue to settle — the
        # span the deadline bounds; clients use it to see p99 without
        # the transport noise in front of admission
        result = dict(ticket.result)
        result["queue_seconds"] = time.perf_counter() - admitted
        return result

    def _fold_round(self) -> None:
        """Leader duty: drain one coalesced batch and fold it once.

        A combined fold that fails rolls back inside the detector
        (transactional batches), then the tickets replay one by one so a
        poison ticket fails alone instead of taking its neighbours down.
        """
        with self._admit:
            batch: list[_Ticket] = []
            while self._pending and len(batch) < self._coalesce:
                batch.append(self._pending.popleft())
        if not batch:
            return
        governor = self._governor
        if governor is not None:
            # deadline shedding happens here and only here: strictly
            # before the fold, never after — an acked fold is never
            # un-applied, and a shed ticket provably left no trace
            now = governor.clock()
            expired = [
                ticket for ticket in batch
                if ticket.deadline is not None and now > ticket.deadline
            ]
            if expired:
                batch = [t for t in batch if t not in expired]
                governor.count_expired(len(expired))
                self.stats["deadline_dropped"] += len(expired)
                error = DeadlineExceeded(
                    f"update queued past its {governor.deadline:g}s "
                    f"deadline in session {self.tenant}/{self.name}; "
                    "it was not applied"
                )
                for ticket in expired:
                    ticket.settle(error=error)
            if not batch:
                return
        self.stats["folds"] += 1
        self.stats["updates"] += len(batch)
        if len(batch) > self.stats["coalesced_max"]:
            self.stats["coalesced_max"] = len(batch)
        if len(batch) == 1:
            self._fold_each(batch)
            return
        try:
            self._fold_combined(batch)
        except Exception:
            self._fold_each(batch)

    def _maybe_inject_fold_fault(self) -> None:
        """``fold-fail@N`` hook: raise *before* the detector mutates, so
        the injected failure exercises the exact production path — the
        transactional rollback, the per-ticket fallback and the circuit
        breaker all see a real application error."""
        plan = active_plan()
        if plan is not None and plan.fold_fault_for(plan.next_fold_order()):
            raise FoldFaultInjected(
                f"injected fold failure in session "
                f"{self.tenant}/{self.name} (fold-fail)"
            )

    def _apply(self, site: int, deleted: list, inserted: list) -> None:
        self._maybe_inject_fold_fault()
        self._detector.apply_updates({site: (inserted, deleted)})

    def bind_journal(self, journal) -> None:
        """Attach the durable journal committed batches append to."""
        with self._lock:
            self._journal = journal

    def bind_governor(self, governor) -> None:
        """Attach the service governor: deadlines, ticket quotas and a
        *fresh* circuit breaker — failure history deliberately does not
        survive retire/restore (a rebuilt session starts closed)."""
        with self._lock:
            self._governor = governor
            self.breaker = governor.new_breaker() if governor else None

    def degrade(self, reason: str) -> None:
        """Quarantine verdict: updates fail typed from here on."""
        with self._admit:
            self._degraded = reason

    def busy(self) -> bool:
        """Whether foreground tickets are queued (the scrubber yields)."""
        with self._admit:
            return bool(self._pending)

    def journal_wedged(self) -> bool:
        """Whether the durable journal gave up appending (healthz)."""
        journal = self._journal
        return bool(journal is not None and journal.wedged)

    def _log_committed(self, committed: list) -> None:
        """WAL-append one committed batch; runs under ``_lock`` after the
        in-memory fold and *before* tickets settle, so an acknowledged
        update is on the log (durability per the fsync policy) and a
        logging failure surfaces as :class:`WALError` instead of a silent
        ack.  ``committed`` is ``[(site, deleted_keys, inserted_rows)]``.
        A due checkpoint rides the same commit: ``_lock`` is reentrant,
        so :meth:`snapshot` can run right here in the fold path.
        """
        journal = self._journal
        if journal is None:
            return
        journal.log(committed)
        if journal.checkpoint_due():
            try:
                journal.checkpoint(self.snapshot())
            except WALError:
                # the WAL still holds every record the snapshot missed;
                # the journal counted the failure, so keep serving
                pass

    def _fold_combined(self, batch: list[_Ticket]) -> None:
        per_site: dict[int, list[_Ticket]] = {}
        for ticket in batch:
            per_site.setdefault(ticket.site, []).append(ticket)
        updates = {}
        for site, tickets in sorted(per_site.items()):
            deleted, inserted = _reconcile(tickets, self._key_of)
            updates[site] = (inserted, deleted)
        self._maybe_inject_fold_fault()
        self._detector.apply_updates(updates)
        committed = [
            (site, deleted, inserted)
            for site, (inserted, deleted) in sorted(updates.items())
        ]
        try:
            self._log_committed(committed)
        except WALError as error:
            # the fold applied in memory but may not have reached disk;
            # never re-raise here (the caller's fallback would replay the
            # batch on top of the applied state) — settle with the error
            if self.breaker is not None:
                self.breaker.record_failure()
            for ticket in batch:
                ticket.settle(error=error)
            return
        if self.breaker is not None:
            self.breaker.record_success()
        result = self._result(coalesced=len(batch))
        for ticket in batch:
            ticket.settle(result=result)

    def _fold_each(self, batch: list[_Ticket]) -> None:
        for ticket in batch:
            try:
                self._apply(ticket.site, ticket.deleted, ticket.inserted)
                self._log_committed(
                    [(ticket.site, ticket.deleted, ticket.inserted)]
                )
            except Exception as error:
                # every fold/WAL failure feeds the breaker; K in a row
                # trips it open (the half-open probe lands here too)
                if self.breaker is not None:
                    self.breaker.record_failure()
                ticket.settle(error=error)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                ticket.settle(result=self._result(coalesced=1))

    def _result(self, coalesced: int) -> dict:
        # counts only: the ack must not cost O(|report|) per update
        violations, tuple_keys = self._detector.report_size()
        return {
            "violations": violations,
            "tuple_keys": tuple_keys,
            "coalesced": coalesced,
        }

    # -- reads -------------------------------------------------------------

    def detect(self) -> dict:
        """The full current report, JSON-shaped and deterministic."""
        with self._lock:
            self.stats["detects"] += 1
            report = self._detector.report
        violations = sorted(
            (
                {
                    "cfd": v.cfd,
                    "lhs_attributes": list(v.lhs_attributes),
                    "lhs_values": list(v.lhs_values),
                }
                for v in report.violations
            ),
            key=repr,
        )
        return {
            "kind": self.kind,
            "violations": violations,
            "n_violations": len(violations),
            "tuple_keys": sorted((list(k) for k in report.tuple_keys), key=repr),
        }

    def verify(self, sample: int | None = None, seed: int = 8) -> bool:
        """Invariant check of the resident state (see the detectors')."""
        with self._lock:
            self.stats["verifies"] += 1
            return self._detector.verify(sample=sample, seed=seed)

    def snapshot(self) -> dict:
        """The session's durable state: enough to rebuild an equivalent
        session (same resident rows per fragment, same Σ, same stats)."""
        with self._lock:
            detector = self._detector
            fragments = [
                [list(row) for row in fragment.rows]
                for fragment in detector.fragments
            ]
            return {
                "tenant": self.tenant,
                "name": self.name,
                "kind": self.kind,
                "spec": {
                    "kind": self.kind,
                    "schema": {
                        "name": self.schema.name,
                        "attributes": list(self.schema.attributes),
                        "key": list(self.schema.key),
                    },
                    "cfds": list(self.cfd_sources),
                    "sites": self.sites,
                },
                "fragments": fragments,
                "n_rows": sum(len(rows) for rows in fragments),
                "n_violations": detector.report_size()[0],
                "stats": dict(self.stats),
            }

    # -- lifecycle ---------------------------------------------------------

    def retire(self) -> dict:
        """Stop admitting, drain every pending ticket, emit the snapshot.

        After retire() returns, stale references raise
        :class:`SessionRetired` on update — the registry restores from
        the returned snapshot transparently on the next lookup.
        """
        with self._admit:
            self._retired = True
        with self._lock:
            while True:
                with self._admit:
                    drained = not self._pending
                if drained:
                    break
                self._fold_round()
            return self.snapshot()

    def __repr__(self) -> str:
        return (
            f"ManagedSession({self.tenant}/{self.name}, kind={self.kind}, "
            f"{len(self.cfds)} CFDs)"
        )


class DetectionService:
    """The façade the HTTP layer (and tests) drive: registry + retry.

    All methods are thread-safe.  ``update`` retries once through the
    registry when it loses the race against LRU eviction — the registry
    restores the session from its parked snapshot, so the caller never
    observes the eviction.
    """

    def __init__(
        self,
        max_sessions: int | None = None,
        queue_depth: int | None = None,
        coalesce: int | None = None,
        data_dir: str | os.PathLike | None = None,
        fsync: str | None = None,
        checkpoint: int | None = None,
        tenant_sessions: int | None = None,
        rate: float | None = None,
        max_rows: int | None = None,
        deadline: float | None = None,
        breaker: int | None = None,
        cooldown: float | None = None,
        scrub: float | None = None,
        scrub_sample: int | None = None,
    ) -> None:
        from .governor import Governor
        from .registry import SessionRegistry
        from .scrubber import Scrubber

        # checked with or without a data dir, so a bad value never boots
        fsync = resolve("REPRO_SERVE_FSYNC", fsync)
        checkpoint = resolve("REPRO_SERVE_CHECKPOINT", checkpoint)
        store = None
        if data_dir is not None:
            from .durability import DurableStore

            store = DurableStore(data_dir, fsync=fsync, checkpoint=checkpoint)
        depth = resolve("REPRO_SERVE_QUEUE", queue_depth)
        #: the admission authority every request funnels through; quotas
        #: default off (rate/deadline/tenant caps = 0) so an ungoverned
        #: service behaves exactly like the PR 7/9 one
        self.governor = Governor(
            tenant_sessions,
            rate,
            max_rows,
            deadline,
            breaker,
            cooldown,
            queue_depth=depth,
        )
        self.registry = SessionRegistry(
            max_sessions, depth, coalesce, store=store, governor=self.governor
        )
        #: sessions rebuilt from disk at startup (0 without a data dir)
        self.recovered = self.registry.recover() if store is not None else 0
        #: always constructed (stats show enabled: false when off); the
        #: daemon thread only starts with REPRO_SERVE_SCRUB > 0
        self.scrubber = Scrubber(self.registry, scrub, scrub_sample)
        self.scrubber.start()

    def close(self) -> None:
        """Stop background machinery (the scrubber thread)."""
        self.scrubber.stop()

    def create_session(self, tenant: str, name: str, spec: Mapping) -> dict:
        # rate-limited but exempt from the rows-per-update cap: the cap
        # governs the incremental stream, while a session's bootstrap
        # relation is already bounded by REPRO_SERVE_MAX_BODY
        self.governor.admit_request(tenant)
        session = self.registry.create(tenant, name, spec)
        report = session.detect()
        return {
            "tenant": tenant,
            "session": name,
            "kind": session.kind,
            "sites": session.sites,
            "n_violations": report["n_violations"],
        }

    def _with_session(self, tenant: str, name: str, call):
        for attempt in (0, 1):
            session = self.registry.get(tenant, name)
            try:
                return call(session)
            except SessionRetired:
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def update(
        self,
        tenant: str,
        name: str,
        inserted: Iterable = (),
        deleted: Iterable = (),
        site: int | None = None,
    ) -> dict:
        inserted = list(inserted)
        deleted = list(deleted)
        # governed admission runs here, in the client-facing façade —
        # recovery replay calls session.update() directly and must never
        # be throttled by client quotas
        self.governor.admit_request(
            tenant, rows=len(inserted) + len(deleted)
        )
        return self._with_session(
            tenant, name, lambda s: s.update(inserted, deleted, site)
        )

    def detect(self, tenant: str, name: str) -> dict:
        return self._with_session(tenant, name, lambda s: s.detect())

    def verify(
        self, tenant: str, name: str, sample: int | None = None, seed: int = 8
    ) -> dict:
        ok = self._with_session(
            tenant, name, lambda s: s.verify(sample=sample, seed=seed)
        )
        return {"ok": bool(ok), "sample": sample}

    def snapshot(self, tenant: str, name: str) -> dict:
        return self._with_session(tenant, name, lambda s: s.snapshot())

    def drop(self, tenant: str, name: str) -> dict:
        self.registry.drop(tenant, name)
        return {"dropped": f"{tenant}/{name}"}

    def health(self) -> dict:
        """Truthful readiness: ``ok`` only while nothing is degraded.

        Degraded means: a quarantined session, a wedged journal, or a
        circuit breaker sitting open.  ``/healthz`` serves 503 with this
        payload when not ok (``?live=1`` stays a pure liveness probe).
        """
        detail = self.registry.health()
        detail["ok"] = not (
            detail["quarantined"]
            or detail["wedged"]
            or detail["breakers_open"]
        )
        return detail

    def stats(self) -> dict:
        payload = self.registry.stats()
        payload["governor"] = self.governor.stats()
        payload["scrubber"] = self.scrubber.stats()
        return payload
