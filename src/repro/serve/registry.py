"""The session registry: (tenant, name) → resident session, LRU-bounded.

At most ``REPRO_SERVE_MAX_SESSIONS`` sessions stay resident; creating
(or restoring) one beyond the cap retires the least recently used —
:meth:`~repro.serve.service.ManagedSession.retire` drains its pending
updates and emits a snapshot, which parks here until the next lookup
rebuilds an equivalent session from it.  Clients never see the churn:
a parked session looks exactly like a live one, it just pays a rebuild
(one full fold) on its next request.

With a :class:`~repro.serve.durability.DurableStore` attached the same
lifecycle becomes durable: creation checkpoints the initial snapshot to
disk, committed folds append to the session's WAL (the session holds
the journal), LRU retire checkpoints to disk as well as parking in
memory, drop deletes the directory, and :meth:`SessionRegistry.recover`
rebuilds every stored session at startup — last valid snapshot plus a
WAL replay through the normal ``update()`` path, quarantining corrupt
tails instead of refusing to start.

Lock ordering: the registry lock is taken first, session locks second
(``retire`` runs under both), journal locks last.  Session code never
calls back into the registry and journal code never calls back into
sessions, so the ordering cannot invert.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping

from ..knobs import resolve
from .service import (
    DuplicateSession,
    ManagedSession,
    ServeError,
    SessionQuarantined,
    UnknownSession,
    WALError,
)


class SessionRegistry:
    """Live sessions with LRU eviction into parked snapshots."""

    def __init__(
        self,
        max_sessions: int | None = None,
        queue_depth: int | None = None,
        coalesce: int | None = None,
        store=None,
        governor=None,
    ) -> None:
        self.max_sessions = resolve("REPRO_SERVE_MAX_SESSIONS", max_sessions)
        self.queue_depth = resolve("REPRO_SERVE_QUEUE", queue_depth)
        self.coalesce = resolve("REPRO_SERVE_COALESCE", coalesce)
        #: optional DurableStore; None keeps the registry memory-only
        self.store = store
        #: optional Governor; sessions built here get bound to it (its
        #: state is a lock leaf, so binding never risks inversion)
        self.governor = governor
        #: reentrant so drop() can run inside stats()-free paths that
        #: already hold it; taken before any session lock, never after
        self._lock = threading.RLock()
        self._live: OrderedDict[tuple[str, str], ManagedSession] = OrderedDict()
        self._parked: dict[tuple[str, str], dict] = {}
        #: keys reserved by an in-flight create: the initial fold runs
        #: outside the registry lock, these keep the name check atomic
        self._pending_creates: set[tuple[str, str]] = set()
        #: scrubber verdicts: key → reason; lookups fail typed (503)
        #: until the name is dropped or re-created
        self._quarantined: dict[tuple[str, str], str] = {}
        self.counters = {
            "created": 0,
            "evicted": 0,
            "restored": 0,
            "dropped": 0,
            "quarantined": 0,
        }

    def _bind_durable(self, session: ManagedSession, checkpoint: bool) -> None:
        """Attach the session's journal; optionally checkpoint now."""
        if self.store is None:
            return
        journal = self.store.journal(session.tenant, session.name)
        if checkpoint:
            journal.checkpoint(session.snapshot())
        session.bind_journal(journal)

    def _bind_governor(self, session: ManagedSession) -> None:
        if self.governor is not None:
            session.bind_governor(self.governor)

    def create(self, tenant: str, name: str, spec: Mapping) -> ManagedSession:
        """Build, attach and register a new session (409 on duplicates).

        The initial fold (and the initial durable checkpoint) runs
        **outside** the registry lock: the key is reserved with a
        pending placeholder under the lock, the expensive build happens
        unlocked, and the finished session installs (or the placeholder
        rolls back) under the lock again — so one giant create can no
        longer block every other tenant's ``get``/``stats``.  Creating a
        quarantined name clears its tombstone: the condemned durable
        state already moved to ``.quarantine/``, a fresh session is a
        fresh start.
        """
        key = (tenant, name)
        with self._lock:
            if (
                key in self._live
                or key in self._parked
                or key in self._pending_creates
            ):
                raise DuplicateSession(
                    f"session {tenant}/{name} already exists"
                )
            self._quarantined.pop(key, None)
            if self.governor is not None:
                owned = sum(
                    1
                    for pool in (
                        self._live, self._parked, self._pending_creates
                    )
                    for (owner, _sname) in pool
                    if owner == tenant
                )
                self.governor.admit_session(tenant, owned)
            self._pending_creates.add(key)
        try:
            session = ManagedSession(
                tenant, name, spec, self.queue_depth, self.coalesce
            )
            self._bind_governor(session)
            self._bind_durable(session, checkpoint=True)
        except BaseException:
            with self._lock:
                self._pending_creates.discard(key)
            raise
        with self._lock:
            self._pending_creates.discard(key)
            self._live[key] = session
            self.counters["created"] += 1
            self._shed_locked()
            return session

    def get(self, tenant: str, name: str) -> ManagedSession:
        """The live session, restoring a parked one transparently."""
        key = (tenant, name)
        with self._lock:
            reason = self._quarantined.get(key)
            if reason is not None:
                raise SessionQuarantined(
                    f"session {tenant}/{name} is quarantined: {reason}"
                )
            session = self._live.get(key)
            if session is not None:
                self._live.move_to_end(key)
                return session
            snapshot = self._parked.pop(key, None)
            if snapshot is None:
                # a key mid-create is not yet addressable: the creating
                # request returns it when (and only when) it installs
                raise UnknownSession(f"no session {tenant}/{name}")
            session = ManagedSession.from_snapshot(
                snapshot, self.queue_depth, self.coalesce
            )
            self._bind_governor(session)
            # the disk snapshot was written at retire and the WAL
            # truncated with it, so binding without a fresh checkpoint
            # is enough — the store already holds this exact state
            self._bind_durable(session, checkpoint=False)
            self._live[key] = session
            self.counters["restored"] += 1
            self._shed_locked()
            return session

    def drop(self, tenant: str, name: str) -> None:
        """Delete the session (live, parked or quarantined) for good."""
        key = (tenant, name)
        with self._lock:
            session = self._live.pop(key, None)
            parked = self._parked.pop(key, None)
            tombstone = self._quarantined.pop(key, None)
            if session is None and parked is None and tombstone is None:
                raise UnknownSession(f"no session {tenant}/{name}")
            self.counters["dropped"] += 1
            if session is not None:
                session.retire()  # drains pending updates, then discard
            if self.store is not None and tombstone is None:
                # a quarantined session's directory already moved to
                # .quarantine/ — dropping only clears the tombstone
                self.store.drop(tenant, name)

    def quarantine(self, tenant: str, name: str, reason: str) -> bool:
        """Condemn a drifted session: evict, tombstone, move to disk.

        The scrubber's verdict path.  Returns False when the session is
        already gone (raced with a drop).  The live registry keeps
        serving every other session; this key serves typed 503s until
        dropped or re-created.
        """
        key = (tenant, name)
        with self._lock:
            session = self._live.pop(key, None)
            parked = self._parked.pop(key, None)
            if session is None and parked is None:
                return False
            self._quarantined[key] = reason
            self.counters["quarantined"] += 1
        if session is not None:
            session.degrade(reason)
        if self.store is not None:
            try:
                self.store.quarantine_session(tenant, name, reason)
            except ServeError:
                # the store counted the failure; the in-memory
                # tombstone alone still stops the session serving
                pass
        return True

    def live_sessions(self) -> list[ManagedSession]:
        """A stable snapshot of the live sessions (scrubber rounds)."""
        with self._lock:
            return list(self._live.values())

    def health(self) -> dict:
        """The degraded-state inventory behind ``/healthz``."""
        with self._lock:
            quarantined = sorted(
                f"{tenant}/{name}" for tenant, name in self._quarantined
            )
            wedged = []
            breakers_open = []
            for (tenant, name), session in self._live.items():
                label = f"{tenant}/{name}"
                if session.journal_wedged():
                    wedged.append(label)
                breaker = session.breaker
                if breaker is not None and breaker.state == "open":
                    breakers_open.append(label)
        return {
            "quarantined": quarantined,
            "wedged": wedged,
            "breakers_open": breakers_open,
        }

    def _shed_locked(self) -> None:
        """Retire sessions down to the cap, tenant-fairly.

        The victim is the least recently used session of a tenant
        holding the most live sessions — so a burst from one tenant
        sheds that tenant's own sessions first, and a single tenant can
        never evict every other tenant's residents.  With a store the
        parked snapshot goes to disk too (checkpoint + WAL truncation),
        so a parked session survives a process death exactly like a
        live one.
        """
        while len(self._live) > self.max_sessions:
            counts: dict[str, int] = {}
            for tenant, _name in self._live:
                counts[tenant] = counts.get(tenant, 0) + 1
            top = max(counts.values())
            key = next(  # OrderedDict iterates oldest-first: LRU wins
                k for k in self._live if counts[k[0]] == top
            )
            session = self._live.pop(key)
            snapshot = session.retire()
            self._parked[key] = snapshot
            if self.store is not None:
                try:
                    self.store.checkpoint(key[0], key[1], snapshot)
                except WALError:
                    # the WAL + previous snapshot still hold the durable
                    # state; the store counted the failure
                    pass
            self.counters["evicted"] += 1

    # -- startup recovery --------------------------------------------------

    def recover(self) -> int:
        """Rebuild every session the store holds; returns how many.

        Per session: load the last valid snapshot (quarantine the whole
        directory when it is unreadable), replay the WAL suffix through
        the normal ``update()`` path, stop at the first torn/corrupt/
        unreplayable record (quarantine the tail), then checkpoint the
        recovered state so the next restart starts from a clean epoch.
        Never raises for corrupt state — recovery degrades per session,
        the server keeps serving.
        """
        store = self.store
        if store is None:
            return 0
        recovered = 0
        for tenant, name in store.scan():
            try:
                snapshot, epoch = store.load_snapshot(tenant, name)
            except ServeError as error:
                store.quarantine_session(tenant, name, str(error))
                continue
            try:
                session = ManagedSession.from_snapshot(
                    snapshot, self.queue_depth, self.coalesce
                )
            except ServeError as error:
                store.quarantine_session(tenant, name, str(error))
                continue
            scan = store.read_wal(tenant, name, epoch)
            tail_offset, tail_reason = scan.tail_offset, scan.tail_reason
            replayed = 0
            for index, record in enumerate(scan.records):
                try:
                    for site, deleted, inserted in record["updates"]:
                        session.update(
                            inserted=inserted, deleted=deleted, site=site
                        )
                    replayed += 1
                except Exception as error:  # noqa: BLE001 - poison record
                    tail_offset = scan.offsets[index]
                    tail_reason = f"replay failed: {error}"
                    break
            if tail_reason is not None:
                store.quarantine_wal_tail(
                    tenant, name, epoch, tail_offset, tail_reason
                )
            store.count("replayed_records", replayed)
            # governed only after the replay above: a restart must never
            # be throttled or breaker-gated by client-facing quotas
            self._bind_governor(session)
            with self._lock:
                key = (tenant, name)
                try:
                    # durable state == recovered state from here on; the
                    # WAL restarts at a fresh epoch
                    self._bind_durable(session, checkpoint=True)
                except WALError as error:
                    store.quarantine_session(tenant, name, str(error))
                    continue
                self._live[key] = session
                self._parked.pop(key, None)
                self._shed_locked()
            store.count("recovered_sessions")
            recovered += 1
        return recovered

    def stats(self) -> dict:
        """Registry + per-session counters (the ``/v1/stats`` payload)."""
        with self._lock:
            sessions = {}
            for (tenant, name), session in self._live.items():
                entry = dict(session.stats)
                if session.breaker is not None:
                    entry["breaker"] = session.breaker.stats()
                sessions[f"{tenant}/{name}"] = entry
            payload = {
                "live": len(self._live),
                "parked": len(self._parked),
                "quarantined": len(self._quarantined),
                "max_sessions": self.max_sessions,
                "queue_depth": self.queue_depth,
                "coalesce": self.coalesce,
                **self.counters,
                "sessions": sessions,
            }
            if self.store is not None:
                payload["durability"] = self.store.stats()
            return payload
