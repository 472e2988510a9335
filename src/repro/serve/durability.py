"""Durability for resident sessions: WAL, snapshot store, recovery.

PR 7 made detection state *resident* — this module makes it *durable*.
Every session owning a slot under ``repro serve --data-dir DIR`` gets a
directory with two artifacts:

* an append-only **write-ahead log** of committed update batches.  One
  record per group commit, framed as ``[u32 length][u32 CRC32][JSON
  payload]`` (big-endian header), appended under the session lock after
  the in-memory fold and *before* the tickets settle — an acknowledged
  update is on the log.  The fsync policy is ``REPRO_SERVE_FSYNC``:

  - ``always`` — flush + ``fsync`` after every record: an acknowledged
    update survives power loss;
  - ``batch`` (default) — flush per record (survives process death),
    ``fsync`` at checkpoints: an OS crash can lose at most the records
    since the last checkpoint;
  - ``off``   — buffered writes, flushed at checkpoints only: lowest
    latency, a ``SIGKILL`` may lose recently acknowledged records.

* an **atomic snapshot** (``snapshot.json``): write-temp → flush →
  fsync → ``os.replace`` → directory fsync, so a crash mid-checkpoint
  leaves either the old or the new snapshot, never a torn one.  A
  checkpoint runs every ``REPRO_SERVE_CHECKPOINT`` WAL records and on
  LRU retire.  Snapshot and WAL are tied by an **epoch**: the snapshot
  records epoch ``E`` and the live log is ``wal.E.log``, so truncation
  is just "start ``wal.E+1.log``, delete the old file" — if the process
  dies between the snapshot replace and the unlink, recovery ignores
  the stale epoch's log instead of double-replaying it.

**Recovery** (:meth:`~repro.serve.registry.SessionRegistry.recover`)
scans the store, rebuilds each session from its last valid snapshot and
replays the WAL suffix through the normal ``update()`` path.  The scan
stops cleanly at the first torn frame, CRC mismatch or undecodable
record: the tail from that offset is **quarantined** (copied aside,
logged, counted) and the server keeps serving everything recovered so
far — corruption is an event, not a crash.

Fault injection: :mod:`repro.core.faults` disk kinds (``torn-write``,
``bit-flip``, ``fsync-fail``) hook the append path on their own disk
order counter — one per WAL append — so chaos tests drive the exact
failure the recovery scan must survive.

Lock ordering: journals are leaves.  The registry lock is taken first,
a session's ``_lock`` second, the journal lock last; journal code never
calls back into sessions or the registry, so the PR 7 ordering contract
(registry → session ``_lock`` → session ``_admit``) gains a leaf, not a
cycle.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import struct
import threading
import zlib
from collections import Counter
from pathlib import Path
from urllib.parse import quote, unquote

from ..core.faults import active_plan, disk_failure_for
from ..knobs import resolve
from .service import BadSnapshot, WALError

log = logging.getLogger("repro.serve.durability")

#: WAL frame header: big-endian payload length + CRC32 of the payload
_HEADER = struct.Struct(">II")

#: a frame longer than this is treated as a corrupt length field — no
#: legitimate record comes close, and it stops a garbage length from
#: swallowing the rest of the scan
_MAX_RECORD = 1 << 30


def _encode(part: str) -> str:
    """A filesystem-safe single path component for a tenant/name.

    Percent-encodes everything outside the unreserved set; a leading
    dot is escaped too so no session can alias ``.``, ``..`` or the
    store's own dot-prefixed bookkeeping directories.
    """
    quoted = quote(str(part), safe="")
    if quoted.startswith("."):
        quoted = "%2E" + quoted[1:]
    return quoted or "%"


def _decode(part: str) -> str:
    return unquote(part)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort on
    platforms whose directories cannot be opened."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalScan:
    """The result of reading one WAL file: valid records + tail verdict."""

    __slots__ = ("records", "offsets", "tail_offset", "tail_reason")

    def __init__(self, records, offsets, tail_offset, tail_reason) -> None:
        self.records = records          #: decoded record payloads, in order
        self.offsets = offsets          #: byte offset of each record's frame
        self.tail_offset = tail_offset  #: where the valid prefix ends
        self.tail_reason = tail_reason  #: None, or why the scan stopped


def read_wal(path: Path) -> WalScan:
    """Decode the valid prefix of a WAL file; never raises on corruption.

    Stops at the first torn frame (short header or payload), CRC
    mismatch, oversized length field or undecodable payload and reports
    the reason — the caller decides to quarantine.  A missing file is an
    empty, clean log.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalScan([], [], 0, None)
    records: list[dict] = []
    offsets: list[int] = []
    offset = 0
    tail_reason = None
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            tail_reason = "torn frame header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD:
            tail_reason = f"corrupt length field ({length})"
            break
        start = offset + _HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            tail_reason = "torn record payload"
            break
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            tail_reason = "CRC mismatch"
            break
        try:
            entry = json.loads(payload)
        except ValueError:
            tail_reason = "undecodable record payload"
            break
        if not isinstance(entry, dict) or "updates" not in entry:
            tail_reason = "malformed record shape"
            break
        records.append(entry)
        offsets.append(offset)
        offset = start + length
    return WalScan(records, offsets, offset, tail_reason)


#: rows per ``json.dumps`` call when a checkpoint writes a fragment.
#: Small on purpose: every slice is a transient string, and the server's
#: resident-set high-water mark follows its size (20K-row session: 4096
#: rows/slice +2.9 MiB, 256 +0.05 MiB, at the same checkpoint time)
_SNAPSHOT_SLICE = 256


def _write_snapshot(handle, epoch: int, snapshot: dict) -> None:
    """Write the ``{"epoch", "session"}`` checkpoint document.

    The caller holds the session lock, so this is a stall every queued
    writer pays.  ``json.dump`` to a file runs the pure-Python encoder
    (one ``write`` per token — about a million for a 20K-row session);
    ``json.dumps`` runs the C one, but on the whole document it would
    hold a second copy of the session as one string.  So: everything
    but the rows in one ``dumps``, each fragment's rows in slices of
    :data:`_SNAPSHOT_SLICE`.  ``fragments`` moves to the end of the
    session object; :meth:`DurableStore.load_snapshot` parses the same
    document either way.
    """
    session = dict(snapshot)
    fragments = session.pop("fragments")
    head = json.dumps(
        {"epoch": epoch, "session": session}, separators=(",", ":")
    )
    # reopen the session object: drop its "}}", append the last key
    handle.write(head[:-2] + ',"fragments":[')
    for index, rows in enumerate(fragments):
        handle.write(",[" if index else "[")
        for start in range(0, len(rows), _SNAPSHOT_SLICE):
            chunk = json.dumps(
                rows[start:start + _SNAPSHOT_SLICE], separators=(",", ":")
            )
            if start:
                handle.write(",")
            handle.write(chunk[1:-1])
        handle.write("]")
    handle.write("]}}")


class SessionJournal:
    """One session's durable artifacts: the live WAL file + snapshot.

    Thread-safe and a lock leaf (see the module doc).  Owned by the
    :class:`DurableStore`, bound to the live ``ManagedSession`` via
    ``bind_journal`` — it survives LRU retire/restore cycles.
    """

    def __init__(self, store: "DurableStore", tenant: str, name: str) -> None:
        self._store = store
        self.tenant = tenant
        self.name = name
        self.directory = store.session_dir(tenant, name)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / "snapshot.json"
        self._lock = threading.Lock()
        self._epoch = self._stored_epoch()
        self._file = open(self.wal_path(self._epoch), "ab")
        #: bytes of valid committed records; a failed append truncates
        #: back to here so the *next* committed record is recoverable
        self._size = self.wal_path(self._epoch).stat().st_size
        self._since_checkpoint = 0
        self._wedged = False

    def wal_path(self, epoch: int) -> Path:
        return self.directory / f"wal.{epoch:08d}.log"

    def _stored_epoch(self) -> int:
        try:
            header = json.loads(self.snapshot_path.read_text())
            return int(header["epoch"])
        except (OSError, ValueError, TypeError, KeyError):
            return 0

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def wedged(self) -> bool:
        """Whether append repair gave up: every further log() fails
        until a checkpoint rolls the epoch.  Feeds ``/healthz``."""
        with self._lock:
            return self._wedged

    # -- the append path ---------------------------------------------------

    def log(self, committed: list) -> None:
        """Append one committed batch as a framed record.

        Raises :class:`WALError` when the record cannot be made durable
        (I/O failure, injected disk fault, unserializable values) — the
        session settles the batch's tickets with that error.
        """
        try:
            payload = json.dumps(
                {"updates": committed}, separators=(",", ":")
            ).encode("utf-8")
        except (TypeError, ValueError) as error:
            self._store.count("wal_errors")
            raise WALError(
                f"update batch is not JSON-serializable: {error}"
            ) from None
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        fault = None
        plan = active_plan()
        if plan is not None:
            order = plan.next_disk_order()
            fault = plan.disk_fault_for(order)
        if fault == "bit-flip":
            # written whole, CRC already computed: silent corruption
            # only recovery's checksum scan can see
            flipped = bytearray(payload)
            flipped[len(flipped) // 2] ^= 0x40
            payload = bytes(flipped)
        frame = _HEADER.pack(len(payload), crc) + payload
        with self._lock:
            if self._wedged:
                self._store.count("wal_errors")
                raise WALError(
                    f"WAL for {self.tenant}/{self.name} is wedged after an "
                    "unrepairable append failure; updates are refused until "
                    "restart"
                )
            try:
                if fault == "torn-write":
                    self._file.write(frame[: max(1, len(frame) // 2)])
                    self._file.flush()
                    raise disk_failure_for("torn-write", order)
                self._file.write(frame)
                policy = self._store.fsync
                if policy in ("always", "batch"):
                    self._file.flush()
                if fault == "fsync-fail":
                    raise disk_failure_for("fsync-fail", order)
                if policy == "always":
                    os.fsync(self._file.fileno())
                    self._store.count("fsyncs")
            except OSError as error:
                # truncate back to the last good record so the appends
                # that follow stay recoverable: without the repair, a
                # torn frame in the middle would make the recovery scan
                # stop early and drop later *acknowledged* records
                self._repair_locked()
                self._store.count("wal_errors")
                raise WALError(
                    f"WAL append failed for {self.tenant}/{self.name}: "
                    f"{error}"
                ) from error
            self._size += len(frame)
            self._since_checkpoint += 1
            self._store.count("wal_records")
            self._store.count("wal_bytes", len(frame))

    def _repair_locked(self) -> None:
        """Cut a failed append's partial frame off the log.

        If even the repair fails the journal wedges: every later append
        raises — refusing updates loudly beats acknowledging records a
        restart cannot see.
        """
        try:
            self._file.flush()
            self._file.truncate(self._size)
        except OSError:
            self._wedged = True

    def checkpoint_due(self) -> bool:
        with self._lock:
            return self._since_checkpoint >= self._store.checkpoint_every

    # -- checkpoints -------------------------------------------------------

    def checkpoint(self, snapshot: dict) -> None:
        """Atomically persist ``snapshot`` and truncate the WAL.

        Write-temp → flush → fsync → ``os.replace`` → directory fsync,
        then switch to the next epoch's (empty) log file and delete the
        old one.  On failure the old snapshot + full WAL still hold the
        session's durable state, so the caller may keep serving.
        """
        with self._lock:
            new_epoch = self._epoch + 1
            temp = self.snapshot_path.with_suffix(".json.tmp")
            try:
                with open(temp, "w", encoding="utf-8") as handle:
                    _write_snapshot(handle, new_epoch, snapshot)
                    handle.flush()
                    if self._store.fsync != "off":
                        os.fsync(handle.fileno())
                os.replace(temp, self.snapshot_path)
                if self._store.fsync != "off":
                    _fsync_dir(self.directory)
                    self._store.count("fsyncs")
            except (OSError, TypeError, ValueError) as error:
                self._store.count("checkpoint_errors")
                try:
                    temp.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - best effort
                    pass
                raise WALError(
                    f"checkpoint failed for {self.tenant}/{self.name}: "
                    f"{error}"
                ) from error
            old_file, old_epoch = self._file, self._epoch
            self._file = open(self.wal_path(new_epoch), "ab")
            self._epoch = new_epoch
            self._size = 0
            self._since_checkpoint = 0
            self._wedged = False
            old_file.close()
            try:
                os.unlink(self.wal_path(old_epoch))
            except OSError:  # pragma: no cover - stale log is harmless
                pass
            self._store.count("checkpoints")

    def close(self) -> None:
        with self._lock:
            try:
                self._file.flush()
                self._file.close()
            except OSError:  # pragma: no cover - already broken
                pass


class DurableStore:
    """The ``--data-dir`` root: one directory per (tenant, name).

    Layout::

        DIR/<tenant>/<name>/snapshot.json      {"epoch": E, "session": ...}
        DIR/<tenant>/<name>/wal.<E>.log        the live epoch's WAL
        DIR/.quarantine/...                    corrupt artifacts, kept aside

    Tenant/name path components are percent-encoded (never dot-leading),
    so arbitrary session names cannot escape or alias the layout.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fsync: str | None = None,
        checkpoint: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = resolve("REPRO_SERVE_FSYNC", fsync)
        self.checkpoint_every = resolve("REPRO_SERVE_CHECKPOINT", checkpoint)
        self._lock = threading.Lock()
        self._journals: dict[tuple[str, str], SessionJournal] = {}
        self.counters: Counter = Counter()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def session_dir(self, tenant: str, name: str) -> Path:
        return self.root / _encode(tenant) / _encode(name)

    def journal(self, tenant: str, name: str) -> SessionJournal:
        """The (cached) journal for one session, creating its directory."""
        key = (tenant, name)
        with self._lock:
            journal = self._journals.get(key)
            if journal is None:
                journal = SessionJournal(self, tenant, name)
                self._journals[key] = journal
            return journal

    def checkpoint(self, tenant: str, name: str, snapshot: dict) -> None:
        self.journal(tenant, name).checkpoint(snapshot)

    def drop(self, tenant: str, name: str) -> None:
        """Forget a session's durable state (session drop is permanent)."""
        with self._lock:
            journal = self._journals.pop((tenant, name), None)
        if journal is not None:
            journal.close()
        shutil.rmtree(self.session_dir(tenant, name), ignore_errors=True)

    def close(self) -> None:
        with self._lock:
            journals = list(self._journals.values())
            self._journals.clear()
        for journal in journals:
            journal.close()

    # -- recovery-side reads ----------------------------------------------

    def scan(self):
        """Yield every (tenant, name) with durable state, sorted."""
        found = []
        try:
            tenant_dirs = sorted(self.root.iterdir())
        except OSError:
            return []
        for tenant_dir in tenant_dirs:
            if not tenant_dir.is_dir() or tenant_dir.name.startswith("."):
                continue
            for session_dir in sorted(tenant_dir.iterdir()):
                if session_dir.is_dir() and not session_dir.name.startswith("."):
                    found.append(
                        (_decode(tenant_dir.name), _decode(session_dir.name))
                    )
        return found

    def load_snapshot(self, tenant: str, name: str) -> tuple[dict, int]:
        """The last checkpointed (session snapshot, epoch) pair.

        Raises :class:`BadSnapshot` — never ``json.JSONDecodeError`` or
        ``KeyError`` — for missing, truncated or garbage files, so
        recovery can quarantine instead of crashing.
        """
        path = self.session_dir(tenant, name) / "snapshot.json"
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as error:
            raise BadSnapshot(
                f"cannot read snapshot for {tenant}/{name}: {error}"
            ) from None
        try:
            document = json.loads(raw)
        except ValueError as error:
            raise BadSnapshot(
                f"snapshot for {tenant}/{name} is not valid JSON: {error}"
            ) from None
        if (
            not isinstance(document, dict)
            or not isinstance(document.get("epoch"), int)
            or not isinstance(document.get("session"), dict)
        ):
            raise BadSnapshot(
                f"snapshot for {tenant}/{name} is missing epoch/session"
            )
        return document["session"], document["epoch"]

    def read_wal(self, tenant: str, name: str, epoch: int) -> WalScan:
        return read_wal(self.session_dir(tenant, name) / f"wal.{epoch:08d}.log")

    # -- quarantine --------------------------------------------------------

    def _quarantine_root(self) -> Path:
        path = self.root / ".quarantine"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _quarantine_target(self, stem: str) -> Path:
        root = self._quarantine_root()
        for suffix in range(10_000):
            candidate = root / f"{stem}.{suffix}"
            if not candidate.exists():
                return candidate
        raise WALError(f"quarantine area overflow for {stem}")  # pragma: no cover

    def quarantine_wal_tail(
        self, tenant: str, name: str, epoch: int, offset: int, reason: str
    ) -> None:
        """Copy the invalid WAL suffix aside and log why it was cut."""
        source = self.session_dir(tenant, name) / f"wal.{epoch:08d}.log"
        target = self._quarantine_target(
            f"{_encode(tenant)}__{_encode(name)}.wal"
        )
        try:
            data = source.read_bytes()
            target.write_bytes(data[offset:])
        except OSError as error:  # pragma: no cover - forensics only
            log.warning(
                "could not quarantine WAL tail for %s/%s: %s",
                tenant, name, error,
            )
        self.count("quarantined_tails")
        log.warning(
            "quarantined WAL tail of %s/%s at offset %d (%s) -> %s; "
            "recovered state stops at the last valid record",
            tenant, name, offset, reason, target,
        )

    def quarantine_session(self, tenant: str, name: str, reason: str) -> None:
        """Move a session's whole directory aside (unusable snapshot)."""
        with self._lock:
            journal = self._journals.pop((tenant, name), None)
        if journal is not None:
            journal.close()
        source = self.session_dir(tenant, name)
        target = self._quarantine_target(f"{_encode(tenant)}__{_encode(name)}")
        try:
            os.replace(source, target)
        except OSError:  # pragma: no cover - cross-device fallback
            shutil.move(str(source), str(target))
        self.count("quarantined_snapshots")
        log.warning(
            "quarantined session %s/%s (%s) -> %s; the server keeps serving",
            tenant, name, reason, target,
        )

    def stats(self) -> dict:
        """The ``durability`` block of ``/v1/stats``."""
        with self._lock:
            return {
                "data_dir": str(self.root),
                "fsync": self.fsync,
                "checkpoint_every": self.checkpoint_every,
                **dict(self.counters),
            }
