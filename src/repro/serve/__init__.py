"""The resident multi-tenant detection service (``repro serve``).

One resident ``Incremental*Detector`` session per (tenant, relation-id,
Σ), driven concurrently over HTTP: group-commit coalescing before the
delta fold, bounded per-session queues with backpressure, and an
LRU-bounded registry that retires sessions into restorable snapshots.
See :mod:`repro.serve.service` for the session machinery and
:mod:`repro.serve.http` for the wire protocol.
"""

from .durability import DurableStore, SessionJournal, WalScan, read_wal
from .governor import CircuitBreaker, Governor, TokenBucket
from .http import ServeHandler, serve_http
from .registry import SessionRegistry
from .scrubber import Scrubber
from .service import (
    Backpressure,
    BadSessionSpec,
    BadSnapshot,
    CircuitOpen,
    DeadlineExceeded,
    DetectionService,
    DuplicateSession,
    ManagedSession,
    PayloadTooLarge,
    QuotaExceeded,
    SESSION_KINDS,
    ServeError,
    SessionQuarantined,
    SessionRetired,
    UnknownSession,
    WALError,
)

__all__ = [
    "Backpressure",
    "BadSessionSpec",
    "BadSnapshot",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "DetectionService",
    "DuplicateSession",
    "DurableStore",
    "Governor",
    "ManagedSession",
    "PayloadTooLarge",
    "QuotaExceeded",
    "SESSION_KINDS",
    "Scrubber",
    "ServeError",
    "ServeHandler",
    "SessionJournal",
    "SessionQuarantined",
    "SessionRegistry",
    "SessionRetired",
    "TokenBucket",
    "UnknownSession",
    "WALError",
    "WalScan",
    "read_wal",
    "serve_http",
]
