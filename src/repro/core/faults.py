"""Deterministic fault injection for the durable, governed service.

Disks die and folds fail, yet a simulation is only honest about that if
every failure mode is **reproducible**: a torn write that appears once
per thousand CI runs is a flake, not a test.  This module makes failures
first-class and deterministic:

* a :class:`FaultPlan` maps **order sequence numbers** to fault kinds.
  Every family of kinds counts on its own monotonically increasing
  sequence — one order per WAL append (:data:`DISK_FAULT_KINDS`), per
  session fold attempt and per scrubber verify
  (:data:`SERVE_FAULT_KINDS`) — so disk chaos and serve chaos compose in
  one plan without renumbering each other.

* activation via the ``REPRO_FAULTS`` environment variable or the
  :func:`install_fault_plan` / :func:`fault_plan` API.  The spec grammar
  is comma-separated ``kind@order`` entries::

      REPRO_FAULTS="torn-write@2,fsync-fail@5"   # disk faults (WAL appends)
      REPRO_FAULTS="fold-fail@0,verify-drift@3"  # serve faults

  Each entry fires **once**, so a retried operation succeeds and recovery
  is observable.  Anything else — an unknown kind, a non-integer order, a
  bare word or an ``option=value`` — is a :class:`FaultSpecError`.

Injected faults surface as the exception the real failure would raise
(:class:`DiskFaultInjected` is an :class:`OSError`,
:class:`FoldFaultInjected` a plain :class:`RuntimeError`), so chaos tests
exercise the production handling path, not a special injected one.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from ..knobs import resolve

#: disk fault kinds, keyed by the **disk order** counter (one per WAL
#: append):
#:
#: - ``torn-write``  — the append writes only a prefix of the record
#:   frame, then fails, exactly like a crash mid-``write(2)``;
#: - ``bit-flip``    — the record is written whole but one payload byte
#:   is flipped *after* the CRC was computed: silent corruption that only
#:   recovery's checksum scan can see;
#: - ``fsync-fail``  — the append's ``fsync`` raises, like a dying disk.
DISK_FAULT_KINDS = ("torn-write", "bit-flip", "fsync-fail")

#: resident-service fault kinds, each on its own order counter so serve
#: chaos composes with disk chaos in one plan:
#:
#: - ``fold-fail``    — the Nth session fold attempt raises before any
#:   state mutates (one order per fold attempt); drives the per-session
#:   circuit breaker deterministically;
#: - ``verify-drift`` — the Nth *scrubber* integrity check reports drift
#:   (one order per scrub verify); drives the quarantine path without
#:   needing to actually corrupt resident state.
SERVE_FAULT_KINDS = ("fold-fail", "verify-drift")


class FaultSpecError(ValueError):
    """An unparsable ``REPRO_FAULTS`` specification."""


class DiskFaultInjected(OSError):
    """An injected disk fault surfaced (torn write / failed fsync).

    Deliberately an :class:`OSError`: the durability layer must treat an
    injected torn write or fsync failure exactly like the real one, so
    chaos tests exercise the same handling path production errors take.
    """


class FoldFaultInjected(RuntimeError):
    """An injected session fold failure (``fold-fail@N``).

    Deliberately a plain :class:`RuntimeError` raised *before* the
    detector mutates: the serve layer must treat it exactly like a real
    mid-fold application error — transactional rollback, per-ticket
    fallback, circuit-breaker accounting — so chaos tests exercise the
    production failure path, not a special injected one.
    """


class FaultPlan:
    """A deterministic schedule of injected faults, keyed by order number.

    ``disk`` and ``serve`` map a fault kind to the order sequence numbers
    it fires at; each entry fires at most once.  Thread-safe: the
    resident service consults one plan from several request threads.
    """

    def __init__(
        self,
        disk: Mapping[str, Iterable[int]] | None = None,
        serve: Mapping[str, Iterable[int]] | None = None,
    ) -> None:
        self.disk = {kind: frozenset() for kind in DISK_FAULT_KINDS}
        for kind, orders in (disk or {}).items():
            if kind not in DISK_FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown disk fault kind {kind!r}; use {DISK_FAULT_KINDS}"
                )
            self.disk[kind] = frozenset(orders)
        self.serve = {kind: frozenset() for kind in SERVE_FAULT_KINDS}
        for kind, orders in (serve or {}).items():
            if kind not in SERVE_FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown serve fault kind {kind!r}; "
                    f"use {SERVE_FAULT_KINDS}"
                )
            self.serve[kind] = frozenset(orders)
        #: independent counters: one per WAL append, one per session fold
        #: attempt and one per scrubber verify, so ``fold-fail@3`` means
        #: the 4th fold whatever the WAL is doing
        self._disk_next = 0
        self._fold_next = 0
        self._verify_next = 0
        self._fired: set[tuple[str, int]] = set()
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` grammar (see module doc)."""
        disk_orders: dict[str, list[int]] = {
            kind: [] for kind in DISK_FAULT_KINDS
        }
        serve_orders: dict[str, list[int]] = {
            kind: [] for kind in SERVE_FAULT_KINDS
        }
        for raw in spec.split(","):
            part = raw.strip()
            if not part:
                continue
            kind, at, position = part.partition("@")
            if not at:
                raise FaultSpecError(
                    f"cannot parse REPRO_FAULTS entry {part!r}; expected "
                    "kind@order"
                )
            kind = kind.strip()
            if kind in disk_orders:
                target = disk_orders
            elif kind in serve_orders:
                target = serve_orders
            else:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in REPRO_FAULTS "
                    f"entry {part!r}; use one of "
                    f"{DISK_FAULT_KINDS + SERVE_FAULT_KINDS}"
                )
            try:
                target[kind].append(int(position))
            except ValueError:
                raise FaultSpecError(
                    f"fault order must be an integer in REPRO_FAULTS "
                    f"entry {part!r}"
                ) from None
        return cls(disk=disk_orders, serve=serve_orders)

    def _fire(self, kind: str, orders: frozenset, order: int) -> bool:
        """Whether ``kind`` fires at ``order`` — at most once per entry."""
        with self._lock:
            if order in orders and (kind, order) not in self._fired:
                self._fired.add((kind, order))
                return True
        return False

    def next_disk_order(self) -> int:
        """Allot the next disk order number (one per WAL append attempt)."""
        with self._lock:
            order = self._disk_next
            self._disk_next = order + 1
            return order

    def disk_fault_for(self, order: int) -> str | None:
        """The disk fault kind to inject at disk ``order`` (one-shot)."""
        for kind in DISK_FAULT_KINDS:
            if self._fire(kind, self.disk[kind], order):
                return kind
        return None

    def next_fold_order(self) -> int:
        """Allot the next serve fold order number (one per fold attempt)."""
        with self._lock:
            order = self._fold_next
            self._fold_next = order + 1
            return order

    def fold_fault_for(self, order: int) -> bool:
        """Whether the fold at serve ``order`` must fail (one-shot)."""
        return self._fire("fold-fail", self.serve["fold-fail"], order)

    def next_verify_order(self) -> int:
        """Allot the next scrub verify order number (one per check)."""
        with self._lock:
            order = self._verify_next
            self._verify_next = order + 1
            return order

    def verify_fault_for(self, order: int) -> bool:
        """Whether the scrub check at ``order`` reports drift (one-shot)."""
        return self._fire("verify-drift", self.serve["verify-drift"], order)

    def reset(self) -> None:
        """Forget fired entries and restart every order counter."""
        with self._lock:
            self._disk_next = 0
            self._fold_next = 0
            self._verify_next = 0
            self._fired.clear()

    def __repr__(self) -> str:
        parts = [
            f"{kind}@{order}"
            for orders in (self.disk, self.serve)
            for kind in orders
            for order in sorted(orders[kind])
        ]
        return f"FaultPlan({', '.join(parts) or 'empty'})"


#: the API-installed plan; takes priority over ``REPRO_FAULTS``.
_ACTIVE: FaultPlan | None = None
#: parse cache for the environment plan: (spec string, plan).  The plan
#: object is stateful (fired set, order counter), so re-parsing per call
#: would silently reset it — the cache keys on the exact spec text.
_ENV_PLAN: tuple[str, FaultPlan] | None = None


def install_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide (``None`` uninstalls); returns it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


class fault_plan:
    """Context manager: install a plan for a ``with`` block, then restore."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._previous = _ACTIVE
        install_fault_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        install_fault_plan(self._previous)


def active_plan() -> FaultPlan | None:
    """The plan in force: the API-installed one, else ``REPRO_FAULTS``."""
    global _ENV_PLAN
    if _ACTIVE is not None:
        return _ACTIVE
    plan = resolve("REPRO_FAULTS")
    if plan is None:
        _ENV_PLAN = None  # a later spec starts from a fresh plan
    return plan


def env_plan(spec: str) -> FaultPlan:
    """The plan of one ``REPRO_FAULTS`` spec (the knob's parser),
    parsed once and kept while the spec text stays the same."""
    global _ENV_PLAN
    if _ENV_PLAN is None or _ENV_PLAN[0] != spec:
        _ENV_PLAN = (spec, FaultPlan.parse(spec))
    return _ENV_PLAN[1]


def disk_failure_for(kind: str, order: int) -> DiskFaultInjected:
    """The :class:`OSError` an injected disk fault surfaces as."""
    return DiskFaultInjected(f"injected {kind} at disk order {order}")
