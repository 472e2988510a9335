"""Overload governor: admission control, quotas and circuit breakers.

The serve stack built up through PRs 7 and 9 keeps a session *correct*
under concurrency and process death; this module keeps the whole
service *well-behaved* under load it cannot absorb.  Three mechanisms,
all deciding **before** any fold runs so a rejected request never
partially applies:

* **token-bucket request rates** — each tenant draws from its own
  bucket (``REPRO_SERVE_RATE`` requests/second, burst = one second of
  rate); an empty bucket yields :class:`~repro.serve.service.QuotaExceeded`
  (429 + ``Retry-After`` telling the client exactly when a token will
  exist);
* **per-tenant caps** — resident sessions per tenant
  (``REPRO_SERVE_TENANT_SESSIONS``), queued update tickets per tenant
  (sessions-cap × queue depth), and rows per update
  (``REPRO_SERVE_MAX_ROWS``), so one tenant can neither occupy every
  registry slot nor wedge every handler thread behind its queues;
* **per-session circuit breakers** — :class:`CircuitBreaker` opens
  after K consecutive fold/WAL failures (``REPRO_SERVE_BREAKER``),
  serves :class:`~repro.serve.service.CircuitOpen` (503 +
  ``Retry-After``) for ``REPRO_SERVE_COOLDOWN`` seconds, then admits a
  single half-open probe: success closes it, failure re-opens it.

The governor also stamps the admission **deadline** on update tickets
(``REPRO_SERVE_DEADLINE``): the group-commit leader drops tickets that
expired while queued (:class:`~repro.serve.service.DeadlineExceeded`)
*before* folding them, bounding the p99 of what it does accept.

Locking: the governor holds one internal lock and never calls out of
this module while holding it — like the journals it is a **leaf** in
the lock order (registry lock → session locks → governor/journal), so
admission checks can run from any layer without inversion risk.
"""

from __future__ import annotations

import threading
import time

from ..knobs import resolve
from .service import CircuitOpen, QuotaExceeded

class TokenBucket:
    """One tenant's request-rate bucket: ``rate`` tokens/second, burst
    of one second's worth (at least one token)."""

    def __init__(self, rate: float, clock=time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = max(1.0, self.rate)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> float | None:
        """Take one token; ``None`` on success, else seconds until one
        will exist (the ``Retry-After`` the client sees)."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


class CircuitBreaker:
    """Per-session breaker: closed → open after K consecutive failures,
    half-open after the cool-down, one probe decides.

    State transitions are counted so they are visible in ``/v1/stats``;
    :meth:`admit` is the only method that raises, always *before* the
    caller enqueues any work.
    """

    def __init__(
        self, threshold: int, cooldown: float, clock=time.monotonic
    ) -> None:
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0
        #: when the current half-open probe was admitted; None = no
        #: probe yet.  Time-bounded (one probe per cool-down window)
        #: rather than flag-bounded, so a probe that dies before its
        #: fold (shed, backpressure) can never wedge the breaker.
        self._probe_at: float | None = None
        self.counters = {
            "opened": 0,
            "reopened": 0,
            "closed": 0,
            "probes": 0,
            "rejected": 0,
        }

    def admit(self) -> None:
        """Gate one request; raises :class:`CircuitOpen` when tripped.

        While open, the first caller after the cool-down becomes the
        half-open probe; everyone else keeps getting 503 until the probe
        settles via :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if self._state == "closed":
                return
            if self._state == "open":
                remaining = self.cooldown - (self._clock() - self._opened_at)
                if remaining > 0:
                    self.counters["rejected"] += 1
                    raise CircuitOpen(
                        f"circuit open after {self._consecutive} consecutive "
                        f"failures; probe in {remaining:.3f}s",
                        retry_after=max(remaining, 0.001),
                    )
                self._state = "half-open"
                self._probe_at = None
            # half-open: one probe per cool-down window
            now = self._clock()
            if (
                self._probe_at is not None
                and now - self._probe_at < self.cooldown
            ):
                self.counters["rejected"] += 1
                raise CircuitOpen(
                    "circuit half-open; a probe is already in flight",
                    retry_after=self.cooldown - (now - self._probe_at),
                )
            self._probe_at = now
            self.counters["probes"] += 1

    def record_success(self) -> None:
        """A fold committed: close (and reset) from any state."""
        with self._lock:
            if self._state != "closed":
                self.counters["closed"] += 1
            self._state = "closed"
            self._consecutive = 0
            self._probe_at = None

    def record_failure(self) -> None:
        """A fold/WAL failure: count it; trip at the threshold, and
        re-open immediately when a half-open probe fails."""
        with self._lock:
            self._consecutive += 1
            if self._state == "half-open":
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_at = None
                self.counters["reopened"] += 1
            elif (
                self._state == "closed"
                and self._consecutive >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self.counters["opened"] += 1

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "threshold": self.threshold,
                **self.counters,
            }


class Governor:
    """The service-wide admission authority; one per ``DetectionService``.

    Every quota decision funnels through here so ``/v1/stats`` can show
    one coherent picture: per-tenant buckets and pending-ticket counts,
    plus shed counters per rejection reason.  All methods are
    thread-safe; the internal lock is a leaf (never held across calls
    into sessions, the registry or journals).
    """

    def __init__(
        self,
        tenant_sessions: int | None = None,
        rate: float | None = None,
        max_rows: int | None = None,
        deadline: float | None = None,
        breaker: int | None = None,
        cooldown: float | None = None,
        queue_depth: int = 64,
        clock=time.monotonic,
    ) -> None:
        self.tenant_sessions = resolve(
            "REPRO_SERVE_TENANT_SESSIONS", tenant_sessions
        )
        self.rate = resolve("REPRO_SERVE_RATE", rate)
        self.max_rows = resolve("REPRO_SERVE_MAX_ROWS", max_rows)
        self.deadline = resolve("REPRO_SERVE_DEADLINE", deadline)
        self.breaker_threshold = resolve("REPRO_SERVE_BREAKER", breaker)
        self.cooldown = resolve("REPRO_SERVE_COOLDOWN", cooldown)
        #: queued tickets a tenant may hold across its sessions; bounded
        #: only when the per-tenant session cap is (cap × queue depth)
        self.ticket_cap = (
            self.tenant_sessions * int(queue_depth)
            if self.tenant_sessions
            else 0
        )
        self.clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._pending: dict[str, int] = {}
        self.shed = {
            "rate": 0,
            "rows": 0,
            "tickets": 0,
            "sessions": 0,
            "deadline": 0,
        }

    # -- admission ---------------------------------------------------------

    def admit_request(self, tenant: str, rows: int = 0) -> None:
        """Rate + row-volume gate; runs before any registry lookup.

        Raises :class:`QuotaExceeded` (→ 429 + ``Retry-After``) when the
        tenant's bucket is dry or the update carries more rows than
        ``REPRO_SERVE_MAX_ROWS``.  Never called from recovery replay —
        restarts must not be throttled by client-facing quotas.
        """
        if rows > self.max_rows:
            with self._lock:
                self.shed["rows"] += 1
            raise QuotaExceeded(
                f"update carries {rows} rows; tenant cap is "
                f"{self.max_rows} rows per update",
                retry_after=0.0,
            )
        if not self.rate:
            return
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, clock=self.clock)
                self._buckets[tenant] = bucket
        retry_after = bucket.try_acquire()
        if retry_after is not None:
            with self._lock:
                self.shed["rate"] += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} is over its {self.rate:g} req/s rate",
                retry_after=round(retry_after, 3),
            )

    def admit_session(self, tenant: str, owned: int) -> None:
        """Gate a session create: ``owned`` is the tenant's current
        resident-session count (live + parked + in-flight creates)."""
        if self.tenant_sessions and owned >= self.tenant_sessions:
            with self._lock:
                self.shed["sessions"] += 1
            raise QuotaExceeded(
                f"tenant {tenant!r} already holds {owned} sessions "
                f"(cap {self.tenant_sessions}); drop one first",
                retry_after=0.0,
            )

    def ticket_admitted(self, tenant: str) -> None:
        """Count one queued ticket against the tenant; quota-checked."""
        with self._lock:
            pending = self._pending.get(tenant, 0)
            if self.ticket_cap and pending >= self.ticket_cap:
                self.shed["tickets"] += 1
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {pending} updates in flight "
                    f"(cap {self.ticket_cap}); retry shortly"
                )
            self._pending[tenant] = pending + 1

    def ticket_settled(self, tenant: str) -> None:
        """Release the ticket counted by :meth:`ticket_admitted`."""
        with self._lock:
            pending = self._pending.get(tenant, 0) - 1
            if pending > 0:
                self._pending[tenant] = pending
            else:
                self._pending.pop(tenant, None)

    # -- deadlines & breakers ---------------------------------------------

    def deadline_for(self) -> float | None:
        """The absolute queue deadline for a ticket admitted now."""
        if not self.deadline:
            return None
        return self.clock() + self.deadline

    def count_expired(self, n: int = 1) -> None:
        """Account tickets the group-commit leader shed as expired."""
        with self._lock:
            self.shed["deadline"] += n

    def new_breaker(self) -> CircuitBreaker:
        """A fresh per-session breaker (sessions reset on restore)."""
        return CircuitBreaker(
            self.breaker_threshold, self.cooldown, clock=self.clock
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "rate": self.rate,
                "max_rows": self.max_rows,
                "tenant_sessions": self.tenant_sessions,
                "ticket_cap": self.ticket_cap,
                "deadline": self.deadline,
                "breaker_threshold": self.breaker_threshold,
                "cooldown": self.cooldown,
                "pending_by_tenant": dict(self._pending),
                "shed": dict(self.shed),
            }
