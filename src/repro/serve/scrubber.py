"""Background integrity scrubber for resident sessions.

A resident detector that silently drifts from its relation — a bug, a
bit-flip, a bad restore — keeps answering wrong until somebody calls
``verify``.  The scrubber makes that call continuously: a daemon thread
cycles the live sessions every ``REPRO_SERVE_SCRUB`` seconds, running
the session's own seeded ``verify(sample=REPRO_SERVE_SCRUB_SAMPLE)``
against the reference engine (under the normal session locks, like any
client verify), and **quarantines** sessions that fail it: the registry
evicts the session, stale handles flip to a degraded 503 state, and the
durable directory moves to ``.quarantine/`` through the PR 9
:meth:`~repro.serve.durability.DurableStore.quarantine_session` path —
the evidence is preserved, every other session keeps serving.

The scrubber never competes with foreground traffic: a session with
queued tickets (or one mid-retire) is skipped this round and caught on
a later pass.  ``verify-drift@N`` in a :class:`~repro.core.faults.FaultPlan`
forces the Nth scrub check to report drift, so chaos tests drive the
quarantine path deterministically without corrupting real state.

:meth:`Scrubber.scrub_now` runs one synchronous round for tests and
operators; the thread is only cadence around it.
"""

from __future__ import annotations

import threading

from ..core.faults import active_plan
from ..knobs import resolve

#: seed for the scrubber's sampled verifies — fixed so a scrub round is
#: reproducible given the same resident state
SCRUB_SEED = 8


class Scrubber:
    """Cycles live sessions through sampled integrity checks."""

    def __init__(
        self,
        registry,
        interval: float | None = None,
        sample: int | None = None,
        seed: int = SCRUB_SEED,
    ) -> None:
        self.registry = registry
        self.interval = resolve("REPRO_SERVE_SCRUB", interval)
        self.sample = resolve("REPRO_SERVE_SCRUB_SAMPLE", sample)
        self.seed = seed
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.counters = {
            "rounds": 0,
            "scrubbed": 0,
            "skipped_busy": 0,
            "clean": 0,
            "drifted": 0,
            "quarantined": 0,
            "errors": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch the daemon thread (no-op when the interval is 0)."""
        if not self.interval or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread; returns once it is joined."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrub_now()
            except Exception:  # noqa: BLE001 - the scrubber never kills serve
                with self._lock:
                    self.counters["errors"] += 1

    # -- one round ---------------------------------------------------------

    def scrub_now(self) -> dict:
        """One synchronous scrub round over the current live sessions.

        Returns ``{"scrubbed": n, "skipped": n, "quarantined": [keys]}``
        so tests and operators see exactly what the round did.
        """
        with self._lock:
            self.counters["rounds"] += 1
        scrubbed = skipped = 0
        quarantined: list[str] = []
        for session in self.registry.live_sessions():
            # foreground traffic always wins: skip sessions with queued
            # tickets (they get verified on a quieter round)
            if session.busy():
                skipped += 1
                with self._lock:
                    self.counters["skipped_busy"] += 1
                continue
            ok, reason = self._check(session)
            scrubbed += 1
            with self._lock:
                self.counters["scrubbed"] += 1
                self.counters["clean" if ok else "drifted"] += 1
            if ok:
                continue
            if self.registry.quarantine(session.tenant, session.name, reason):
                quarantined.append(f"{session.tenant}/{session.name}")
                with self._lock:
                    self.counters["quarantined"] += 1
        return {
            "scrubbed": scrubbed,
            "skipped": skipped,
            "quarantined": quarantined,
        }

    def _check(self, session) -> tuple[bool, str]:
        """One sampled verify; fault plans can force a drift verdict."""
        plan = active_plan()
        if plan is not None and plan.verify_fault_for(plan.next_verify_order()):
            return False, "injected integrity drift (verify-drift)"
        try:
            ok = session.verify(sample=self.sample, seed=self.seed)
        except Exception as error:  # noqa: BLE001 - drift, typed below
            return False, f"scrub verify raised {type(error).__name__}: {error}"
        if ok:
            return True, ""
        return False, (
            f"scrub verify failed (sample={self.sample}, seed={self.seed}): "
            "resident state disagrees with the reference engine"
        )

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": bool(self.interval),
                "interval": self.interval,
                "sample": self.sample,
                **self.counters,
            }
