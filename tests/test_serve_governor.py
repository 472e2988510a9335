"""The overload governor and integrity scrubber (`repro.serve`).

Covers admission control (token-bucket rates, rows-per-update and
per-tenant session/ticket caps), per-session circuit breakers driven by
deterministic ``fold-fail@N`` fault plans, deadline-aware group commit,
the background scrubber's quarantine path (``verify-drift@N``), the
tenant-fair LRU shed, the lock-free slow-create path and the HTTP
surfaces (413 body cap, 429/503 + ``Retry-After``, truthful
``/healthz``).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import (
    FaultPlan,
    detect_violations_reference,
    fault_plan,
    parse_cfd,
)
from repro.core.faults import FoldFaultInjected
from repro.knobs import resolve
from repro.relational import Relation, Schema
from repro.serve import (
    Backpressure,
    BadSessionSpec,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    DetectionService,
    DuplicateSession,
    Governor,
    QuotaExceeded,
    SessionQuarantined,
    TokenBucket,
    UnknownSession,
    serve_http,
)
from repro.serve.service import ManagedSession, _Ticket

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {
    "name": "cust",
    "attributes": ["id", "CC", "zip", "street"],
    "key": ["id"],
}


def base_rows(n: int = 60) -> list[list]:
    rows = []
    for i in range(n):
        zip_code = f"Z{i % 7}"
        street = f"S{i % 3}" if i % 5 else "CONFLICT"
        rows.append([i, 44 if i % 2 else 99, zip_code, street])
    return rows


def spec(rows, kind="central", cfds=(CFD,)) -> dict:
    return {"kind": kind, "schema": SCHEMA, "cfds": list(cfds), "rows": rows}


class Clock:
    """A hand-cranked monotonic clock for deterministic time logic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- knob resolvers -----------------------------------------------------------


def test_governor_knob_resolvers(monkeypatch):
    assert resolve("REPRO_SERVE_RATE") == 0.0
    assert resolve("REPRO_SERVE_TENANT_SESSIONS") == 0
    assert resolve("REPRO_SERVE_MAX_ROWS") == 100_000
    assert resolve("REPRO_SERVE_BREAKER") == 5
    assert resolve("REPRO_SERVE_COOLDOWN") == 1.0
    assert resolve("REPRO_SERVE_MAX_BODY") == 8 * 1024 * 1024
    assert resolve("REPRO_SERVE_SCRUB") == 0.0
    assert resolve("REPRO_SERVE_SCRUB_SAMPLE") == 64

    monkeypatch.setenv("REPRO_SERVE_RATE", "2.5")
    assert resolve("REPRO_SERVE_RATE") == 2.5
    assert resolve("REPRO_SERVE_RATE", 1.0) == 1.0  # explicit override wins
    monkeypatch.setenv("REPRO_SERVE_RATE", "fast")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_RATE")

    monkeypatch.setenv("REPRO_SERVE_MAX_ROWS", "0")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_MAX_ROWS")
    monkeypatch.setenv("REPRO_SERVE_BREAKER", "0")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_BREAKER")
    monkeypatch.setenv("REPRO_SERVE_COOLDOWN", "0")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_COOLDOWN")
    monkeypatch.setenv("REPRO_SERVE_SCRUB", "-1")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_SCRUB")
    monkeypatch.setenv("REPRO_SERVE_TENANT_SESSIONS", "3")
    assert resolve("REPRO_SERVE_TENANT_SESSIONS") == 3


# -- token bucket & breaker units ---------------------------------------------


def test_token_bucket_refills_at_rate():
    clock = Clock()
    bucket = TokenBucket(2.0, clock=clock)
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is None  # burst = one second of rate
    retry_after = bucket.try_acquire()
    assert retry_after == pytest.approx(0.5)  # one token at 2/s
    clock.advance(0.5)
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is not None


def test_circuit_breaker_state_machine():
    clock = Clock()
    breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # K-1 failures: still serving
    breaker.record_failure()
    assert breaker.state == "open"

    with pytest.raises(CircuitOpen) as rejected:
        breaker.admit()
    assert 0 < rejected.value.retry_after <= 10.0

    clock.advance(10.0)
    breaker.admit()  # the half-open probe
    assert breaker.state == "half-open"
    with pytest.raises(CircuitOpen):
        breaker.admit()  # one probe per cool-down window
    breaker.record_success()
    assert breaker.state == "closed"
    stats = breaker.stats()
    assert stats["opened"] == 1
    assert stats["probes"] == 1
    assert stats["closed"] == 1


def test_circuit_breaker_failed_probe_reopens():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(5.0)
    breaker.admit()
    breaker.record_failure()  # the probe itself fails
    assert breaker.state == "open"
    assert breaker.stats()["reopened"] == 1
    with pytest.raises(CircuitOpen):
        breaker.admit()  # a fresh cool-down started


def test_ticket_quota_is_per_tenant():
    governor = Governor(tenant_sessions=2, queue_depth=3)
    assert governor.ticket_cap == 6
    for _ in range(6):
        governor.ticket_admitted("a")
    with pytest.raises(QuotaExceeded):
        governor.ticket_admitted("a")
    governor.ticket_admitted("b")  # another tenant is unaffected
    governor.ticket_settled("a")
    governor.ticket_admitted("a")  # a released slot re-admits
    assert governor.stats()["shed"]["tickets"] == 1


# -- service-level quotas -----------------------------------------------------


def test_rows_cap_rejects_updates_but_not_session_bootstrap():
    service = DetectionService(max_rows=3)
    try:
        # the bootstrap relation is bounded by the body cap, not the
        # per-update rows cap
        service.create_session("t", "s", spec(base_rows(60)))
        with pytest.raises(QuotaExceeded):
            service.update(
                "t", "s",
                inserted=[[1000 + i, 44, "Z1", "N"] for i in range(4)],
            )
        result = service.update("t", "s", inserted=[[2000, 44, "Z1", "N"]])
        assert result["queue_seconds"] >= 0.0
        governor = service.stats()["governor"]
        assert governor["shed"]["rows"] == 1
    finally:
        service.close()


def test_tenant_session_cap_and_rate_quota():
    service = DetectionService(tenant_sessions=1)
    try:
        service.create_session("a", "one", spec(base_rows(10)))
        with pytest.raises(QuotaExceeded):
            service.create_session("a", "two", spec(base_rows(10)))
        service.create_session("b", "one", spec(base_rows(10)))
        assert service.stats()["governor"]["shed"]["sessions"] == 1
    finally:
        service.close()

    throttled = DetectionService(rate=0.001)
    try:
        # burst = max(1, rate) = one token; the create consumes it
        throttled.create_session("t", "s", spec(base_rows(10)))
        with pytest.raises(QuotaExceeded) as rejected:
            throttled.update("t", "s", inserted=[[900, 44, "Z1", "N"]])
        assert rejected.value.retry_after > 0
        assert isinstance(rejected.value, Backpressure)  # → HTTP 429
        assert throttled.stats()["governor"]["shed"]["rate"] == 1
    finally:
        throttled.close()


def test_shedding_is_tenant_fair():
    """A burst from one tenant sheds its own sessions, never everyone
    else's: the LRU victim comes from the tenant holding the most."""
    service = DetectionService(max_sessions=2)
    try:
        service.create_session("a", "s1", spec(base_rows(10)))
        service.create_session("a", "s2", spec(base_rows(10)))
        service.create_session("b", "s1", spec(base_rows(10)))
        registry = service.registry
        assert set(registry._live) == {("a", "s2"), ("b", "s1")}
        assert ("a", "s1") in registry._parked
        service.create_session("a", "s3", spec(base_rows(10)))
        assert set(registry._live) == {("b", "s1"), ("a", "s3")}
        # the parked sessions restore transparently on access
        assert service.detect("a", "s1")["n_violations"] >= 0
    finally:
        service.close()


# -- deadline-aware group commit ----------------------------------------------


def test_expired_tickets_shed_before_the_fold():
    clock = Clock()
    governor = Governor(deadline=5.0, clock=clock)
    session = ManagedSession("t", "s", spec(base_rows(20)), 8, 8)
    session.bind_governor(governor)

    stale = _Ticket([(7000, 44, "Z1", "LATE")], [], 0)
    stale.deadline = clock() - 1.0  # admitted long ago, already expired
    session._pending.append(stale)

    result = session.update(inserted=[[7001, 44, "Z1", "FRESH"]])
    assert result["coalesced"] == 1  # the stale neighbour never folded
    assert isinstance(stale.error, DeadlineExceeded)
    assert stale.error.retry_after > 0
    assert session.stats["deadline_dropped"] == 1
    assert governor.stats()["shed"]["deadline"] == 1

    keys = {key[0] for key in session._detector.report.tuple_keys}
    assert 7001 in keys  # the fresh ticket folded into the Z1 conflict
    assert 7000 not in keys  # the shed update provably left no trace


# -- circuit breakers under fold-fail chaos -----------------------------------


def test_breaker_opens_after_exactly_k_consecutive_fold_failures():
    service = DetectionService(breaker=3, cooldown=30.0)
    try:
        service.create_session("t", "s", spec(base_rows(20)))
        session = service.registry.get("t", "s")
        with fault_plan(FaultPlan.parse("fold-fail@0,fold-fail@1,fold-fail@2")):
            for failure in range(3):
                assert session.breaker.state == "closed"
                with pytest.raises(FoldFaultInjected):
                    service.update(
                        "t", "s", inserted=[[5000 + failure, 44, "Z1", "X"]]
                    )
            assert session.breaker.state == "open"
            folds_before = session.stats["folds"]
            with pytest.raises(CircuitOpen) as rejected:
                service.update("t", "s", inserted=[[5010, 44, "Z1", "X"]])
            assert rejected.value.retry_after > 0
            # the rejection happened before any work queued
            assert session.stats["folds"] == folds_before
            assert session.breaker.stats()["opened"] == 1
            assert "t/s" in service.health()["breakers_open"]
            assert service.health()["ok"] is False
    finally:
        service.close()


def test_half_open_probe_recovers_a_healed_session():
    clock = Clock()
    governor = Governor(breaker=2, cooldown=5.0, clock=clock)
    session = ManagedSession("t", "s", spec(base_rows(20)), 8, 8)
    session.bind_governor(governor)
    with fault_plan(FaultPlan.parse("fold-fail@0,fold-fail@1")):
        for failure in range(2):
            with pytest.raises(FoldFaultInjected):
                session.update(inserted=[[6000 + failure, 44, "Z1", "X"]])
        assert session.breaker.state == "open"
        with pytest.raises(CircuitOpen):
            session.update(inserted=[[6002, 44, "Z1", "X"]])
        clock.advance(5.0)
        # the plan is exhausted: the half-open probe folds for real
        result = session.update(inserted=[[6003, 44, "Z1", "X"]])
        assert result["coalesced"] == 1
    assert session.breaker.state == "closed"
    stats = session.breaker.stats()
    assert stats["probes"] == 1 and stats["closed"] == 1


def test_failed_probe_reopens_the_session_breaker():
    clock = Clock()
    governor = Governor(breaker=1, cooldown=5.0, clock=clock)
    session = ManagedSession("t", "s", spec(base_rows(20)), 8, 8)
    session.bind_governor(governor)
    with fault_plan(FaultPlan.parse("fold-fail@0,fold-fail@1")):
        with pytest.raises(FoldFaultInjected):
            session.update(inserted=[[6100, 44, "Z1", "X"]])
        assert session.breaker.state == "open"
        clock.advance(5.0)
        with pytest.raises(FoldFaultInjected):  # the probe fails too
            session.update(inserted=[[6101, 44, "Z1", "X"]])
        assert session.breaker.state == "open"
        assert session.breaker.stats()["reopened"] == 1
        with pytest.raises(CircuitOpen):
            session.update(inserted=[[6102, 44, "Z1", "X"]])


# -- integrity scrubber -------------------------------------------------------


def test_scrubber_quarantines_drifted_session_and_spares_the_rest(tmp_path):
    service = DetectionService(data_dir=tmp_path)
    try:
        service.create_session("t", "bad", spec(base_rows(30)))
        service.create_session("t", "good", spec(base_rows(30)))
        with fault_plan(FaultPlan.parse("verify-drift@0")):
            outcome = service.scrubber.scrub_now()
        assert outcome["quarantined"] == ["t/bad"]

        # the condemned durable state moved to .quarantine/ as evidence
        quarantine = tmp_path / ".quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

        # the tombstoned key fails typed; everyone else keeps serving
        with pytest.raises(SessionQuarantined):
            service.update("t", "bad", inserted=[[8000, 44, "Z1", "X"]])
        with pytest.raises(SessionQuarantined):
            service.detect("t", "bad")
        assert service.update(
            "t", "good", inserted=[[8001, 44, "Z1", "X"]]
        )["coalesced"] == 1

        health = service.health()
        assert health["ok"] is False and health["quarantined"] == ["t/bad"]
        scrub = service.stats()["scrubber"]
        assert scrub["drifted"] == 1 and scrub["quarantined"] == 1

        # re-creating the name is a fresh start: tombstone cleared
        service.create_session("t", "bad", spec(base_rows(30)))
        assert service.detect("t", "bad")["n_violations"] >= 0
        assert service.health()["ok"] is True
    finally:
        service.close()


def test_scrubber_skips_busy_sessions():
    service = DetectionService()
    try:
        service.create_session("t", "s", spec(base_rows(20)))
        session = service.registry.get("t", "s")
        session._pending.append(_Ticket([], [], 0))  # foreground queued
        with fault_plan(FaultPlan.parse("verify-drift@0")):
            outcome = service.scrubber.scrub_now()
        assert outcome == {"scrubbed": 0, "skipped": 1, "quarantined": []}
        session._pending.clear()
        # the drift order was not consumed by the skipped session: a
        # quieter round still catches it
        with fault_plan(FaultPlan.parse("verify-drift@0")):
            assert service.scrubber.scrub_now()["quarantined"] == ["t/s"]
    finally:
        service.close()


# -- slow create out from under the registry lock -----------------------------


def test_slow_create_does_not_block_other_sessions(monkeypatch):
    service = DetectionService()
    try:
        service.create_session("t", "fast", spec(base_rows(20)))
        entered, release = threading.Event(), threading.Event()
        original = ManagedSession._build

        def slow_build(self, build_spec, fragments):
            if self.name == "slow":
                entered.set()
                assert release.wait(10)
            return original(self, build_spec, fragments)

        monkeypatch.setattr(ManagedSession, "_build", slow_build)
        created: list = []
        creator = threading.Thread(
            target=lambda: created.append(
                service.create_session("t", "slow", spec(base_rows(20)))
            )
        )
        creator.start()
        assert entered.wait(10)

        # the giant create is folding outside the registry lock: other
        # sessions stay reachable without waiting on it
        start = time.perf_counter()
        assert service.detect("t", "fast")["n_violations"] >= 0
        assert time.perf_counter() - start < 2.0

        # the in-flight name is reserved but not yet addressable
        with pytest.raises(UnknownSession):
            service.detect("t", "slow")
        with pytest.raises(DuplicateSession):
            service.create_session("t", "slow", spec(base_rows(20)))

        release.set()
        creator.join(timeout=10)
        assert created and created[0]["session"] == "slow"
        assert service.detect("t", "slow")["n_violations"] >= 0
    finally:
        release.set()
        service.close()


def test_failed_create_rolls_back_its_placeholder():
    service = DetectionService()
    try:
        with pytest.raises(BadSessionSpec):
            service.create_session(
                "t", "s", {"schema": SCHEMA, "cfds": ["not a cfd"], "rows": []}
            )
        # the reserved key was released: the name is free again
        service.create_session("t", "s", spec(base_rows(10)))
    finally:
        service.close()


# -- HTTP surfaces ------------------------------------------------------------


def http(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def test_http_governor_surfaces():
    service = DetectionService(max_rows=5, breaker=1, cooldown=30.0)
    instance = serve_http(service, max_body=4096)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = instance.server_address
        base = f"http://{host}:{port}"

        # 413: the declared body over REPRO_SERVE_MAX_BODY is rejected
        # before a byte of it is read
        status, payload, _ = http(
            base, "POST", "/v1/t/sessions/big", spec(base_rows(300))
        )
        assert status == 413 and "cap" in payload["error"]

        status, _, _ = http(
            base, "POST", "/v1/t/sessions/s", spec(base_rows(20))
        )
        assert status == 201  # the connection survived the 413 cleanly

        # 429 + Retry-After: rows-per-update quota
        status, payload, headers = http(
            base, "POST", "/v1/t/sessions/s/update",
            {"inserted": [[3000 + i, 44, "Z1", "X"] for i in range(6)]},
        )
        assert status == 429
        assert headers.get("Retry-After") is not None
        assert "rows per update" in payload["error"]

        accepted = [3050, 44, "Z1", "ACCEPTED"]
        status, _, _ = http(
            base, "POST", "/v1/t/sessions/s/update", {"inserted": [accepted]}
        )
        assert status == 200

        # trip the breaker (threshold 1) through the real fold path,
        # then observe 503 + Retry-After and a truthful /healthz
        with fault_plan(FaultPlan.parse("fold-fail@0")):
            status, _, _ = http(
                base, "POST", "/v1/t/sessions/s/update",
                {"inserted": [[3100, 44, "Z1", "X"]]},
            )
            assert status == 500  # the injected fold failure itself
        status, payload, headers = http(
            base, "POST", "/v1/t/sessions/s/update",
            {"inserted": [[3101, 44, "Z1", "X"]]},
        )
        assert status == 503
        assert headers.get("Retry-After") is not None
        assert "circuit open" in payload["error"]

        status, health, _ = http(base, "GET", "/healthz")
        assert status == 503
        assert health["ok"] is False and health["breakers_open"] == ["t/s"]
        status, live, _ = http(base, "GET", "/healthz?live=1")
        assert status == 200 and live["live"] is True

        # the served report equals the reference over the base rows plus
        # exactly the accepted update: no shed (429), failed (500) or
        # refused (503) request left a trace, and the accepted one held
        status, report, _ = http(base, "GET", "/v1/t/sessions/s/detect")
        assert status == 200
        expected = detect_violations_reference(
            Relation(
                Schema(SCHEMA["name"], SCHEMA["attributes"], SCHEMA["key"]),
                [tuple(row) for row in base_rows(20) + [accepted]],
            ),
            parse_cfd(CFD),
        )
        assert report["n_violations"] == len(expected.violations)
        assert {tuple(k) for k in report["tuple_keys"]} == set(
            expected.tuple_keys
        )
    finally:
        instance.shutdown()
        service.close()
        instance.server_close()


# -- stats surfaces -----------------------------------------------------------


def test_stats_expose_governor_scrubber_and_breakers():
    service = DetectionService(rate=50.0, deadline=0.5)
    try:
        service.create_session("t", "s", spec(base_rows(10)))
        stats = service.stats()
        assert stats["governor"]["rate"] == 50.0
        assert stats["governor"]["deadline"] == 0.5
        assert set(stats["governor"]["shed"]) == {
            "rate", "rows", "tickets", "sessions", "deadline"
        }
        assert stats["scrubber"]["enabled"] is False
        assert stats["sessions"]["t/s"]["breaker"]["state"] == "closed"
    finally:
        service.close()
