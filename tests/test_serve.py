"""The resident multi-tenant detection service (`repro.serve`).

Covers the service layer (managed sessions: group commit, backpressure,
LRU retire/restore, the single-writer regression the per-session locks
fix) and the HTTP front end (threaded end-to-end with concurrent
clients, equivalence-gated against a serial replay).
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import detect_violations, parse_cfd
from repro.core.incremental import incremental_detect
from repro.knobs import resolve
from repro.relational import Relation
from repro.relational.schema import Schema
from repro.serve import (
    Backpressure,
    BadSessionSpec,
    DetectionService,
    DuplicateSession,
    UnknownSession,
    serve_http,
)
from seed_oracle import as_comparable

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {
    "name": "cust",
    "attributes": ["id", "CC", "zip", "street"],
    "key": ["id"],
}


def base_rows(n: int = 60) -> list[list]:
    """Rows with planted σ-matched conflicts (CC=44 groups of varied zip)."""
    rows = []
    for i in range(n):
        zip_code = f"Z{i % 7}"
        street = f"S{i % 3}" if i % 5 else "CONFLICT"
        rows.append([i, 44 if i % 2 else 99, zip_code, street])
    return rows


def spec(rows, kind="central", sites=3, cfds=(CFD,)) -> dict:
    built = {"kind": kind, "schema": SCHEMA, "cfds": list(cfds), "rows": rows}
    if kind != "central":
        built["sites"] = sites
    return built


def oracle(rows) -> set:
    """The one-shot violation set over ``rows`` (the serial oracle)."""
    relation = Relation(
        Schema(SCHEMA["name"], SCHEMA["attributes"], SCHEMA["key"]),
        [tuple(row) for row in rows],
    )
    return set(detect_violations(relation, parse_cfd(CFD)).violations)


def served_violations(service, tenant, name) -> set:
    return {
        (v["cfd"], tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
        for v in service.detect(tenant, name)["violations"]
    }


# -- service layer ------------------------------------------------------------


def test_create_detect_matches_one_shot_detection():
    service = DetectionService()
    rows = base_rows()
    created = service.create_session("t", "s", spec(rows))
    assert created["n_violations"] == len(oracle(rows))
    assert served_violations(service, "t", "s") == as_comparable(oracle(rows))
    assert service.verify("t", "s")["ok"]


@pytest.mark.parametrize("kind", ["ctr", "pat-s", "pat-rt", "clust"])
def test_distributed_kinds_maintain_violations(kind):
    service = DetectionService()
    rows = base_rows()
    service.create_session("t", kind, spec(rows, kind=kind))
    service.update(
        "t", kind, inserted=[[200, 44, "Z1", "NEW-A"], [201, 44, "Z1", "NEW-B"]],
        site=1,
    )
    final = rows + [[200, 44, "Z1", "NEW-A"], [201, 44, "Z1", "NEW-B"]]
    assert served_violations(service, "t", kind) == as_comparable(oracle(final))
    assert service.verify("t", kind)["ok"]


def test_update_delete_roundtrip_and_verify():
    service = DetectionService()
    rows = base_rows()
    service.create_session("t", "s", spec(rows))
    service.update("t", "s", inserted=[[300, 44, "Z0", "X"], [301, 44, "Z0", "Y"]])
    service.update("t", "s", deleted=[300])
    final = rows + [[301, 44, "Z0", "Y"]]
    assert served_violations(service, "t", "s") == as_comparable(oracle(final))
    assert service.verify("t", "s")["ok"]


def test_bad_specs_and_unknown_sessions_are_typed():
    service = DetectionService()
    with pytest.raises(BadSessionSpec):
        service.create_session("t", "s", {"cfds": [CFD]})  # no schema
    with pytest.raises(BadSessionSpec):
        service.create_session("t", "s", spec([], kind="nope"))
    with pytest.raises(BadSessionSpec):
        # horizontal kinds host exactly one CFD
        service.create_session(
            "t", "s", spec([], kind="pat-s", cfds=[CFD, "([CC] -> [zip])"])
        )
    with pytest.raises(UnknownSession):
        service.detect("t", "missing")
    service.create_session("t", "s", spec(base_rows()))
    with pytest.raises(DuplicateSession):
        service.create_session("t", "s", spec(base_rows()))


def test_concurrent_writers_coalesce_and_match_serial_replay():
    """N writers over disjoint key ranges: the final report must equal
    the serial oracle, and group commit must actually group."""
    service = DetectionService(coalesce=8)
    rows = base_rows()
    service.create_session("t", "s", spec(rows))
    n_writers, per_writer = 4, 12
    session = service.registry.get("t", "s")
    errors: list = []

    def writer(index: int) -> None:
        try:
            for step in range(per_writer):
                key = 1000 + index * per_writer + step
                service.update(
                    "t",
                    "s",
                    inserted=[[key, 44, f"Z{index}", f"W{index}-{step}"]],
                )
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(i,)) for i in range(n_writers)
    ]
    # hold the fold lock until every writer has a ticket queued: the
    # first leader then provably drains a multi-ticket batch, whatever
    # the thread scheduling
    with session._lock:
        for thread in threads:
            thread.start()
        for _ in range(5000):
            if len(session._pending) == n_writers:
                break
            threading.Event().wait(0.001)
        assert len(session._pending) == n_writers, "writers never enqueued"
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    final = rows + [
        [1000 + i * per_writer + s, 44, f"Z{i}", f"W{i}-{s}"]
        for i in range(n_writers)
        for s in range(per_writer)
    ]
    assert served_violations(service, "t", "s") == as_comparable(oracle(final))
    assert service.verify("t", "s")["ok"]
    stats = service.stats()["sessions"]["t/s"]
    assert stats["updates"] == n_writers * per_writer
    # group commit must have folded at least one multi-ticket batch, and
    # strictly fewer folds than updates (otherwise coalescing is off)
    assert stats["folds"] < stats["updates"]
    assert stats["coalesced_max"] >= n_writers


def test_interleaved_update_and_verify_is_safe():
    """Satellite regression: concurrent update()/verify() on one session
    must serialize on the per-session lock — verify must never observe a
    half-folded batch (it recomputes from the same store the fold
    mutates)."""
    rows = base_rows(40)
    relation = Relation(
        Schema(SCHEMA["name"], SCHEMA["attributes"], SCHEMA["key"]),
        [tuple(row) for row in rows],
    )
    detector = incremental_detect(relation, parse_cfd(CFD))
    stop = threading.Event()
    failures: list = []

    def verifier() -> None:
        while not stop.is_set():
            try:
                if not detector.verify():
                    failures.append("verify() saw inconsistent state")
                    return
            except BaseException as error:  # noqa: BLE001
                failures.append(error)
                return

    thread = threading.Thread(target=verifier)
    thread.start()
    try:
        for step in range(30):
            detector.update(
                inserted=[(500 + step, 44, "Z9", f"V{step}")],
                deleted=[500 + step - 5] if step >= 5 else (),
            )
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not failures, failures
    assert detector.verify()


def test_backpressure_when_queue_is_full():
    service = DetectionService(queue_depth=1)
    service.create_session("t", "s", spec(base_rows(10)))
    session = service.registry.get("t", "s")
    # hold the fold lock so enqueued tickets cannot drain
    with session._lock:
        blocked = threading.Thread(
            target=lambda: service.update(
                "t", "s", inserted=[[900, 44, "Z0", "A"]]
            )
        )
        blocked.start()
        for _ in range(2000):
            if session._pending:
                break
            threading.Event().wait(0.001)
        assert session._pending, "first update never enqueued"
        with pytest.raises(Backpressure) as caught:
            service.update("t", "s", inserted=[[901, 44, "Z0", "B"]])
        assert caught.value.retry_after > 0
    blocked.join(timeout=60)
    assert not blocked.is_alive()
    assert served_violations(service, "t", "s") == as_comparable(
        oracle(base_rows(10) + [[900, 44, "Z0", "A"]])
    )


def test_lru_eviction_restores_equivalent_session():
    service = DetectionService(max_sessions=1)
    rows = base_rows()
    service.create_session("t", "a", spec(rows))
    service.update("t", "a", inserted=[[700, 44, "Z2", "EV-A"], [701, 44, "Z2", "EV-B"]])
    before = served_violations(service, "t", "a")
    # creating b evicts a (retire -> parked snapshot)
    service.create_session("t", "b", spec(base_rows(10)))
    stats = service.stats()
    assert stats["evicted"] == 1 and stats["parked"] == 1
    # touching a restores it transparently, with identical state
    assert served_violations(service, "t", "a") == before
    assert service.verify("t", "a")["ok"]
    assert service.stats()["restored"] == 1
    # and updates keep folding incrementally after the restore
    service.update("t", "a", deleted=[700])
    final = rows + [[701, 44, "Z2", "EV-B"]]
    assert served_violations(service, "t", "a") == as_comparable(oracle(final))


def test_snapshot_reports_session_state():
    service = DetectionService()
    rows = base_rows(20)
    service.create_session("t", "s", spec(rows, kind="pat-s", sites=3))
    snapshot = service.snapshot("t", "s")
    assert snapshot["n_rows"] == len(rows)
    assert len(snapshot["fragments"]) == 3
    assert snapshot["spec"]["cfds"] == [CFD]
    assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-able


# -- HTTP front end -----------------------------------------------------------


@pytest.fixture()
def server():
    instance = serve_http(DetectionService())
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = instance.server_address
        yield f"http://{host}:{port}"
    finally:
        instance.shutdown()
        instance.server_close()


def request(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_end_to_end_with_concurrent_clients(server):
    status, payload = request(server, "GET", "/healthz")
    assert status == 200 and payload["ok"] is True

    rows = base_rows()
    status, created = request(
        server, "POST", "/v1/acme/sessions/cust", spec(rows)
    )
    assert status == 201 and created["kind"] == "central"

    n_clients, per_client = 3, 8
    barrier = threading.Barrier(n_clients)
    outcomes: list = []

    def client(index: int) -> None:
        barrier.wait()
        for step in range(per_client):
            key = 2000 + index * per_client + step
            status, body = request(
                server,
                "POST",
                "/v1/acme/sessions/cust/update",
                {"inserted": [[key, 44, f"C{index}", f"H{index}-{step}"]]},
            )
            outcomes.append((status, body.get("coalesced")))

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(outcomes) == n_clients * per_client
    assert all(status == 200 for status, _ in outcomes)

    final = rows + [
        [2000 + i * per_client + s, 44, f"C{i}", f"H{i}-{s}"]
        for i in range(n_clients)
        for s in range(per_client)
    ]
    status, report = request(server, "GET", "/v1/acme/sessions/cust/detect")
    assert status == 200
    served = {
        (v["cfd"], tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
        for v in report["violations"]
    }
    assert served == as_comparable(oracle(final))
    status, verified = request(
        server, "POST", "/v1/acme/sessions/cust/verify", {}
    )
    assert status == 200 and verified["ok"]


def test_resolve_timeout_knob(monkeypatch):
    assert resolve("REPRO_SERVE_TIMEOUT") == 30.0
    monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "2.5")
    assert resolve("REPRO_SERVE_TIMEOUT") == 2.5
    assert resolve("REPRO_SERVE_TIMEOUT", 1.0) == 1.0
    monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "soon")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_TIMEOUT")
    monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "0")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_TIMEOUT")


def test_stalled_client_cannot_pin_a_handler_thread():
    """A client that opens a connection and never finishes its request
    must get disconnected after REPRO_SERVE_TIMEOUT, not hold a handler
    thread (and its session locks) forever."""
    instance = serve_http(DetectionService(), timeout=0.5)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = instance.server_address
        with socket.create_connection((host, port), timeout=10) as stalled:
            # a partial request line with no terminator: the server-side
            # readline can only end via the socket timeout
            stalled.sendall(b"POST /v1/t/sessions/s HTTP/1.1\r\n")
            stalled.settimeout(10)
            assert stalled.recv(1024) == b""  # server hung up
        # the server still answers well-behaved clients afterwards
        base = f"http://{host}:{port}"
        status, payload = request(base, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True
    finally:
        instance.shutdown()
        instance.server_close()


def test_http_error_statuses(server):
    assert request(server, "GET", "/v1/acme/sessions/nope/detect")[0] == 404
    assert request(server, "POST", "/v1/acme/sessions/bad", {"cfds": [CFD]})[0] == 400
    request(server, "POST", "/v1/acme/sessions/dup", spec(base_rows(6)))
    assert request(server, "POST", "/v1/acme/sessions/dup", spec(base_rows(6)))[0] == 409
    assert request(server, "GET", "/v1/stats")[1]["live"] >= 1
    assert request(server, "DELETE", "/v1/acme/sessions/dup")[0] == 200
    assert request(server, "DELETE", "/v1/acme/sessions/dup")[0] == 404


ALL_KINDS = ["central", "ctr", "pat-s", "pat-rt", "clust"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_http_rejects_non_scalar_cells(server, kind):
    """A JSON array or object in a cell is a 400 naming the row — at
    session create and at update — never an unhashable-type 500 from
    inside the fold."""
    path = f"/v1/acme/sessions/{kind}"
    poisoned = base_rows(6) + [[900, 44, "Z1", ["x"]]]
    status, body = request(server, "POST", path, spec(poisoned, kind=kind))
    assert status == 400 and "900" in body["error"]
    # the rejected create left nothing behind under the name
    assert request(server, "POST", path, spec(base_rows(), kind=kind))[0] == 201

    for cell in (["x"], {"x": 1}):
        status, body = request(
            server,
            "POST",
            path + "/update",
            {"inserted": [[901, 44, "Z1", "A"], [902, 44, "Z1", cell]]},
        )
        assert status == 400 and "902" in body["error"]
    assert request(server, "POST", path + "/verify", {})[1]["ok"]
    # nothing of the rejected batch is resident: its clean row still inserts
    status, _ = request(
        server, "POST", path + "/update", {"inserted": [[901, 44, "Z1", "A"]]}
    )
    assert status == 200
    assert request(server, "POST", path + "/verify", {})[1]["ok"]


def test_http_clust_session_verifies_after_a_failed_update(server, monkeypatch):
    """A clust update that fails past the boundary checks — here inside
    the coordinator patch, after the fragment versions were installed —
    is a 5xx that leaves the session exactly as it was."""
    from repro.detect.clust import _ClusterGroupState

    path = "/v1/acme/sessions/clust"
    assert request(
        server, "POST", path, spec(base_rows(), kind="clust")
    )[0] == 201
    before = request(server, "GET", path + "/detect")[1]

    original = _ClusterGroupState.patch

    def failing(self, *args, **kwargs):
        original(self, *args, **kwargs)
        raise RuntimeError("injected after the patch applied")

    monkeypatch.setattr(_ClusterGroupState, "patch", failing)
    # a fresh (CC=44, zip) group with two streets: folding it would add a
    # violation, leaving its rows resident-but-unfolded drops one
    fresh = [[910, 44, "Z-NEW", "A"], [911, 44, "Z-NEW", "B"]]
    status, body = request(server, "POST", path + "/update", {"inserted": fresh})
    assert status == 500 and "injected" in body["error"]
    monkeypatch.undo()

    assert request(server, "POST", path + "/verify", {})[1]["ok"]
    assert request(server, "GET", path + "/detect")[1] == before
    status, body = request(server, "POST", path + "/update", {"inserted": fresh})
    assert status == 200
    assert body["violations"] == before["n_violations"] + 1
    assert request(server, "POST", path + "/verify", {})[1]["ok"]
