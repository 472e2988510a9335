"""The acknowledged-write path of `repro serve` costs O(|ΔD|).

Transport: every response leaves the process as one segment (one
``sendall`` on a ``TCP_NODELAY`` socket), keep-alive connections serve
the same reports as fresh ones, and a client that resets mid-response
ends its handler quietly.  Ack: the counts in an update ack come from
``report_size()``, which equals ``len(report.*)`` for every session kind
and engine without building the report.  No wall-clock assertion here —
the latency these mechanisms buy is ``bench/run.py``'s to record.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parse_cfd
from repro.core.detection import detect_violations_reference
from repro.core.faults import FaultPlan, FoldFaultInjected, fault_plan
from repro.core.incremental import IncrementalDetector
from repro.relational import Relation
from repro.relational.schema import Schema, SchemaError
from repro.serve import DetectionService, serve_http
from repro.serve.service import SESSION_KINDS, ManagedSession

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {
    "name": "cust",
    "attributes": ["id", "CC", "zip", "street"],
    "key": ["id"],
}
SESSION = "/v1/t/sessions/s"


def base_rows(n: int = 60) -> list[list]:
    rows = []
    for i in range(n):
        street = f"S{i % 3}" if i % 5 else "CONFLICT"
        rows.append([i, 44 if i % 2 else 99, f"Z{i % 7}", street])
    return rows


def spec(rows, kind="central") -> dict:
    built = {"kind": kind, "schema": SCHEMA, "cfds": [CFD], "rows": rows}
    if kind != "central":
        built["sites"] = 3
    return built


def reference(rows):
    relation = Relation(
        Schema(SCHEMA["name"], SCHEMA["attributes"], SCHEMA["key"]),
        [tuple(row) for row in rows],
    )
    return detect_violations_reference(relation, parse_cfd(CFD))


# -- transport ----------------------------------------------------------------


class _CountingSocket:
    """An accepted connection that records every ``send``/``sendall``."""

    def __init__(self, sock: socket.socket, sends: list) -> None:
        self._sock = sock
        self._sends = sends

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendall(self, data):
        self._sends.append(bytes(data))
        return self._sock.sendall(data)

    def send(self, data):
        self._sends.append(bytes(data))
        return self._sock.send(data)


@contextmanager
def running(service: DetectionService, **options):
    """A served ``service``; yields (server, sends, accepted sockets)."""
    server = serve_http(service, **options)
    sends: list[bytes] = []
    accepted: list[socket.socket] = []
    accept = server.get_request

    def get_request():
        connection, address = accept()
        accepted.append(connection)
        return _CountingSocket(connection, sends), address

    server.get_request = get_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, sends, accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def call(connection, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    connection.request(method, path, body=data)
    response = connection.getresponse()
    return response.status, response.headers, response.read()


def test_every_response_is_one_write_on_a_nodelay_socket():
    service = DetectionService(max_rows=4)
    rows = base_rows(3000)
    service.create_session("t", "s", spec(rows))
    with running(service, max_body=4096) as (server, sends, accepted):
        connection = http.client.HTTPConnection(
            *server.server_address, timeout=10
        )

        def one_write(method, path, body=None):
            del sends[:]
            status, headers, raw = call(connection, method, path, body)
            assert len(sends) == 1, [chunk[:60] for chunk in sends]
            assert sends[0].startswith(b"HTTP/1.1 %d " % status)
            assert sends[0].endswith(b"\r\n\r\n" + raw)
            assert int(headers["Content-Length"]) == len(raw)
            return status, headers, json.loads(raw)

        status, _, ack = one_write(
            "POST", SESSION + "/update", {"inserted": [[900, 44, "Z1", "N"]]}
        )
        assert status == 200 and ack["coalesced"] == 1

        status, headers, _ = one_write(
            "POST",
            SESSION + "/update",
            {"inserted": [[901 + i, 44, "Z1", "N"] for i in range(5)]},
        )
        assert status == 429 and headers["Retry-After"] is not None

        status, _, report = one_write("GET", SESSION + "/detect")
        assert status == 200
        assert 8192 < len(json.dumps(report)) <= 65536  # a multi-buffer body

        (handled,) = accepted
        assert handled.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        # last on this connection: the unread body forces a close
        status, _, _ = one_write(
            "POST", SESSION + "/update", {"inserted": [[0] * 4] * 2000}
        )
        assert status == 413
        connection.close()


def test_keepalive_connection_serves_the_serial_replay():
    """200 updates and interleaved detects on one connection: every
    served report equals the reference over base rows + acked ops."""
    service = DetectionService()
    rows = base_rows()
    service.create_session("t", "s", spec(rows))
    live = {row[0]: tuple(row) for row in rows}
    with running(service) as (server, _sends, accepted):
        connection = http.client.HTTPConnection(
            *server.server_address, timeout=10
        )
        for step in range(200):
            key = 1000 + step
            if step % 4 == 3:
                body = {"deleted": [key - 2]}
                live.pop(key - 2)
            else:
                row = [key, 44, f"Z{step % 7}", f"W{step % 5}"]
                body = {"inserted": [row]}
                live[key] = tuple(row)
            status, _, raw = call(
                connection, "POST", SESSION + "/update", body
            )
            assert status == 200, raw
            expected = reference(live.values())
            ack = json.loads(raw)
            assert ack["violations"] == len(expected.violations)
            assert ack["tuple_keys"] == len(expected.tuple_keys)
            if step % 20 == 19:
                status, _, raw = call(connection, "GET", SESSION + "/detect")
                served = json.loads(raw)
                assert status == 200
                assert {
                    (tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
                    for v in served["violations"]
                } == {
                    (v.lhs_attributes, v.lhs_values)
                    for v in expected.violations
                }
                assert {tuple(k) for k in served["tuple_keys"]} == set(
                    expected.tuple_keys
                )
        connection.close()
        assert len(accepted) == 1  # one connection carried all of it


def test_reset_client_ends_its_handler_quietly(capsys):
    """A keep-alive client killed mid-response (RST, not FIN): no second
    write to the dead socket, no traceback, the update applied once and
    the next client served."""
    service = DetectionService()
    rows = base_rows()
    service.create_session("t", "s", spec(rows))
    folded = threading.Event()
    client_gone = threading.Event()
    handler_done = threading.Event()
    apply_update = service.update

    def update_then_lose_the_client(*args, **kwargs):
        result = apply_update(*args, **kwargs)
        folded.set()
        assert client_gone.wait(10)  # the ack is written to a reset socket
        return result

    service.update = update_then_lose_the_client
    with running(service) as (server, sends, _accepted):
        errors = []
        server.handle_error = lambda *args: errors.append(sys.exc_info()[1])
        shutdown_request = server.shutdown_request

        def shutdown_and_tell(request):
            shutdown_request(request)
            handler_done.set()

        server.shutdown_request = shutdown_and_tell

        body = json.dumps({"inserted": [[900, 44, "Z1", "N"]]}).encode()
        client = socket.create_connection(server.server_address, timeout=10)
        client.sendall(
            b"POST " + SESSION.encode() + b"/update HTTP/1.1\r\n"
            b"Host: test\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        )
        assert folded.wait(10)
        client.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        client.close()  # linger 0: the kernel sends RST
        client_gone.set()

        assert handler_done.wait(10), "the handler thread never finished"
        assert errors == []
        assert len(sends) <= 1  # never a second response on the dead socket
        service.update = apply_update

        connection = http.client.HTTPConnection(
            *server.server_address, timeout=10
        )
        status, _, raw = call(connection, "GET", SESSION + "/snapshot")
        connection.close()
    snapshot = json.loads(raw)
    assert status == 200
    assert snapshot["n_rows"] == len(rows) + 1
    assert snapshot["stats"]["updates"] == 1
    assert capsys.readouterr().err == ""


# -- ack counts ---------------------------------------------------------------


def _sizes(session: ManagedSession) -> tuple[int, int]:
    report = session._detector.report
    return len(report.violations), len(report.tuple_keys)


def _assert_sizes(session: ManagedSession) -> None:
    assert session._detector.report_size() == _sizes(session)


#: a batch: rows to insert (CC, zip, street), how many resident keys to
#: delete, a site, and which failure (if any) to inject before it
batches = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from([44, 99]),
                st.sampled_from(["Z0", "Z1", "Z2"]),
                st.sampled_from(["S0", "S1", "CONFLICT"]),
            ),
            max_size=4,
        ),
        st.integers(0, 3),
        st.integers(0, 2),
        st.sampled_from([None, None, "fold-fail", "wrong-width"]),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.usefixtures("detection_engine")
@pytest.mark.parametrize("kind", SESSION_KINDS)
@settings(max_examples=15, deadline=None)
@given(batches)
def test_report_size_equals_report_lengths(kind, sequence):
    rows = base_rows(24)
    session = ManagedSession("t", "s", spec(rows, kind), 64, 16)
    _assert_sizes(session)
    live = [row[0] for row in rows]
    fresh = 1000
    for values, n_deleted, site, failure in sequence:
        inserted = [[fresh + i, *value] for i, value in enumerate(values)]
        fresh += len(inserted)
        deleted, live = live[:n_deleted], live[n_deleted:]
        before = _sizes(session)
        if failure == "fold-fail":
            # raised ahead of the fold, through the production hook
            with fault_plan(FaultPlan.parse("fold-fail@0")):
                with pytest.raises(FoldFaultInjected):
                    session.update(inserted, deleted, site)
            assert session._detector.report_size() == before
        elif failure == "wrong-width":
            # past the request validation: the detector itself refuses
            with pytest.raises(SchemaError):
                session._apply(
                    site, deleted, [tuple(r) for r in inserted] + [(1, 2)]
                )
            assert session._detector.report_size() == before
        if failure is not None:
            _assert_sizes(session)
        ack = session.update(inserted, deleted, site)
        live.extend(row[0] for row in inserted)
        _assert_sizes(session)
        assert (ack["violations"], ack["tuple_keys"]) == _sizes(session)
    document = json.loads(json.dumps(session.snapshot()))
    assert document["n_violations"] == _sizes(session)[0]
    restored = ManagedSession.from_snapshot(document, 64, 16)
    _assert_sizes(restored)
    assert restored._detector.report_size()[0] == _sizes(session)[0]


def test_ack_and_snapshot_never_build_the_report():
    class CountsOnly(IncrementalDetector):
        @property
        def report(self):
            raise AssertionError(".report was read on the ack path")

    rows = base_rows()
    session = ManagedSession("t", "s", spec(rows), 64, 16)
    expected = reference(rows + [[900, 44, "Z1", "N"]])
    session._detector.__class__ = CountsOnly
    ack = session.update(inserted=[[900, 44, "Z1", "N"]])
    assert ack["violations"] == len(expected.violations)
    assert ack["tuple_keys"] == len(expected.tuple_keys)
    assert session.snapshot()["n_violations"] == len(expected.violations)
    with pytest.raises(AssertionError):
        session.detect()  # the trap is live: reads still build the report
