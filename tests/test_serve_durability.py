"""Durability of resident sessions: WAL, snapshots, restart recovery.

The property under test everywhere: after any crash — process
abandonment, SIGKILL mid-stream, injected torn writes, silent bit
flips — a restart over the same ``--data-dir`` rebuilds each session to
exactly the serial replay of its *acknowledged* prefix, and corruption
quarantines (the server keeps serving) instead of crashing recovery.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import detect_violations, parse_cfd
from repro.core.faults import FaultPlan, fault_plan
from repro.knobs import resolve
from repro.relational import Relation
from repro.relational.schema import Schema
from repro.serve import (
    BadSnapshot,
    DetectionService,
    DurableStore,
    ManagedSession,
    WALError,
    read_wal,
)
from seed_oracle import as_comparable

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {
    "name": "cust",
    "attributes": ["id", "CC", "zip", "street"],
    "key": ["id"],
}


def base_rows(n: int = 40) -> list[list]:
    rows = []
    for i in range(n):
        street = f"S{i % 3}" if i % 5 else "CONFLICT"
        rows.append([i, 44 if i % 2 else 99, f"Z{i % 7}", street])
    return rows


def spec(rows, kind="central", sites=3, cfds=(CFD,)) -> dict:
    built = {"kind": kind, "schema": SCHEMA, "cfds": list(cfds), "rows": rows}
    if kind != "central":
        built["sites"] = sites
    return built


def oracle(rows) -> set:
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


def resident_ids(service, tenant, name) -> list:
    snapshot = service.snapshot(tenant, name)
    return sorted(row[0] for rows in snapshot["fragments"] for row in rows)


def wal_files(data_dir: Path) -> list[Path]:
    return sorted(data_dir.glob("*/*/wal.*.log"))


# -- knob resolution -----------------------------------------------------------


def test_resolve_fsync_accepts_policies(monkeypatch):
    assert resolve("REPRO_SERVE_FSYNC") == "batch"
    for policy in ("always", "batch", "off"):
        monkeypatch.setenv("REPRO_SERVE_FSYNC", policy)
        assert resolve("REPRO_SERVE_FSYNC") == policy
    assert resolve("REPRO_SERVE_FSYNC", "always") == "always"


def test_resolve_fsync_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_FSYNC", "sometimes")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_FSYNC")


def test_resolve_checkpoint_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_CHECKPOINT", "many")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_CHECKPOINT")
    monkeypatch.setenv("REPRO_SERVE_CHECKPOINT", "0")
    with pytest.raises(ValueError):
        resolve("REPRO_SERVE_CHECKPOINT")
    monkeypatch.setenv("REPRO_SERVE_CHECKPOINT", "12")
    assert resolve("REPRO_SERVE_CHECKPOINT") == 12


# -- the WAL format ------------------------------------------------------------


def test_wal_records_roundtrip(tmp_path):
    store = DurableStore(tmp_path, fsync="always", checkpoint=1000)
    journal = store.journal("t", "s")
    batches = [
        [[0, [], [[1, 44, "Z0", "A"]]]],
        [[0, [1], []]],
        [[2, [3, 4], [[5, 44, "Z1", "B"], [6, 99, "Z2", "C"]]]],
    ]
    for batch in batches:
        journal.log(batch)
    scan = read_wal(journal.wal_path(journal.epoch))
    assert scan.tail_reason is None
    assert [record["updates"] for record in scan.records] == batches
    assert store.stats()["wal_records"] == 3


def test_wal_scan_stops_at_torn_and_corrupt_tails(tmp_path):
    store = DurableStore(tmp_path, fsync="always", checkpoint=1000)
    journal = store.journal("t", "s")
    journal.log([[0, [], [[1, 44, "Z0", "A"]]]])
    journal.log([[0, [], [[2, 44, "Z0", "B"]]]])
    path = journal.wal_path(journal.epoch)
    clean = path.read_bytes()

    # torn frame header
    path.write_bytes(clean + b"\x00\x00")
    scan = read_wal(path)
    assert len(scan.records) == 2 and scan.tail_reason == "torn frame header"

    # torn payload
    path.write_bytes(clean + struct.pack(">II", 100, 0) + b"short")
    scan = read_wal(path)
    assert len(scan.records) == 2 and scan.tail_reason == "torn record payload"

    # CRC mismatch: flip one byte inside the second record's payload
    broken = bytearray(clean)
    broken[-3] ^= 0xFF
    path.write_bytes(bytes(broken))
    scan = read_wal(path)
    assert len(scan.records) == 1 and scan.tail_reason == "CRC mismatch"

    # absurd length field cannot swallow the scan
    path.write_bytes(clean + struct.pack(">II", 1 << 31, 0))
    scan = read_wal(path)
    assert len(scan.records) == 2 and "length" in scan.tail_reason


# -- restart recovery ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["central", "pat-s", "clust"])
def test_restart_recovers_equivalent_state(tmp_path, kind):
    rows = base_rows()
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(rows, kind=kind))
    site = {} if kind == "central" else {"site": 1}
    service.update("t", "s", inserted=[[200, 44, "Z1", "N1"]], **site)
    service.update("t", "s", inserted=[[201, 44, "Z1", "N2"]], **site)
    service.update("t", "s", deleted=[200], **site)
    before = service.detect("t", "s")

    # abandon without any clean shutdown, then restart over the same dir
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 1
    assert revived.detect("t", "s") == before
    final = rows + [[201, 44, "Z1", "N2"]]
    assert served_violations(revived, "t", "s") == as_comparable(oracle(final))
    assert revived.verify("t", "s")["ok"]
    # the revived session keeps absorbing updates durably
    revived.update("t", "s", inserted=[[202, 44, "Z1", "N3"]], **site)
    third = DetectionService(data_dir=tmp_path, fsync="always")
    assert resident_ids(third, "t", "s") == resident_ids(revived, "t", "s")


def test_central_session_logs_every_update_at_place_zero(tmp_path):
    """A central session has one place: a request's ``site`` is ignored,
    so its WAL records every update at site 0, and recovery replays it."""
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows()))
    service.update("t", "s", inserted=[[200, 44, "Z1", "N1"]], site=5)
    (path,) = wal_files(tmp_path)
    assert [record["updates"] for record in read_wal(path).records] == [
        [[0, [], [[200, 44, "Z1", "N1"]]]]
    ]
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.detect("t", "s") == service.detect("t", "s")


def test_recovery_equals_serial_replay_of_acknowledged_prefix(tmp_path):
    """The core property over a seeded mixed workload (inserts+deletes),
    under every fsync policy."""
    rows = base_rows(30)
    for fsync in ("always", "batch", "off"):
        data_dir = tmp_path / fsync
        service = DetectionService(data_dir=data_dir, fsync=fsync)
        service.create_session("t", "s", spec(rows))
        alive = [row[0] for row in rows]
        acked = list(rows)
        for i in range(40, 90):
            if i % 4 == 0 and alive:
                victim = alive.pop(i % len(alive))
                service.update("t", "s", deleted=[victim])
                acked = [row for row in acked if row[0] != victim]
            else:
                row = [i, 44, f"Z{i % 5}", f"S{i % 3}" if i % 6 else "CONFLICT"]
                service.update("t", "s", inserted=[row])
                acked.append(row)
                alive.append(i)
        if fsync == "off":
            # 'off' buffers records until a checkpoint or close: only a
            # closed store promises them to a restart
            service.registry.store.close()
        revived = DetectionService(data_dir=data_dir, fsync=fsync)
        assert revived.recovered == 1, fsync
        assert resident_ids(revived, "t", "s") == sorted(r[0] for r in acked)
        assert served_violations(revived, "t", "s") == as_comparable(
            oracle(acked)
        ), fsync
        assert revived.verify("t", "s")["ok"], fsync


def test_checkpoint_truncates_wal_and_bounds_replay(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="batch", checkpoint=4)
    service.create_session("t", "s", spec(base_rows()))
    for i in range(50, 64):
        service.update("t", "s", inserted=[[i, 44, "Z1", f"S{i % 3}"]])
    stats = service.stats()["durability"]
    assert stats["checkpoints"] >= 3  # the create, plus every 4 records
    files = wal_files(tmp_path)
    assert len(files) == 1  # old epochs deleted
    assert len(read_wal(files[0]).records) < 4 + 1
    revived = DetectionService(data_dir=tmp_path, fsync="batch", checkpoint=4)
    assert revived.stats()["durability"].get("replayed_records", 0) < 5
    assert revived.detect("t", "s") == service.detect("t", "s")


def test_lru_retire_checkpoints_parked_snapshot_to_disk(tmp_path):
    service = DetectionService(
        max_sessions=1, data_dir=tmp_path, fsync="always"
    )
    service.create_session("t", "a", spec(base_rows()))
    service.update("t", "a", inserted=[[500, 44, "Z0", "PARKED"]])
    service.create_session("t", "b", spec(base_rows()))  # retires "a"
    assert service.stats()["parked"] == 1
    # a restart must see the retired session's *post-update* state even
    # though it was parked, not live, at crash time
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 2
    assert 500 in resident_ids(revived, "t", "a")
    assert revived.verify("t", "a")["ok"]


def test_drop_removes_durable_state(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows()))
    assert wal_files(tmp_path)
    service.drop("t", "s")
    assert not wal_files(tmp_path)
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 0


def test_session_names_cannot_escape_the_store(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="off")
    service.create_session("..", "../../etc", spec(base_rows(6)))
    service.create_session("t", ".hidden", spec(base_rows(6)))
    inside = [p.relative_to(tmp_path) for p in tmp_path.rglob("snapshot.json")]
    assert len(inside) == 2  # both landed under the root, encoded
    revived = DetectionService(data_dir=tmp_path, fsync="off")
    assert revived.recovered == 2
    assert revived.detect("..", "../../etc")["n_violations"] >= 0


# -- corruption: quarantine, never a crash -------------------------------------


def test_torn_wal_tail_is_quarantined_and_server_keeps_serving(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows()))
    for i in range(60, 66):
        service.update("t", "s", inserted=[[i, 44, "Z1", "X"]])
    before = resident_ids(service, "t", "s")
    # simulate a crash mid-append: garbage after the last valid record
    with open(wal_files(tmp_path)[0], "ab") as handle:
        handle.write(b"\x00\x00\x00\x20torn-by-a-crash")
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 1
    stats = revived.stats()["durability"]
    assert stats["quarantined_tails"] == 1
    assert (tmp_path / ".quarantine").exists()
    assert resident_ids(revived, "t", "s") == before  # acked prefix intact
    # quarantine-not-crash: the session still serves and absorbs updates
    revived.update("t", "s", inserted=[[700, 44, "Z1", "Y"]])
    assert 700 in resident_ids(revived, "t", "s")


def test_bit_flip_corruption_is_caught_by_recovery_crc(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows()))
    with fault_plan(FaultPlan.parse("bit-flip@1")):
        for i in range(60, 65):
            # silent corruption: every append is acknowledged
            service.update("t", "s", inserted=[[i, 44, "Z1", "X"]])
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 1
    stats = revived.stats()["durability"]
    assert stats["quarantined_tails"] == 1
    assert stats["replayed_records"] == 1  # the record before the flip
    # the flipped record and everything after it are lost — that is the
    # cost of silent corruption — but the recovered prefix is consistent
    assert max(resident_ids(revived, "t", "s")) == 60
    assert revived.verify("t", "s")["ok"]


def test_torn_write_fault_keeps_later_acks_recoverable(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows(4)))
    acked = [row[0] for row in base_rows(4)]
    with fault_plan(FaultPlan.parse("torn-write@2")):
        for i in range(10, 18):
            try:
                service.update("t", "s", inserted=[[i, 44, "Z1", "X"]])
                acked.append(i)
            except WALError:
                pass
    assert len(acked) == 4 + 7  # exactly one append failed
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    # the repair truncated the torn frame, so every *later* acknowledged
    # record is recovered — nothing hides behind the failed append
    assert resident_ids(revived, "t", "s") == sorted(acked)
    assert revived.stats()["durability"].get("quarantined_tails", 0) == 0


def test_fsync_fail_fault_surfaces_typed_and_session_survives(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "s", spec(base_rows(4)))
    with fault_plan(FaultPlan.parse("fsync-fail@0")):
        with pytest.raises(WALError):
            service.update("t", "s", inserted=[[10, 44, "Z1", "X"]])
        service.update("t", "s", inserted=[[11, 44, "Z1", "Y"]])
    stats = service.stats()["durability"]
    assert stats["wal_errors"] == 1
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert 11 in resident_ids(revived, "t", "s")
    assert 10 not in resident_ids(revived, "t", "s")  # unacked, not replayed


def test_garbage_snapshot_quarantines_that_session_only(tmp_path):
    service = DetectionService(data_dir=tmp_path, fsync="always")
    service.create_session("t", "good", spec(base_rows()))
    service.create_session("t", "bad", spec(base_rows()))
    victim = tmp_path / "t" / "bad" / "snapshot.json"
    victim.write_text('{"epoch": 2, "session": {"trunca')  # torn JSON
    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 1
    stats = revived.stats()["durability"]
    assert stats["quarantined_snapshots"] == 1
    assert revived.verify("t", "good")["ok"]
    with pytest.raises(Exception) as excinfo:
        revived.detect("t", "bad")
    assert "no session" in str(excinfo.value)


# -- typed snapshot errors (never bare KeyError/JSONDecodeError) ---------------


@pytest.mark.parametrize(
    "payload",
    [
        None,
        [],
        {},
        {"tenant": "t"},
        {"tenant": "t", "name": "s", "spec": {}, "fragments": "oops"},
        {"tenant": "t", "name": "s", "spec": {}, "fragments": ["oops"]},
        {"tenant": 7, "name": "s", "spec": {}, "fragments": []},
    ],
)
def test_from_snapshot_raises_typed_errors(payload):
    with pytest.raises(BadSnapshot):
        ManagedSession.from_snapshot(payload, queue_depth=4, coalesce=4)


def test_disk_store_load_snapshot_raises_typed_errors(tmp_path):
    store = DurableStore(tmp_path, fsync="off", checkpoint=100)
    with pytest.raises(BadSnapshot):
        store.load_snapshot("t", "missing")
    target = store.session_dir("t", "s")
    target.mkdir(parents=True)
    (target / "snapshot.json").write_text("{ not json")
    with pytest.raises(BadSnapshot):
        store.load_snapshot("t", "s")
    (target / "snapshot.json").write_text('{"session": {}}')  # no epoch
    with pytest.raises(BadSnapshot):
        store.load_snapshot("t", "s")


# -- the acceptance property: SIGKILL mid-stream over HTTP ---------------------


def _request(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _start_server(data_dir: Path):
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--data-dir", str(data_dir), "--fsync", "always",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line
    address = line.split("http://", 1)[1].split()[0].rstrip(")")
    return process, f"http://{address}"


def test_sigkill_mid_stream_recovers_acknowledged_prefix(tmp_path):
    """Kill -9 a real server mid-update-stream; restart must serve the
    serial replay of everything acknowledged (± the one in-flight
    request the kill interrupted)."""
    rows = base_rows(20)
    process, base = _start_server(tmp_path)
    try:
        _request(base, "POST", "/v1/acme/sessions/cust", spec(rows))
        acked = [row[0] for row in rows]
        in_flight: list[int] = []
        killed = threading.Event()

        def killer():
            time.sleep(0.35)
            process.send_signal(signal.SIGKILL)
            killed.set()

        threading.Thread(target=killer, daemon=True).start()
        i = 1000
        while not killed.is_set() and i < 1400:
            in_flight.append(i)
            try:
                _request(
                    base, "POST", "/v1/acme/sessions/cust/update",
                    {"inserted": [[i, 44, f"Z{i % 5}", f"S{i % 3}"]]},
                )
                acked.append(i)
            except (urllib.error.URLError, ConnectionError, OSError):
                break
            in_flight.clear()
            i += 1
        process.wait(timeout=10)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
    assert len(acked) > len(rows), "no updates were acknowledged before kill"

    revived = DetectionService(data_dir=tmp_path, fsync="always")
    assert revived.recovered == 1
    recovered = resident_ids(revived, "acme", "cust")
    # every acknowledged update survived the kill...
    assert set(acked) <= set(recovered)
    # ...and nothing beyond the single possibly-in-flight request exists
    assert set(recovered) <= set(acked) | set(in_flight)
    replayed_rows = [
        row
        for rows_ in revived.snapshot("acme", "cust")["fragments"]
        for row in rows_
    ]
    assert served_violations(revived, "acme", "cust") == as_comparable(
        oracle(replayed_rows)
    )
    assert revived.verify("acme", "cust")["ok"]
