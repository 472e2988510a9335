"""End-to-end smoke of the real ``repro serve`` process.

Each test boots ``python -m repro serve --port 0`` as a child process and
drives it over HTTP:

* two concurrent writers on keep-alive connections, with updates
  coalesced (``REPRO_SERVE_COALESCE=8``): the served report must equal a
  serial replay, and ``verify`` must pass;
* a governed server with a one-shot injected fold failure
  (``REPRO_FAULTS=fold-fail@0``): an oversized body is 413, an over-quota
  update 429 with ``Retry-After``, the failed fold 500 and the tripped
  breaker 503 with ``Retry-After``; ``/healthz`` turns degraded while
  ``/healthz?live=1`` stays 200.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import detect_violations, parse_cfd
from repro.relational import Relation
from repro.relational.schema import Schema

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {"attributes": ["id", "CC", "zip", "street"], "key": ["id"]}


@pytest.fixture
def serve():
    """``serve(*flags, **env)`` boots a server child and returns its base
    URL; every child is terminated at teardown."""
    children = []

    def start(*flags, **extra_env):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        children.append(process)
        line = process.stdout.readline()
        assert "listening on" in line, line
        return "http://" + line.split("http://", 1)[1].split()[0]

    yield start
    for process in children:
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()


def call(base, method, path, body=None):
    """``(status, JSON payload, headers)``, HTTP errors included."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def test_concurrent_clients_equal_a_serial_replay(serve):
    base = serve(REPRO_SERVE_COALESCE="8")
    rows = [
        [i, 44 if i % 2 else 99, f"Z{i % 5}", f"S{i % 3}"] for i in range(100)
    ]
    status, _, _ = call(base, "POST", "/v1/ci/sessions/cust", {
        "kind": "central", "schema": SCHEMA, "cfds": [CFD], "rows": rows,
    })
    assert status == 201, status

    per_client = 20
    gate = threading.Barrier(2)
    errors = []

    def client(index):
        gate.wait()
        try:
            host, port = base.removeprefix("http://").rsplit(":", 1)
            connection = http.client.HTTPConnection(host, int(port), timeout=30)
            for step in range(per_client):
                key = 1000 + index * per_client + step
                connection.request(
                    "POST", "/v1/ci/sessions/cust/update", json.dumps({
                        "inserted": [[key, 44, f"Z{index}", f"C{index}-{step}"]],
                    }),
                )
                response = connection.getresponse()
                assert response.status == 200, response.read()
                response.read()
            connection.close()
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    final = [tuple(row) for row in rows] + [
        (1000 + i * per_client + s, 44, f"Z{i}", f"C{i}-{s}")
        for i in range(2)
        for s in range(per_client)
    ]
    replay = detect_violations(
        Relation(Schema("cust", SCHEMA["attributes"], SCHEMA["key"]), final),
        parse_cfd(CFD),
    )
    _, report, _ = call(base, "GET", "/v1/ci/sessions/cust/detect")
    served = {
        (v["cfd"], tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
        for v in report["violations"]
    }
    expected = {
        (v.cfd, v.lhs_attributes, v.lhs_values) for v in replay.violations
    }
    assert served == expected, f"served != serial replay: {served ^ expected}"
    assert call(base, "POST", "/v1/ci/sessions/cust/verify", {})[1]["ok"]


def test_governed_server_sheds_cleanly(serve):
    base = serve(
        "--max-rows", "8", "--max-body", "4096", "--breaker", "1",
        "--cooldown", "60",
        REPRO_FAULTS="fold-fail@0",
    )
    rows = [[i, 44, f"Z{i % 3}", f"S{i % 2}"] for i in range(20)]
    status, _, _ = call(base, "POST", "/v1/ci/sessions/cust", {
        "kind": "central", "schema": SCHEMA, "cfds": [CFD], "rows": rows,
    })
    assert status == 201, status

    # an oversized body must bounce before a byte is read
    status, payload, _ = call(base, "POST", "/v1/ci/sessions/big", {
        "kind": "central", "schema": SCHEMA, "cfds": [CFD],
        "rows": [[1000 + i, 44, "Z0", "S0"] for i in range(300)],
    })
    assert status == 413, (status, payload)

    # an over-quota update must 429 and say when to come back
    status, payload, headers = call(
        base, "POST", "/v1/ci/sessions/cust/update",
        {"inserted": [[2000 + i, 44, "Z0", "X"] for i in range(9)]},
    )
    assert status == 429, (status, payload)
    assert headers.get("Retry-After") is not None, dict(headers)

    # the injected fold failure trips the 1-failure breaker
    status, payload, _ = call(
        base, "POST", "/v1/ci/sessions/cust/update",
        {"inserted": [[2100, 44, "Z0", "X"]]},
    )
    assert status == 500, (status, payload)
    status, payload, headers = call(
        base, "POST", "/v1/ci/sessions/cust/update",
        {"inserted": [[2101, 44, "Z0", "X"]]},
    )
    assert status == 503, (status, payload)
    assert headers.get("Retry-After") is not None, dict(headers)

    # /healthz tells the truth; ?live=1 stays a liveness probe
    status, health, _ = call(base, "GET", "/healthz")
    assert status == 503 and health["ok"] is False, health
    assert health["breakers_open"] == ["ci/cust"], health
    status, live, _ = call(base, "GET", "/healthz?live=1")
    assert status == 200 and live["live"] is True, live
