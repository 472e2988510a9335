"""``serve_durable``: single-row updates over keep-alive HTTP against a
``python -m repro serve --data-dir`` child process.

Closed loop, one client: it sends its next request only after the
previous one is acknowledged, because a writer waits for its ack.  The
final state must equal a serial replay of exactly the acknowledged ops.

One client, writes only, because that is what repeats.  Two free-running
closed-loop clients are bistable: while their requests happen to collide
at the server both see 52 ms, otherwise 44 ms, each regime lasts a second
or two, and a run's median is whichever it spent more time in (measured:
44 to 52 ms on one commit).  A ``GET …/detect`` beside the writes shifts
the client's phase against the delayed-ACK timer the same way.  Reads
are timed on their own in the traced run (``serve.http.detect_p50_ms``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core import format_cfd
from repro.datagen import cust_street_cfd

from .workloads import Workload, mismatches

SRC = Path(__file__).resolve().parent.parent / "src"
SPAWN_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
LISTENING = re.compile(r"repro serve listening on http://([^:]+):(\d+)")
SESSION = "/v1/bench/sessions/cust"
TICK_S = 0.004  # the kernel's timer tick here (latencies step by it)


class OpRefused(Exception):
    """429/503: the governor shed the request; counted, never retried."""


class Served:
    """A report as ``GET …/detect`` returns it, comparable to a
    :class:`~repro.core.ViolationReport` through :func:`mismatches`.

    A CFD's name does not survive the format/parse round trip, so
    violations compare on their LHS — exact for a single-CFD session.
    """

    def __init__(self, payload: dict) -> None:
        self.violations = {
            (tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
            for v in payload["violations"]
        }
        self.tuple_keys = {tuple(key) for key in payload["tuple_keys"]}


class Server:
    """One ``repro serve`` child on a data directory; always reaped."""

    def __init__(self, data_dir: str, env: dict) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--data-dir", data_dir,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("repro serve did not report its port")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited with {self.process.wait(5)} "
                    "before listening"
                )
            match = LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def peak_rss_mib(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap; the crash the durability check recovers from."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(30)
        self.process.stdout.close()


def request(connection, method: str, path: str, body: bytes | None = None):
    """One request on a keep-alive connection -> ``(status, payload)``."""
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class ServeDurable(Workload):
    name = "serve_durable"
    #: the client waits on a socket for another process: nothing the
    #: clock's kernel, run on the client's thread, could calibrate
    calibrated = False
    rows_full = 20_000
    warmup_ops = 10
    first_key = 10_000_000  # the stream's keys, clear of the base rows'

    def __init__(self, seed, quick, out_dir) -> None:
        super().__init__(seed, quick)
        self.out_dir = out_dir
        self.env = dict(os.environ)  # run.py has stripped REPRO_* from it
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [self.env.get("PYTHONPATH")] if p]
        )
        self.server = None
        self.connection = None
        self.data_dir = None

    def generate(self) -> None:
        super().generate()
        self.cfd = cust_street_cfd(255)
        self.think = random.Random(self.seed)
        self.base = [list(row) for row in self.rows]
        self.spec = json.dumps(
            {
                "kind": "central",
                "schema": {
                    "name": self.schema.name,
                    "attributes": list(self.schema.attributes),
                    "key": list(self.schema.key),
                },
                "cfds": [format_cfd(self.cfd)],
                "rows": self.base,
            }
        ).encode()

    # -- set-up and tear-down ----------------------------------------------

    def setup(self, tracer) -> None:
        self.data_dir = tempfile.mkdtemp(prefix="serve-", dir=self.out_dir)
        with tracer.span("cli.serve.spawn"):
            self.server = Server(self.data_dir, self.env)
        self.connection = self.server.connect()
        with tracer.span("serve.registry.create"):
            status, payload = request(
                self.connection, "POST", SESSION, self.spec
            )
        if status != 201:
            raise RuntimeError(f"session create failed: {status} {payload}")
        self.acked = {}  # key -> row of every acknowledged, undeleted insert
        self.queue_seconds = []
        self.shed = 0

    def release(self) -> None:
        """Close, SIGKILL, reap and remove: also on a failed run."""
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.kill()
            self.server = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    # -- the op stream -------------------------------------------------------

    def next_op(self, i):
        """Op ``i`` after a seeded think time of up to one timer tick.

        The reply's body waits for the client's delayed ACK, a kernel
        timer that fires on a 4 ms tick.  A client that sends the instant
        it is answered stays in step with that tick, and every op of a run
        then reads 44 ms, or every op 48 ms, by whether the server's 4 ms
        of work end before a tick: a tenth of the latency hangs on a tenth
        of a millisecond.  Out of step, latency moves with the work."""
        time.sleep(self.think.uniform(0.0, TICK_S))
        return self.op(i)

    def op(self, i):
        """Three inserts, then a delete of the row inserted two steps
        earlier, so the delete/reconcile path is on the timed path ->
        ``(key, request body, inserted row or None)``."""
        key = self.first_key + i
        if i % 4 == 3:
            return key - 2, json.dumps({"deleted": [key - 2]}).encode(), None
        row = list(self.base[i % len(self.base)])
        row[self.key_pos] = key
        if i % 2:
            row[self.street_pos] = f"{row[self.street_pos]}~w{i}"
        return key, json.dumps({"inserted": [row]}).encode(), row

    def note_op(self, op) -> None:
        self.digest.update(op[1])

    def run_op(self, op) -> int:
        status, payload = request(
            self.connection, "POST", SESSION + "/update", op[1]
        )
        self.settle(op, status, payload)
        return 1

    def run_op_traced(self, op, tracer) -> int:
        """Client-side span with the server-reported governed region
        (enqueue -> settle, the ack's ``queue_seconds``) as its child."""
        with tracer.span("serve.http.request"):
            start = time.perf_counter()
            status, payload = request(
                self.connection, "POST", SESSION + "/update", op[1]
            )
            end = time.perf_counter()
            if status == 200:
                queued = min(payload["queue_seconds"], end - start)
                tracer.add("serve.service.queue_to_settle", end - queued, end)
        self.settle(op, status, payload)
        return 1

    def settle(self, op, status, payload) -> None:
        """Record an acknowledged write; a shed or failed one raises."""
        key, _body, row = op
        if status in (429, 503):
            self.shed += 1
            raise OpRefused(f"{status}: {payload.get('error')}")
        if status != 200:
            raise RuntimeError(f"update failed: {status} {payload}")
        self.queue_seconds.append(payload["queue_seconds"])
        if row is None:
            self.acked.pop(key, None)
        else:
            self.acked[key] = tuple(row)

    # -- the oracle -----------------------------------------------------------

    def stats(self) -> dict:
        status, payload = request(self.connection, "GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"stats failed: {status}")
        return payload

    def served_mismatches(self, label: str, expected) -> list[str]:
        status, payload = request(self.connection, "GET", SESSION + "/detect")
        if status != 200:
            return [f"{label}: {status} {payload}"]
        return mismatches(label, Served(payload), expected)

    def check(self, corrupt=False) -> list[str]:
        """Served report ≡ reference over the serial replay of exactly the
        acknowledged ops — and again after SIGKILL + restart (durability:
        every acknowledged write is readable from the data dir)."""
        final = [tuple(row) for row in self.base] + list(self.acked.values())
        expected = self.reference(final, [self.cfd], corrupt)
        expected.violations = {
            (v.lhs_attributes, v.lhs_values) for v in expected.violations
        }
        found = self.served_mismatches("served report", expected)

        self.stats_before_kill = self.stats()
        self.connection.close()
        self.server.kill()
        start = time.perf_counter()
        self.server = Server(self.data_dir, self.env)
        self.recovery_seconds = time.perf_counter() - start
        self.connection = self.server.connect()
        found += self.served_mismatches(
            "served report after SIGKILL + restart", expected
        )
        self.stats_after_restart = self.stats()
        return found

    def peak_rss_mib(self) -> float:
        return self.server.peak_rss_mib()

    def size(self) -> dict:
        return {**super().size(), "cfds": 1, "delta_rows": 1, "clients": 1}
