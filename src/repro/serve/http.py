"""The threaded HTTP front end of the resident detection service.

Stdlib only (:mod:`http.server` with ``ThreadingHTTPServer``): every
request runs on its own thread against one shared
:class:`~repro.serve.service.DetectionService`, which is exactly the
concurrency regime the shared-dictionary locks and per-session group
commit exist for.

Routes (all payloads JSON)::

    GET    /healthz                                  liveness probe
    GET    /v1/stats                                 registry + session stats
    POST   /v1/<tenant>/sessions/<name>              create (spec body)
    DELETE /v1/<tenant>/sessions/<name>              drop
    POST   /v1/<tenant>/sessions/<name>/update       {inserted, deleted, site}
    GET    /v1/<tenant>/sessions/<name>/detect       full current report
    POST   /v1/<tenant>/sessions/<name>/verify       {sample, seed}
    GET    /v1/<tenant>/sessions/<name>/snapshot     durable session state

Typed service failures map onto statuses: bad payloads → 400, unknown
sessions → 404, duplicate creates → 409, backpressure and quota
rejections → 429 with a ``Retry-After`` header, oversized bodies → 413,
open circuit breakers / expired deadlines / quarantined sessions → 503
(breakers and deadlines carry ``Retry-After`` too), anything
unexpected → 500.

``/healthz`` is truthful: 200 only while nothing is degraded (no
quarantined session, no wedged journal, no breaker sitting open), else
503 with the degraded inventory.  ``/healthz?live=1`` stays a pure
liveness probe for orchestrators that only need "the process answers".
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from ..knobs import resolve
from ..relational.schema import SchemaError
from .service import (
    Backpressure,
    BadSessionSpec,
    CircuitOpen,
    DeadlineExceeded,
    DetectionService,
    DuplicateSession,
    PayloadTooLarge,
    SessionQuarantined,
    UnknownSession,
)

_SESSION = re.compile(r"^/v1/([^/]+)/sessions/([^/]+)$")
_ACTION = re.compile(
    r"^/v1/([^/]+)/sessions/([^/]+)/(update|detect|verify|snapshot)$"
)


class ServeHandler(BaseHTTPRequestHandler):
    """One request; the service on ``self.server.service`` is shared."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: a response larger than one
    #: send buffer (detect, snapshot, stats) must not have its last
    #: partial segment held for the previous one's ACK
    disable_nagle_algorithm = True

    # the server is driven by tests and load generators; request logging
    # would drown their output
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def setup(self) -> None:
        # per-connection socket timeout (REPRO_SERVE_TIMEOUT): the stdlib
        # applies self.timeout via connection.settimeout(), so a stalled
        # client gets disconnected instead of pinning a handler thread
        self.timeout = getattr(self.server, "request_timeout", self.timeout)
        super().setup()

    # -- plumbing ----------------------------------------------------------

    def _body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadSessionSpec("Content-Length is not an integer") from None
        limit = self.server.max_body
        if length > limit:
            # reject on the declared length, before reading a byte: an
            # unbounded rfile.read() is exactly the memory hole this cap
            # closes.  The unread body poisons the connection for
            # keep-alive, so the 413 handler closes it.
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the {limit}-byte "
                "cap (REPRO_SERVE_MAX_BODY)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError:
            raise BadSessionSpec("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise BadSessionSpec("request body must be a JSON object")
        return payload

    def _send(self, status: int, payload: dict, headers: dict | None = None):
        """One response, one segment.

        Status line, headers and JSON body reach the socket in a single
        write (``wfile`` is unbuffered, so that is one ``sendall``).  A
        header block sent ahead of its body would sit un-ACKed until a
        keep-alive client's delayed-ACK timer fires, with Nagle holding
        the body back meanwhile — ≈40 ms per response for nothing.
        """
        body = json.dumps(payload).encode()
        head = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        head.extend(
            f"{name}: {value}" for name, value in (headers or {}).items()
        )
        head.append("\r\n")  # the blank line that ends the header block
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)

    def _dispatch(self, method: str) -> None:
        try:
            self._respond(method)
        except (ConnectionError, TimeoutError):
            # the client went away (broken pipe, reset, abort) or stalled
            # past REPRO_SERVE_TIMEOUT, while we read or while we wrote —
            # including a write from one of _respond's own error arms.
            # The socket is dead: close, never attempt a second response.
            self.close_connection = True

    def _respond(self, method: str) -> None:
        service: DetectionService = self.server.service
        path, _, query = self.path.partition("?")
        try:
            match = _ACTION.match(path)
            if match:
                tenant, name, action = map(unquote, match.groups())
                self._session_action(service, method, tenant, name, action)
                return
            match = _SESSION.match(path)
            if match:
                tenant, name = map(unquote, match.groups())
                if method == "POST":
                    self._send(
                        201, service.create_session(tenant, name, self._body())
                    )
                elif method == "DELETE":
                    self._send(200, service.drop(tenant, name))
                else:
                    self._send(405, {"error": f"{method} not allowed here"})
                return
            if path == "/healthz" and method == "GET":
                if "live=1" in query.split("&"):
                    self._send(200, {"ok": True, "live": True})
                    return
                health = service.health()
                self._send(200 if health["ok"] else 503, health)
                return
            if path == "/v1/stats" and method == "GET":
                self._send(200, service.stats())
                return
            self._send(404, {"error": f"no route {self.path}"})
        except Backpressure as error:
            # QuotaExceeded lands here too — same remedy for clients
            self._send(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except (CircuitOpen, DeadlineExceeded) as error:
            self._send(
                503,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except SessionQuarantined as error:
            self._send(503, {"error": str(error)})
        except PayloadTooLarge as error:
            # the declared body was never read; keep-alive would misread
            # it as the next request, so this connection must die
            self.close_connection = True
            self._send(413, {"error": str(error)})
        except UnknownSession as error:
            self._send(404, {"error": str(error)})
        except DuplicateSession as error:
            self._send(409, {"error": str(error)})
        except (BadSessionSpec, SchemaError, ValueError, TypeError) as error:
            self._send(400, {"error": str(error)})
        except (ConnectionError, TimeoutError):
            raise  # _dispatch's; a dead socket gets no 500
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def _session_action(
        self,
        service: DetectionService,
        method: str,
        tenant: str,
        name: str,
        action: str,
    ) -> None:
        if action == "update" and method == "POST":
            body = self._body()
            self._send(
                200,
                service.update(
                    tenant,
                    name,
                    inserted=body.get("inserted", ()),
                    deleted=body.get("deleted", ()),
                    site=body.get("site"),
                ),
            )
        elif action == "detect" and method == "GET":
            self._send(200, service.detect(tenant, name))
        elif action == "verify" and method == "POST":
            body = self._body()
            self._send(
                200,
                service.verify(
                    tenant,
                    name,
                    sample=body.get("sample"),
                    seed=int(body.get("seed", 8)),
                ),
            )
        elif action == "snapshot" and method == "GET":
            self._send(200, service.snapshot(tenant, name))
        else:
            self._send(405, {"error": f"{method} not allowed on {action}"})

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


def serve_http(
    service: DetectionService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float | None = None,
    max_body: int | None = None,
) -> ThreadingHTTPServer:
    """A ready (not yet serving) threaded server; ``port=0`` picks a free
    one — read the bound address back from ``server.server_address``.

    Call ``serve_forever()`` (the CLI does) or drive it from a thread in
    tests; ``daemon_threads`` keeps request threads from blocking exit.
    ``timeout`` (else ``REPRO_SERVE_TIMEOUT``, default 30 s) bounds how
    long one stalled connection can hold a handler thread.
    """
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.daemon_threads = True
    # the stdlib default accept backlog (5) resets connections the
    # moment a burst outruns the accept loop; overload must be answered
    # by the governor (429/503 + Retry-After), not by kernel RSTs
    server.socket.listen(128)
    server.request_timeout = resolve("REPRO_SERVE_TIMEOUT", timeout)
    server.max_body = resolve("REPRO_SERVE_MAX_BODY", max_body)
    server.service = service if service is not None else DetectionService()
    return server
