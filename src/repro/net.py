"""Stdlib HTTP/JSON transport shared by the solver daemon and the sweep coordinator.

A daemon is a route table ``{(method, path): fn(body) -> bytes}`` served by
:class:`JSONServer` (one thread per connection, ``HTTP/1.1`` keep-alive,
Nagle off).  ``body`` is the parsed JSON object of a ``POST`` (``None`` for
a ``GET``) and the returned bytes go out as a ``200``.  The handler reads
the whole body before any route runs, under the per-connection read
deadline :data:`READ_TIMEOUT_S`, so a slow client holds a thread and never
a route's resources.  Failures are JSON ``{"error": ...}`` bodies: ``400``
for a missing body, a non-integer ``Content-Length`` or invalid/non-object
JSON, ``404`` for an unknown route, ``405`` for ``PUT``/``DELETE``/``PATCH``,
``408`` for a body stalled past the deadline, ``413`` above
:data:`MAX_BODY_BYTES`, a :class:`RequestError`'s own status, and ``500``
for any other exception.  http.server's own refusals (``400`` for a
malformed request line, ``501`` for a method such as ``HEAD`` or
``OPTIONS``, ``414``/``431`` for an oversized request line or headers)
take the same JSON path; an answer to ``HEAD`` carries the headers
only.  An error answer to a request with a body closes the connection,
since unread body bytes must not parse as a next request.  A client that
disconnects before its answer is written costs one log line (none when
the server is ``quiet``), not a traceback.

:class:`JSONClient` is the matching keep-alive client.
"""

from __future__ import annotations

import json
import sys
import time
from http import HTTPStatus
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro import __version__

JSONDict = Dict[str, Any]
Route = Callable[[Optional[JSONDict]], bytes]

#: request bodies above this are rejected with 413 (a 10k-node dense game
#: serializes to well under this; the bound stops multi-GB uploads from
#: exhausting daemon memory)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: seconds a connection may sit idle or stall mid-request before it is dropped
READ_TIMEOUT_S = 30.0

#: seconds between the serve loop's shutdown checks: the most a daemon's
#: ``shutdown()`` waits (socketserver's default is 0.5)
POLL_INTERVAL_S = 0.05


class RequestError(ValueError):
    """A refused request, answered as ``status`` with ``{"error": message}``."""

    def __init__(self, status: int, message: str, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class JSONHandler(BaseHTTPRequestHandler):
    """Dispatches one connection's requests to its server's route table."""

    server_version = f"repro/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as separate segments; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on a keep-alive socket.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:  # applied to the socket by StreamRequestHandler.setup
        return READ_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, retry_after: Optional[int] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if status >= 400 and (self.command != "GET" or self.close_connection):
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_error(self, status: int, message: str, retry_after: Optional[int] = None) -> None:
        self._send(status, (json.dumps({"error": message}, indent=2) + "\n").encode(), retry_after)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """http.server's own refusals, as JSON errors on a closing connection."""
        self.log_error("code %d, message %s", code, message)
        if self.request_version == "HTTP/0.9":  # the pre-parse default: still send a status line
            self.request_version = "HTTP/1.0"
        self.close_connection = True
        self._send_error(code, message or HTTPStatus(code).phrase)

    def _read_json(self) -> JSONDict:
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared or 0)
        except ValueError:
            raise RequestError(400, f"Content-Length is not an integer: {declared!r}") from None
        if length <= 0:
            raise RequestError(400, "request body required (Content-Length missing)")
        if length > MAX_BODY_BYTES:
            raise RequestError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise RequestError(408, f"request body stalled past {READ_TIMEOUT_S}s") from None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise RequestError(400, "request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        server = self.server
        if server.on_request is not None:  # type: ignore[attr-defined]
            server.on_request(method, self.path)  # type: ignore[attr-defined]
        route = server.routes.get((method, self.path))  # type: ignore[attr-defined]
        try:
            if route is None:
                raise RequestError(404, f"no such endpoint: {method} {self.path}")
            body = route(self._read_json() if method == "POST" else None)
        except RequestError as exc:
            self._send_error(exc.status, str(exc), exc.retry_after)
        except Exception as exc:  # noqa: BLE001 — a daemon must not die per request
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, body)

    def do_GET(self) -> None:  # noqa: N802  (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._send_error(405, "method not allowed")

    do_DELETE = do_PATCH = do_PUT


class JSONServer(ThreadingHTTPServer):
    """Threaded HTTP server over a route table; ``on_request(method, path)``
    sees every ``GET``/``POST`` before it is routed.  :meth:`serve_forever`
    polls every :data:`POLL_INTERVAL_S`, so ``shutdown()`` returns within
    that, not within socketserver's default half second."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], routes: Dict[Tuple[str, str], Route],
                 quiet: bool = True, on_request: Optional[Callable[[str, str], None]] = None):
        super().__init__(address, JSONHandler)
        self.routes = routes
        self.quiet = quiet
        self.on_request = on_request

    def serve_forever(self, poll_interval: float = POLL_INTERVAL_S) -> None:
        super().serve_forever(poll_interval)

    def handle_error(self, request: Any, client_address: Tuple[str, int]) -> None:
        """A client that went away gets one line; anything else its traceback."""
        exc = sys.exc_info()[1]
        if not isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)
        elif not self.quiet:
            host, port = client_address[:2]
            sys.stderr.write(f"client {host}:{port} disconnected: {exc}\n")


class StatusError(RuntimeError):
    """A non-2xx response: HTTP ``status``, the server's ``message`` (its
    ``{"error": ...}`` field, else the body text) and ``retry_after``
    seconds when the server sent that header."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class JSONClient:
    """One keep-alive connection to a :class:`JSONServer`; not thread-safe.

    A request that fails on a stale keep-alive socket (the server restarted
    or dropped an idle connection) is retried once on a fresh connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "JSONClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Optional[JSONDict] = None
    ) -> Tuple[bytes, int]:
        """``(body bytes, status)`` of a 2xx answer; anything else raises :class:`StatusError`."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        for retry in (False, True):
            if self._conn is None:
                self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
                break
            except (HTTPException, ConnectionError):
                self.close()
                if retry:
                    raise
        if response.status >= 400:
            try:
                message = json.loads(data)["error"]
            except (ValueError, KeyError, TypeError):  # e.g. a proxy's HTML 502 page
                message = data.decode("utf-8", "replace").strip() or "unknown error"
            retry_after = response.getheader("Retry-After")
            raise StatusError(response.status, message, float(retry_after) if retry_after else None)
        return data, response.status

    def _json(self, method: str, path: str, payload: Optional[JSONDict] = None) -> Any:
        return json.loads(self._request(method, path, payload)[0])

    def healthz(self) -> JSONDict:
        return self._json("GET", "/healthz")

    def stats(self) -> JSONDict:
        return self._json("GET", "/stats")

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> JSONDict:
        """Poll ``/healthz`` until the server answers and return its body;
        :class:`TimeoutError` if it is not up within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, HTTPException, ValueError, StatusError) as exc:
                last = exc
                self.close()
                time.sleep(interval)
        raise TimeoutError(f"{self.host}:{self.port} not ready after {timeout}s: {last}")
