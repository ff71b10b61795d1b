"""Stdlib HTTP front end for :class:`~repro.serve.service.SolverService`.

A :class:`~http.server.ThreadingHTTPServer` (one thread per connection,
``HTTP/1.1`` keep-alive) dispatching to the transport-independent service
core.  The routing table is deliberately tiny:

======  ==============  ====================================================
method  path            body
======  ==============  ====================================================
POST    ``/solve``      canonical :class:`~repro.api.report.SolveReport` JSON
POST    ``/solve-batch``  ``grid[i][j]`` of canonical reports
POST    ``/sweep``      deterministic sweep-result JSON
GET     ``/solvers``    the solver registry
GET     ``/families``   scenario + game families
GET     ``/healthz``    liveness probe
GET     ``/version``    package version
GET     ``/stats``      counters, LRU occupancy, admission state
======  ==============  ====================================================

Every response is ``application/json``.  Errors are
``{"error": "<message>"}`` with the matching status; saturation answers
``429`` with a ``Retry-After`` header instead of queueing unboundedly.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro import __version__
from repro.serve.service import Saturated, ServeConfig, ServeRequestError, SolverService

#: request bodies above this are rejected with 413 (a 10k-node dense game
#: serializes to well under this; the bound exists to stop accidental or
#: hostile multi-GB uploads from exhausting daemon memory)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: seconds suggested to a 429'd client before retrying
RETRY_AFTER_SECONDS = 1


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the attached :class:`SolverService`."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as separate segments; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on a keep-alive socket.
    disable_nagle_algorithm = True

    # The service is attached to the *server* (one per daemon), not the
    # handler (one per connection).
    @property
    def service(self) -> SolverService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", True):  # type: ignore[attr-defined]
            return
        super().log_message(format, *args)

    # -- response helpers ---------------------------------------------------

    def _send(self, status: int, body: bytes, retry_after: Optional[int] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str, retry_after: Optional[int] = None) -> None:
        body = (json.dumps({"error": message}, indent=2) + "\n").encode("utf-8")
        self._send(status, body, retry_after=retry_after)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServeRequestError(400, "request body required (Content-Length missing)")
        if length > MAX_BODY_BYTES:
            raise ServeRequestError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeRequestError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ServeRequestError(400, "request body must be a JSON object")
        return data

    # -- dispatch -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802  (http.server naming)
        service = self.service
        service.counters.bump(f"requests GET {self.path}")
        if self.path == "/healthz":
            self._send(200, service.health_json())
        elif self.path == "/version":
            self._send(200, service.version_json())
        elif self.path == "/stats":
            self._send(200, service.stats_json())
        elif self.path == "/solvers":
            self._send(200, service.solvers_json())
        elif self.path == "/families":
            self._send(200, service.families_json())
        else:
            self._send_error(404, f"no such endpoint: GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        service = self.service
        service.counters.bump(f"requests POST {self.path}")
        if self.path not in ("/solve", "/solve-batch", "/sweep"):
            self._send_error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            service.admission.admit()
        except Saturated as exc:
            self._send_error(429, str(exc), retry_after=RETRY_AFTER_SECONDS)
            return
        try:
            data = self._read_json()
            if self.path == "/solve":
                body = service.solve_json(data)
            elif self.path == "/solve-batch":
                body = service.solve_batch_json(data)
            else:
                body = service.sweep_json(data)
            self._send(200, body)
        except ServeRequestError as exc:
            self._send_error(exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 — daemon must not die per-request
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        finally:
            service.admission.release()

    def do_PUT(self) -> None:  # noqa: N802
        self._send_error(405, "method not allowed")

    do_DELETE = do_PUT
    do_PATCH = do_PUT


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying the shared :class:`SolverService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: SolverService, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


def make_server(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8350,
    quiet: bool = True,
) -> ServeHTTPServer:
    """Build a bound (not yet serving) daemon; ``port=0`` picks a free port.

    The caller owns the lifecycle::

        server = make_server(ServeConfig(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ...
        server.shutdown(); server.server_close()
    """
    service = SolverService(config)
    return ServeHTTPServer((host, port), service, quiet=quiet)


def serve_forever(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8350,
    quiet: bool = False,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the daemon in the current thread until interrupted.

    ``ready`` (if given) is set once the socket is bound and accepting —
    handy for tests and the CI smoke job, which start the daemon in a
    subprocess and must not race the first request against the bind.
    """
    server = make_server(config, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    if not quiet:
        print(f"repro-serve {__version__} listening on http://{bound_host}:{bound_port}")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
