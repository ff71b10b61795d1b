"""The shared HTTP/JSON transport (``repro.net``) under malformed and hostile input.

One case per input class, run against both daemons built on it — the
solver daemon and the sweep coordinator.  Every case must get a JSON
``{"error": ...}`` body with the documented status, and the daemon must
still answer ``/healthz`` afterwards.
"""

import json
import socket
import struct
import threading
import time
from contextlib import ExitStack, contextmanager
from http.client import HTTPConnection, HTTPResponse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import net
from repro.net import StatusError
from repro.runtime import SweepSpec
from repro.runtime.distributed import CoordinatorClient, SweepCoordinator, run_worker
from repro.serve import ServeConfig, make_server


@contextmanager
def solver_daemon():
    server = make_server(ServeConfig(cache=False), port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address[1], "/solve"
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def sweep_coordinator():
    spec = SweepSpec(solvers=["theorem6"], models=["tree-chords"], sizes=[8], count=1, seed=5)
    coordinator = SweepCoordinator(spec.expand(), cache=False)
    _host, port = coordinator.serve("127.0.0.1", 0)
    try:
        yield port, "/lease"
    finally:
        coordinator.folder.close()
        coordinator.close()


DAEMONS = {"serve": solver_daemon, "coordinator": sweep_coordinator}


def _post(path, body=b"", length=None, method="POST"):
    """Raw request bytes; ``length`` overrides the Content-Length header
    (``""`` leaves the header out)."""
    length = len(body) if length is None else length
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if length != "":
        head += f"Content-Length: {length}\r\n"
    return head.encode() + b"\r\n" + body


#: input class -> (raw request for a daemon's POST route, expected status)
FAULTS = {
    "unknown-path": (lambda route: b"GET /no-such-path HTTP/1.1\r\nHost: test\r\n\r\n", 404),
    "wrong-method": (lambda route: _post(route, b"{}", method="PUT"), 405),
    "missing-body": (lambda route: _post(route, length=""), 400),
    "non-integer-content-length": (lambda route: _post(route, b"{}", length="abc"), 400),
    "invalid-json": (lambda route: _post(route, b"{not json"), 400),
    "non-object-json": (lambda route: _post(route, b"[1, 2]"), 400),
    "oversized-content-length": (lambda route: _post(route, length=net.MAX_BODY_BYTES + 1), 413),
    "stalled-body": (lambda route: _post(route, b"{", length=100), 408),
}


def exchange(port, raw):
    """Send ``raw`` on a fresh socket; return (response, parsed body, socket)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(raw)
    response = HTTPResponse(sock)
    response.begin()
    return response, json.loads(response.read()), sock


def assert_healthy(port):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_matrix(daemon, fault, monkeypatch):
    monkeypatch.setattr(net, "READ_TIMEOUT_S", 0.3)  # the stalled body's deadline
    build, status = FAULTS[fault]
    with DAEMONS[daemon]() as (port, route):
        response, body, sock = exchange(port, build(route))
        try:
            assert response.status == status, body
            assert response.getheader("Content-Type") == "application/json"
            assert isinstance(body.get("error"), str) and body["error"]
        finally:
            sock.close()
        assert_healthy(port)


# ---------------------------------------------------------------------------
# the client against a server that does not speak the daemons' JSON
# ---------------------------------------------------------------------------


class _BadGateway(BaseHTTPRequestHandler):
    """Healthy on /healthz, an HTML 502 (as a proxy sends) everywhere else."""

    protocol_version = "HTTP/1.1"

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        if self.path == "/healthz":
            status, kind, body = 200, "application/json", b'{"status": "ok"}'
        else:
            status, kind, body = 502, "text/html", b"<html><h1>502 Bad Gateway</h1></html>"
        self.send_response(status)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer

    def log_message(self, format, *args):
        pass


@contextmanager
def bad_gateway():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _BadGateway)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def test_html_error_body_raises_status_error():
    with bad_gateway() as port, CoordinatorClient("127.0.0.1", port) as client:
        with pytest.raises(StatusError) as excinfo:
            client.lease("w0")
        assert isinstance(excinfo.value, RuntimeError)
        assert excinfo.value.status == 502
        assert "Bad Gateway" in excinfo.value.message


def test_worker_survives_html_502_from_coordinator_address():
    with bad_gateway() as port:
        summary = run_worker(connect=("127.0.0.1", port), worker_id="w0", ready_timeout=5.0)
    assert summary.completed == 0 and summary.failed == 0


# ---------------------------------------------------------------------------
# http.server's own refusals and clients that go away
# ---------------------------------------------------------------------------

#: request http.server refuses before any route runs -> (raw bytes, status)
REFUSALS = {
    "options": (b"OPTIONS /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 501),
    "malformed-request-line": (b"GARBAGE\r\n\r\n", 400),
    "bad-http-version": (b"GET /healthz HTTP/x.y\r\nHost: test\r\n\r\n", 400),
}


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_http_server_refusals_are_json(daemon, refusal):
    raw, status = REFUSALS[refusal]
    with DAEMONS[daemon]() as (port, _route):
        response, body, sock = exchange(port, raw)
        try:
            assert response.status == status, body
            assert response.getheader("Content-Type") == "application/json"
            assert response.getheader("Connection") == "close"
            assert isinstance(body.get("error"), str) and body["error"]
        finally:
            sock.close()
        assert_healthy(port)


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_head_gets_json_headers_without_a_body(daemon):
    with DAEMONS[daemon]() as (port, _route):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            response = HTTPResponse(sock, method="HEAD")
            response.begin()
            assert response.status == 501
            assert response.getheader("Content-Type") == "application/json"
            assert int(response.getheader("Content-Length")) > 0
            assert response.getheader("Connection") == "close"
            response.close()
            sock.settimeout(10)
            assert sock.recv(4096) == b""  # no body bytes follow the headers
        finally:
            sock.close()
        assert_healthy(port)


@contextmanager
def echo_server(quiet):
    """A bare ``JSONServer``; yields (port, event set after each handle_error)."""
    server = net.JSONServer(("127.0.0.1", 0), {("POST", "/echo"): lambda body: b"{}"},
                            quiet=quiet)
    handled = threading.Event()
    handle_error = server.handle_error

    def spy(request, client_address):
        try:
            handle_error(request, client_address)
        finally:
            handled.set()

    server.handle_error = spy
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address[1], handled
    finally:
        server.shutdown()
        server.server_close()


def _half_send_and_reset(port):
    """A POST whose body never completes, then a reset (SO_LINGER 0) close."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(_post("/echo", b"{", length=100))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _post_echo(port):
    """One clean exchange: the body is read, so the close is a FIN, not a reset."""
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/echo", body=b"{}")
        response = conn.getresponse()
        assert response.status == 200
        assert response.read() == b"{}"
    finally:
        conn.close()


@pytest.mark.parametrize("quiet", [True, False])
def test_client_that_went_away_is_not_a_traceback(quiet, capfd):
    with echo_server(quiet) as (port, handled):
        _half_send_and_reset(port)
        assert handled.wait(10), "the reset never reached handle_error"
        _post_echo(port)
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.count("disconnected") == (0 if quiet else 1), err


def test_other_handler_errors_keep_their_traceback(capfd):
    server = net.JSONServer(("127.0.0.1", 0), {}, quiet=True)
    try:
        try:
            raise RuntimeError("a genuine handler bug")
        except RuntimeError:
            server.handle_error(None, ("127.0.0.1", 1))
    finally:
        server.server_close()
    err = capfd.readouterr().err
    assert "Traceback" in err and "a genuine handler bug" in err


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_daemon_closes_within_a_poll_tick(daemon):
    """Shutting a serving daemon down takes one poll tick, not socketserver's
    default half second; best of three, so one slow tick on a busy host does
    not fail it."""
    times = []
    for _ in range(3):
        with ExitStack() as stack:
            port, _path = stack.enter_context(DAEMONS[daemon]())
            with net.JSONClient("127.0.0.1", port, timeout=5) as client:
                client.healthz()
            start = time.perf_counter()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, times
