"""Stdlib HTTP front end for :class:`~repro.serve.service.SolverService`.

A :class:`~repro.net.JSONServer` (one thread per connection, ``HTTP/1.1``
keep-alive) dispatching to the transport-independent service core.  The
route table is deliberately tiny:

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

Every response is ``application/json``; the handler, body limits, read
deadline and error statuses are :mod:`repro.net`'s.  A solve route takes
its admission ticket only once the request body has arrived, so a slow
client cannot hold capacity; saturation answers ``429`` with a
``Retry-After`` header instead of queueing unboundedly.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.net import JSONDict, JSONServer, Route
from repro.serve.service import ServeConfig, SolverService


def _routes(service: SolverService) -> Dict[Tuple[str, str], Route]:
    def admitted(solve: Route) -> Route:
        def route(data: Optional[JSONDict]) -> bytes:
            service.admission.admit()  # raises Saturated, a 429 RequestError
            try:
                return solve(data)
            finally:
                service.admission.release()

        return route

    return {
        ("GET", "/healthz"): lambda _: service.health_json(),
        ("GET", "/version"): lambda _: service.version_json(),
        ("GET", "/stats"): lambda _: service.stats_json(),
        ("GET", "/solvers"): lambda _: service.solvers_json(),
        ("GET", "/families"): lambda _: service.families_json(),
        ("POST", "/solve"): admitted(service.solve_json),
        ("POST", "/solve-batch"): admitted(service.solve_batch_json),
        ("POST", "/sweep"): admitted(service.sweep_json),
    }


def make_server(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8350,
    quiet: bool = True,
) -> JSONServer:
    """Build a bound (not yet serving) daemon; ``port=0`` picks a free port.

    The caller owns the lifecycle::

        server = make_server(ServeConfig(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ...
        server.shutdown(); server.server_close()
    """
    service = SolverService(config)
    count = lambda method, path: service.counters.bump(f"requests {method} {path}")
    server = JSONServer((host, port), _routes(service), quiet=quiet, on_request=count)
    server.service = service  # type: ignore[attr-defined]
    return server


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
        server.server_close()
