"""Minimal stdlib client for the solver daemon.

:class:`ServeClient` is the shared keep-alive :class:`repro.net.JSONClient`
plus the daemon's endpoints: it is what the tests, the CI ``serve-smoke``
job and ``benchmarks/bench_serve.py`` use, and doubles as executable
documentation of the wire protocol.

The ``*_raw`` methods return the exact response body **bytes** — the
canonical form the byte-identity guarantees are stated in — while the
plain methods return parsed JSON for convenience::

    client = ServeClient("127.0.0.1", 8350)
    client.wait_ready()
    report = client.solve(instance_json, "sne-lp2")
    assert client.solve_raw(instance_json, "sne-lp2")[0] == cli_bytes
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple, Union

from repro.net import JSONClient, JSONDict, StatusError

#: a non-2xx daemon response: ``status``, ``message`` (the server's
#: ``{"error": ...}``) and ``retry_after`` seconds when the daemon sent a 429
ServeError = StatusError


class ServeClient(JSONClient):
    """One keep-alive connection to a running solver daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8350, timeout: float = 60.0):
        super().__init__(host, port, timeout)

    # -- solve endpoints (raw bytes + parsed) -------------------------------

    def solve_raw(
        self, instance: JSONDict, solver: str, opts: Optional[JSONDict] = None
    ) -> Tuple[bytes, int]:
        """``POST /solve`` → ``(body bytes, status)``; bytes are canonical."""
        payload: JSONDict = {"instance": instance, "solver": solver}
        if opts:
            payload["opts"] = opts
        return self._request("POST", "/solve", payload)

    def solve(
        self, instance: JSONDict, solver: str, opts: Optional[JSONDict] = None
    ) -> JSONDict:
        """``POST /solve`` → the canonical report, parsed."""
        return json.loads(self.solve_raw(instance, solver, opts)[0])

    def solve_batch_raw(
        self,
        instances: Union[Sequence[JSONDict], JSONDict],
        solvers: Union[str, Sequence[str]],
        opts: Optional[JSONDict] = None,
    ) -> Tuple[bytes, int]:
        payload: JSONDict = {
            "instances": list(instances) if not isinstance(instances, dict) else instances,
            "solvers": [solvers] if isinstance(solvers, str) else list(solvers),
        }
        if opts:
            payload["opts"] = opts
        return self._request("POST", "/solve-batch", payload)

    def solve_batch(
        self,
        instances: Union[Sequence[JSONDict], JSONDict],
        solvers: Union[str, Sequence[str]],
        opts: Optional[JSONDict] = None,
    ) -> List[List[JSONDict]]:
        return json.loads(self.solve_batch_raw(instances, solvers, opts)[0])

    def sweep_raw(self, spec: JSONDict) -> Tuple[bytes, int]:
        return self._request("POST", "/sweep", {"spec": spec})

    def sweep(self, spec: JSONDict) -> JSONDict:
        return json.loads(self.sweep_raw(spec)[0])

    # -- introspection ------------------------------------------------------

    def version(self) -> str:
        return self._json("GET", "/version")["version"]

    def solvers(self) -> List[JSONDict]:
        return self._json("GET", "/solvers")["solvers"]

    def families(self) -> JSONDict:
        return self._json("GET", "/families")
