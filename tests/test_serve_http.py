"""The HTTP front end: byte-identity with the CLI, concurrency, admission."""

import json
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection

import pytest

from repro import __version__, api
from repro.cli import main
from repro.games import (
    BroadcastGame,
    DirectedNetworkDesignGame,
    MulticastGame,
    NetworkDesignGame,
    WeightedNetworkDesignGame,
)
from repro.graphs.graph import Graph
from repro.serve import ServeClient, ServeConfig, ServeError, make_server

SOLVER = "sne-lp2"  # defined on every game family


def _family_zoo():
    g = Graph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 1.3), (0, 3, 1.6)]
    )
    others = [u for u in g.nodes if u != 0]
    pairs = [(u, 0) for u in others]
    games = {
        "broadcast": BroadcastGame(g, 0),
        "multicast": MulticastGame(g, 0, others),
        "general": NetworkDesignGame(g, pairs),
        "weighted": WeightedNetworkDesignGame(g, pairs, [1.0] * len(pairs)),
        "directed": DirectedNetworkDesignGame(g, pairs),
    }
    return {name: api.serialize.game_to_json(game) for name, game in games.items()}


@contextmanager
def serve(config=None):
    """A live daemon on an ephemeral port, torn down on exit."""
    server = make_server(config or ServeConfig(cache=False), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(port=server.server_address[1])
    try:
        client.wait_ready()
        yield server.server_address[1], client, server.service
    finally:
        client.close()
        server.shutdown()
        server.server_close()


class TestByteIdentityWithCLI:
    def test_solve_matches_cli_across_all_families(self, tmp_path):
        """The acceptance criterion: daemon body == `cli solve --json
        --canonical` file bytes, for every game family."""
        with serve() as (_port, client, _service):
            for family, instance in _family_zoo().items():
                instance_file = tmp_path / f"{family}.json"
                instance_file.write_text(json.dumps(instance))
                out = tmp_path / f"{family}-cli.json"
                rc = main(
                    [
                        "solve",
                        str(instance_file),
                        "--solver",
                        SOLVER,
                        "--json",
                        "--canonical",
                        "--out",
                        str(out),
                    ]
                )
                assert rc == 0, family
                body, status = client.solve_raw(instance, SOLVER)
                assert status == 200
                assert body == out.read_bytes(), f"{family}: daemon != CLI bytes"

    def test_solve_batch_matches_cli(self, tmp_path):
        zoo = _family_zoo()
        instances = [zoo["broadcast"], zoo["general"]]
        instance_file = tmp_path / "set.json"
        instance_file.write_text(
            json.dumps({"kind": "instance-set", "instances": instances})
        )
        out = tmp_path / "batch-cli.json"
        rc = main(
            [
                "solve-batch",
                str(instance_file),
                "--solver",
                "sne-lp1",
                "--solver",
                SOLVER,
                "--json",
                "--canonical",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with serve() as (_port, client, _service):
            body, _ = client.solve_batch_raw(instances, ["sne-lp1", SOLVER])
            assert body == out.read_bytes()


class TestConcurrentClients:
    def test_interleaved_threads_get_serial_bytes(self):
        """N threads x all families interleaved == the serial answers."""
        zoo = list(_family_zoo().items())
        with serve(ServeConfig(cache=False, workers=4, queue=32)) as (
            port,
            client,
            _service,
        ):
            serial = {
                family: client.solve_raw(instance, SOLVER)[0]
                for family, instance in zoo
            }
            results = {}
            errors = []
            lock = threading.Lock()

            def worker(offset):
                local = ServeClient(port=port)
                try:
                    for k in range(len(zoo) * 3):
                        family, instance = zoo[(offset + k) % len(zoo)]
                        body, _ = local.solve_raw(instance, SOLVER)
                        with lock:
                            results.setdefault(family, set()).add(body)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                finally:
                    local.close()

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            for family, bodies in results.items():
                assert bodies == {serial[family]}, f"{family} diverged under load"


class TestCacheHitsViaStats:
    def test_repeat_request_hits_result_cache(self, tmp_path):
        instance = _family_zoo()["broadcast"]
        with serve(ServeConfig(cache=tmp_path)) as (_port, client, _service):
            first, _ = client.solve_raw(instance, SOLVER)
            before = client.stats()["counters"]
            again, _ = client.solve_raw(instance, SOLVER)
            after = client.stats()["counters"]
            assert first == again
            assert after["result_cache_hits"] == before.get("result_cache_hits", 0) + 1
            assert after["solves"] == before["solves"]  # no recompute


class TestKeepAliveLatency:
    def test_cache_hit_round_trips_do_not_stall(self, tmp_path):
        """Headers and body leave as separate segments; with Nagle on, a
        keep-alive response waits ~40 ms for the client's delayed ACK."""
        instance = _family_zoo()["broadcast"]
        with serve(ServeConfig(cache=tmp_path)) as (_port, client, _service):
            client.solve_raw(instance, SOLVER)
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                _body, status = client.solve_raw(instance, SOLVER)
                times.append(time.perf_counter() - t0)
                assert status == 200
        assert statistics.median(times) < 0.015, times


class TestAdmissionControlHTTP:
    def test_saturated_daemon_answers_429_with_retry_after(self, monkeypatch):
        real_solve = api.solve
        started = threading.Event()
        release = threading.Event()

        def blocked_solve(*args, **kwargs):
            started.set()
            assert release.wait(10.0), "test never released the solver"
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(api, "solve", blocked_solve)
        instance = _family_zoo()["broadcast"]
        with serve(ServeConfig(cache=False, workers=1, queue=0)) as (
            port,
            client,
            service,
        ):
            first = {}
            thread = threading.Thread(
                target=lambda: first.update(
                    body=client.solve_raw(instance, SOLVER)[0]
                )
            )
            thread.start()
            assert started.wait(10.0)  # the only worker slot is now held
            second = ServeClient(port=port)
            with pytest.raises(ServeError) as excinfo:
                second.solve_raw(instance, SOLVER)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            second.close()
            release.set()
            thread.join(timeout=30.0)
            assert "body" in first  # the admitted request still completed
            assert service.admission.rejected == 1


class TestSlowClientLockout:
    """Admission is taken after the body arrives: half-sent requests hold a
    connection thread, never an admission ticket."""

    @staticmethod
    def _half_sent_post(port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(
            b"POST /solve HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n{"
        )
        return sock

    def test_half_sent_bodies_do_not_lock_out_honest_clients(self):
        instance = _family_zoo()["broadcast"]
        with serve(ServeConfig(cache=False, workers=1, queue=1)) as (port, client, service):
            stalled = [self._half_sent_post(port) for _ in range(2)]
            try:
                time.sleep(0.2)  # both handlers are now blocked mid-body
                body, status = client.solve_raw(instance, SOLVER)
                assert status == 200 and json.loads(body)["kind"] == "solve-report"
                assert service.admission.rejected == 0
            finally:
                for sock in stalled:
                    sock.close()

    def test_read_deadline_drops_a_stalled_body(self, monkeypatch):
        from repro import net

        monkeypatch.setattr(net, "READ_TIMEOUT_S", 0.5)
        instance = _family_zoo()["broadcast"]
        with serve(ServeConfig(cache=False, workers=1, queue=1)) as (port, _client, _service):
            stalled = self._half_sent_post(port)
            honest = ServeClient(port=port)
            try:
                assert honest.solve_raw(instance, SOLVER)[1] == 200
                stalled.settimeout(5.0)
                reply = b""
                while chunk := stalled.recv(4096):  # until the daemon closes
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 408 ")
                assert b"Connection: close" in reply
                assert honest.healthz()["status"] == "ok"
            finally:
                honest.close()
                stalled.close()


class TestErrorsAndEndpoints:
    def test_version_endpoint_single_source_of_truth(self):
        with serve() as (_port, client, _service):
            assert client.version() == __version__
            assert client.healthz() == {"status": "ok", "version": __version__}

    def test_solvers_and_families_endpoints(self):
        with serve() as (_port, client, _service):
            names = {s["name"] for s in client.solvers()}
            assert names == set(api.solver_names())
            families = client.families()
            assert {g["family"] for g in families["games"]} == {
                "broadcast",
                "multicast",
                "general",
                "weighted",
                "directed",
            }

    def test_unknown_paths_are_404(self):
        with serve() as (_port, client, _service):
            for method, path in (("GET", "/nope"), ("POST", "/also-nope")):
                with pytest.raises(ServeError) as excinfo:
                    client._request(method, path, {"x": 1} if method == "POST" else None)
                assert excinfo.value.status == 404

    def test_unsupported_method_is_405(self):
        with serve() as (port, _client, _service):
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("DELETE", "/solve")
            response = conn.getresponse()
            assert response.status == 405
            response.read()
            conn.close()

    def test_malformed_json_body_is_400(self):
        with serve() as (port, _client, _service):
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request(
                "POST", "/solve", body=b"{not json", headers={"Content-Length": "9"}
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
            conn.close()

    def test_missing_body_is_400(self):
        with serve() as (port, _client, _service):
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("POST", "/solve")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            conn.close()

    def test_unknown_solver_is_400(self):
        with serve() as (_port, client, _service):
            with pytest.raises(ServeError) as excinfo:
                client.solve(_family_zoo()["broadcast"], "no-such-solver")
            assert excinfo.value.status == 400
            assert "unknown solver" in excinfo.value.message

    def test_broadcast_only_solver_on_incompatible_game_is_400(self):
        # sne-lp3 is broadcast-only; a multi-target general game cannot be
        # coerced, so the daemon must answer 400 (caller error), not 500.
        g = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 1.3), (0, 3, 1.6)]
        )
        instance = api.serialize.game_to_json(NetworkDesignGame(g, [(1, 2), (0, 3)]))
        with serve() as (_port, client, _service):
            with pytest.raises(ServeError) as excinfo:
                client.solve(instance, "sne-lp3")
            assert excinfo.value.status == 400
            assert "broadcast" in excinfo.value.message

    def test_sweep_endpoint_runs_and_caches(self, tmp_path):
        spec = {
            "solvers": [SOLVER],
            "models": ["tree-chords"],
            "sizes": [8],
            "count": 1,
            "seed": 5,
        }
        with serve(ServeConfig(cache=tmp_path)) as (_port, client, _service):
            result = client.sweep(spec)
            assert result["kind"] == "sweep-result"
            assert all(j["status"] == "ok" for j in result["jobs"])
            again = client.sweep(spec)
            assert again == result  # second run served from the shared cache
            stats = client.stats()
            assert stats["counters"]["sweep_cache_hits"] >= 1
