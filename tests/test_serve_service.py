"""Serve core: interning LRU, coalescer, admission control, SolverService."""

import errno
import json
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro import api
from repro.games.broadcast import BroadcastGame
from repro.graphs.generators import random_tree_plus_chords
from repro.runtime import ResultCache, SweepRunner, SweepSpec
from repro.runtime import cache as cache_module
from repro.serve import (
    AdmissionControl,
    Coalescer,
    InstanceLRU,
    ServeConfig,
    ServeRequestError,
    SolverService,
)
from repro.serve.service import Saturated


def _instance(seed=3, n=10):
    g = random_tree_plus_chords(n, n // 2, seed=seed, chord_factor=1.1)
    return api.serialize.game_to_json(BroadcastGame(g, root=0))


def _canonical_body(instance, solver="sne-lp2", **opts):
    game = api.serialize.game_from_json(instance)
    report = api.solve(game, solver, **opts)
    payload = api.serialize.canonical_report_json(report)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _make_read_only(root, monkeypatch):
    """Make the cache tree under ``root`` read-only.

    Permission bits do not bind a privileged process, so where the tree
    stays writable the cache's temp-file creation is made to fail the way
    the kernel fails it for everyone else.
    """
    for path in [root, *root.rglob("*")]:
        if path.is_dir():
            path.chmod(0o555)
    if os.access(root, os.W_OK):

        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(root))

        monkeypatch.setattr(cache_module, "tempfile", SimpleNamespace(mkstemp=refuse))


class TestInstanceLRU:
    def test_intern_returns_same_live_object(self):
        lru = InstanceLRU(4)
        payload = _instance()
        d1, g1 = lru.intern(payload)
        d2, g2 = lru.intern(json.loads(json.dumps(payload)))  # equal, not identical
        assert d1 == d2
        assert g1 is g2  # the warm object, carrying its cached engine
        assert lru.hits == 1 and lru.misses == 1

    def test_key_order_does_not_matter(self):
        lru = InstanceLRU(4)
        payload = _instance()
        shuffled = dict(reversed(list(payload.items())))
        d1, g1 = lru.intern(payload)
        d2, g2 = lru.intern(shuffled)
        assert d1 == d2 and g1 is g2

    def test_capacity_evicts_lru(self):
        lru = InstanceLRU(2)
        a, b, c = _instance(1), _instance(2), _instance(5)
        _, ga = lru.intern(a)
        lru.intern(b)
        lru.intern(a)  # refresh a; b is now least-recent
        lru.intern(c)  # evicts b
        assert lru.evictions == 1
        assert len(lru) == 2
        _, ga2 = lru.intern(a)
        assert ga2 is ga  # a survived
        lru.intern(b)  # b was evicted: re-deserializes
        assert lru.misses == 4  # a, b, c, b-again

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            InstanceLRU(0)


class TestCoalescer:
    def test_concurrent_callers_share_one_computation(self):
        coalescer = Coalescer()
        calls = []
        gate = threading.Event()

        def compute():
            calls.append(1)
            gate.wait(5.0)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(coalescer.run("k", compute))
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5
        while coalescer.inflight() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)  # let the followers pile onto the open flight
        gate.set()
        for t in threads:
            t.join()
        assert len(calls) == 1  # one leader computed
        assert [v for v, _ in results] == ["value"] * 4
        assert sum(1 for _, joined in results if joined) == 3
        assert coalescer.inflight() == 0

    def test_sequential_calls_do_not_coalesce(self):
        coalescer = Coalescer()
        calls = []
        for _ in range(3):
            value, joined = coalescer.run("k", lambda: calls.append(1) or len(calls))
            assert not joined
        assert len(calls) == 3

    def test_leader_error_propagates_to_followers(self):
        coalescer = Coalescer()
        gate = threading.Event()
        outcomes = []

        def boom():
            gate.wait(5.0)
            raise RuntimeError("solver exploded")

        def follow():
            try:
                outcomes.append(coalescer.run("k", boom))
            except RuntimeError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=follow) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join()
        assert outcomes == ["solver exploded"] * 3


class TestAdmissionControl:
    def test_rejects_beyond_capacity(self):
        control = AdmissionControl(workers=1, queue=1)
        control.admit()
        control.admit()
        with pytest.raises(Saturated):
            control.admit()
        assert control.rejected == 1
        control.release()
        control.admit()  # a slot freed up
        assert control.inflight == 2

    def test_stats_shape(self):
        control = AdmissionControl(workers=2, queue=3)
        assert control.stats() == {
            "workers": 2,
            "capacity": 5,
            "inflight": 0,
            "rejected": 0,
        }


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue": -1},
            {"lru_size": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestSolverService:
    def test_solve_body_is_canonical_cli_bytes(self):
        service = SolverService(ServeConfig(cache=False))
        instance = _instance()
        body = service.solve_json({"instance": instance, "solver": "sne-lp2"})
        assert body == _canonical_body(instance)

    def test_opts_flow_through(self):
        service = SolverService(ServeConfig(cache=False))
        instance = _instance()
        body = service.solve_json(
            {"instance": instance, "solver": "sne-lp1", "opts": {"method": "simplex"}}
        )
        assert body == _canonical_body(instance, "sne-lp1", method="simplex")

    @pytest.mark.parametrize(
        "data, match",
        [
            ({}, "missing 'instance'"),
            ({"instance": _instance()}, "missing 'solver'"),
            ({"instance": [], "solver": "sne-lp2"}, "'instance' must be a dict"),
            ({"instance": _instance(), "solver": "nope"}, "unknown solver"),
            (
                {"instance": _instance(), "solver": "sne-lp2", "opts": "x"},
                "'opts' must be a dict",
            ),
            (
                {"instance": _instance(), "solver": "sne-lp1", "opts": {"max_rounds": 0}},
                "max_rounds must be >= 1",
            ),
        ],
    )
    def test_bad_requests_are_400s(self, data, match):
        service = SolverService(ServeConfig(cache=False))
        with pytest.raises(ServeRequestError, match=match) as excinfo:
            service.solve_json(data)
        assert excinfo.value.status == 400

    def test_bad_solver_opts_are_400_not_500(self):
        service = SolverService(ServeConfig(cache=False))
        with pytest.raises(ServeRequestError) as excinfo:
            service.solve_json(
                {
                    "instance": _instance(),
                    "solver": "sne-lp2",
                    "opts": {"method": "no-such-backend"},
                }
            )
        assert excinfo.value.status == 400

    def test_unknown_option_is_400_even_on_a_cache_hit(self, tmp_path):
        """Options the solver does not take are refused before the cache
        lookup, so a stored entry under their key cannot answer for them."""
        instance = _instance()
        spec = api.get_solver("sne-poly")
        opts = {"fast": False}
        service = SolverService(ServeConfig(cache=tmp_path))
        key = cache_module.solve_job_key(instance, spec.name, spec.version, opts)
        game = api.serialize.game_from_json(instance)
        payload = api.serialize.report_to_json(api.solve(game, "sne-poly"))
        cache_module.store_solve_entry(service.cache, key, spec.name, payload, 0.0)
        assert cache_module.cached_entry(service.cache, key) is not None
        with pytest.raises(ServeRequestError, match="'fast'") as excinfo:
            service.solve_json({"instance": instance, "solver": "sne-poly", "opts": opts})
        assert excinfo.value.status == 400
        assert "result_cache_hits" not in service.counters.as_dict()

    def test_result_cache_round_trip_within_service(self, tmp_path):
        service = SolverService(ServeConfig(cache=tmp_path))
        request = {"instance": _instance(), "solver": "sne-lp2"}
        first = service.solve_json(request)
        second = service.solve_json(request)
        assert first == second
        counters = service.counters.as_dict()
        assert counters["solves"] == 1
        assert counters["result_cache_hits"] == 1
        assert counters["result_cache_misses"] == 1

    def test_cache_shared_with_sweep_runtime_both_ways(self, tmp_path):
        """Daemon solves pre-warm sweeps and vice versa: one store, one key."""
        instance = _instance()
        spec = SweepSpec(solvers=["sne-lp2"], instances=[instance])
        jobs = spec.expand()

        # sweep first -> daemon hit
        SweepRunner(cache=ResultCache(tmp_path / "a")).run(jobs)
        service = SolverService(ServeConfig(cache=tmp_path / "a"))
        service.solve_json({"instance": instance, "solver": "sne-lp2"})
        assert service.counters.as_dict()["result_cache_hits"] == 1
        assert "solves" not in service.counters.as_dict()

        # daemon first -> sweep hit
        service2 = SolverService(ServeConfig(cache=tmp_path / "b"))
        service2.solve_json({"instance": instance, "solver": "sne-lp2"})
        result = SweepRunner(cache=ResultCache(tmp_path / "b")).run(jobs)
        assert result.cache_hits == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            b'{"kind": "solve-entry", "status": "ok", "rep',  # truncated write
            b"\x00\xff garbage",  # not JSON, not even UTF-8
            b"[1, 2, 3]",  # JSON, but not an entry
            b'{"kind": "solve-entry", "status": "ok"}',  # an entry without its report
            b'{"kind": "solve-entry", "status": "ok", "report": "oops"}',
        ],
    )
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, corrupt):
        instance = _instance()
        request = {"instance": instance, "solver": "sne-lp2"}
        service = SolverService(ServeConfig(cache=tmp_path))
        service.solve_json(request)
        (entry,) = list(service.cache.keys())
        service.cache.path_for(entry).write_bytes(corrupt)

        fresh = SolverService(ServeConfig(cache=tmp_path))
        assert fresh.solve_json(request) == _canonical_body(instance)
        counters = fresh.counters.as_dict()
        assert counters["solves"] == 1 and "result_cache_hits" not in counters
        # the re-solve replaced the bad entry: the next daemon hits it
        again = SolverService(ServeConfig(cache=tmp_path))
        assert again.solve_json(request) == _canonical_body(instance)
        assert again.counters.as_dict()["result_cache_hits"] == 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_read_only_cache_serves_canonical_bytes(self, tmp_path, monkeypatch, warm):
        instance = _instance()
        request = {"instance": instance, "solver": "sne-lp2"}
        if warm:
            SolverService(ServeConfig(cache=tmp_path)).solve_json(request)
        _make_read_only(tmp_path, monkeypatch)
        try:
            service = SolverService(ServeConfig(cache=tmp_path))
            assert service.solve_json(request) == _canonical_body(instance)
            assert service.solve_json(request) == _canonical_body(instance)
            counters = service.counters.as_dict()
            if warm:
                assert counters["result_cache_hits"] == 2 and "solves" not in counters
            else:
                assert counters["solves"] == 2 and "result_cache_hits" not in counters
        finally:
            for path in [tmp_path, *tmp_path.rglob("*")]:
                if path.is_dir():
                    path.chmod(0o755)

    def test_repro_cache_dir_env_selects_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        service = SolverService(ServeConfig(cache=None))
        assert service.cache.root == tmp_path / "via-env"

    def test_batch_grid_matches_cli_shape(self):
        service = SolverService(ServeConfig(cache=False))
        instance = _instance()
        body = service.solve_batch_json(
            {"instances": [instance], "solvers": ["sne-lp1", "sne-lp2"]}
        )
        grid = json.loads(body.decode())
        assert len(grid) == 1 and len(grid[0]) == 2
        # accepts a whole instance-set payload, as written by `gen`
        body2 = service.solve_batch_json(
            {
                "instances": {"kind": "instance-set", "instances": [instance]},
                "solvers": "sne-lp2",
            }
        )
        assert json.loads(body2.decode())[0][0] == grid[0][1]

    def test_sweep_body_matches_cli_json_out(self, tmp_path):
        from repro.cli import main

        spec = {
            "solvers": ["sne-lp2", "theorem6"],
            "models": ["tree-chords"],
            "sizes": [8],
            "count": 2,
            "seed": 5,
        }
        service = SolverService(ServeConfig(cache=tmp_path / "serve-cache"))
        body = service.sweep_json({"spec": spec})

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        json_out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--spec",
                str(spec_file),
                "--json-out",
                str(json_out),
                "--cache-dir",
                str(tmp_path / "cli-cache"),
                "--quiet",
            ]
        )
        assert rc == 0
        assert body == json_out.read_bytes()

    def test_stats_and_version_payloads(self, tmp_path):
        from repro import __version__

        service = SolverService(ServeConfig(cache=tmp_path))
        service.solve_json({"instance": _instance(), "solver": "sne-lp2"})
        stats = json.loads(service.stats_json().decode())
        assert stats["kind"] == "serve-stats"
        assert stats["version"] == __version__
        assert stats["result_cache"]["root"] == str(tmp_path)
        assert stats["instances"]["resident"] == 1
        assert stats["admission"]["inflight"] == 0
        assert stats["config"]["workers"] == ServeConfig().workers
        version = json.loads(service.version_json().decode())
        assert version == {"version": __version__}

    def test_solvers_and_families_payloads(self):
        service = SolverService(ServeConfig(cache=False))
        solvers = json.loads(service.solvers_json().decode())["solvers"]
        assert {s["name"] for s in solvers} == set(api.solver_names())
        families = json.loads(service.families_json().decode())
        assert {g["family"] for g in families["games"]} == {
            "broadcast",
            "multicast",
            "general",
            "weighted",
            "directed",
        }
        assert any(s["name"] == "hypercube" for s in families["scenarios"])

    def test_concurrent_identical_requests_coalesce(self, monkeypatch):
        service = SolverService(ServeConfig(cache=False, workers=4))
        instance = _instance()
        real_solve = api.solve
        started = threading.Event()
        release = threading.Event()

        def slow_solve(*args, **kwargs):
            started.set()
            release.wait(5.0)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(api, "solve", slow_solve)
        bodies = []
        threads = [
            threading.Thread(
                target=lambda: bodies.append(
                    service.solve_json({"instance": instance, "solver": "sne-lp2"})
                )
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        assert started.wait(5.0)
        time.sleep(0.05)  # let the followers join the open flight
        release.set()
        for t in threads:
            t.join()
        assert len(set(bodies)) == 1
        counters = service.counters.as_dict()
        assert counters["solves"] == 1
        assert counters["coalesced_joins"] == 2
