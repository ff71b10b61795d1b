"""Sweep runtime: expansion determinism, parallel equality, resumability."""

import json
import time

import pytest

from repro.api import solve_many
from repro.api.serialize import game_from_json
from repro.experiments import EXPERIMENTS, run_all_tolerant
from repro.games.broadcast import BroadcastGame
from repro.graphs.generators import random_tree_plus_chords
from repro.runtime import (
    JobTimeout,
    ResultCache,
    SweepRunner,
    SweepSpec,
    run_solve_job,
)
from repro.runtime.workers import job_timeout


def small_spec(**overrides):
    kwargs = dict(
        solvers=["sne-lp3", "theorem6"],
        models=["tree-chords"],
        sizes=[8],
        count=2,
        seed=5,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def result_bytes(result):
    return json.dumps(result.to_json(), sort_keys=True)


#: ``ok`` entries without a payload object: misses, never cached hits
BAD_OK_ENTRIES = [
    pytest.param({"status": "ok"}, id="no-payload"),
    pytest.param({"status": "ok", "report": [], "result": []}, id="list-payload"),
]


class TestSpecExpansion:
    def test_deterministic_across_expansions(self):
        jobs_a = small_spec().expand()
        jobs_b = small_spec().expand()
        assert [j.label for j in jobs_a] == [j.label for j in jobs_b]
        assert [j.instance for j in jobs_a] == [j.instance for j in jobs_b]

    def test_instance_major_order(self):
        labels = [j.label for j in small_spec().expand()]
        assert labels == [
            "tree-chords-n8[0] x sne-lp3",
            "tree-chords-n8[0] x theorem6",
            "tree-chords-n8[1] x sne-lp3",
            "tree-chords-n8[1] x theorem6",
        ]

    def test_replicas_differ(self):
        jobs = small_spec().expand()
        assert jobs[0].instance != jobs[2].instance  # distinct child seeds

    def test_payloads_deserialize(self):
        game = game_from_json(small_spec().expand()[0].instance)
        assert isinstance(game, BroadcastGame)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {"solvers": ["theorem6"], "models": ["gnp"], "sizes": [9],
                 "params": {"density": 0.5}, "seed": 2}
            )
        )
        spec = SweepSpec.from_file(path)
        assert spec.solvers == ["theorem6"]
        assert spec.params == {"density": 0.5}
        assert len(spec.expand()) == 1

    def test_from_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'solvers = ["theorem6", "sne-lp3"]\n'
            "sizes = [8, 10]\ncount = 2\nseed = 3\n"
            "[opts]\nverify = true\n"
        )
        spec = SweepSpec.from_file(path)
        assert len(spec.expand()) == 2 * 2 * 2
        assert spec.opts == {"verify": True}

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep-spec key"):
            SweepSpec.from_mapping({"solvers": ["theorem6"], "sizess": [8]})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown instance model"):
            small_spec(models=["smallworld"])

    def test_entropy_seed_rejected(self):
        # seed=None would silently defeat the cache and byte-identity
        with pytest.raises(ValueError, match="deterministic"):
            small_spec(seed=None)

    def test_unknown_generator_param_rejected(self):
        with pytest.raises(ValueError, match="fit none of the grid's models"):
            small_spec(params={"dencity": 0.3})

    def test_mixed_model_grid_scopes_params_per_model(self):
        spec = small_spec(
            models=["tree-chords", "gnp"],
            params={"density": 0.5, "chord_factor": 1.2},
        )
        jobs = spec.expand()  # must not reject gnp's density for tree-chords
        assert len(jobs) == 2 * 2 * 2  # 2 models x 2 replicas x 2 solvers


class TestRunner:
    @pytest.mark.parametrize("bad", BAD_OK_ENTRIES)
    def test_ok_entry_without_report_is_recomputed(self, tmp_path, bad):
        jobs = small_spec().expand()
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(jobs).write_json(tmp_path / "cold.json")
        key = min(cache.keys())
        cache.put(key, bad)
        rerun = SweepRunner(cache=cache).run(jobs)
        rerun.write_json(tmp_path / "rerun.json")
        assert rerun.ok and rerun.cache_hits == len(jobs) - 1
        (fresh,) = [o for o in rerun if not o.cached]
        assert fresh.key == key and fresh.status == "ok"
        assert (tmp_path / "rerun.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
        assert cache.get(key)["report"] == fresh.report  # the bad entry is replaced

    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        jobs = small_spec().expand()
        serial = SweepRunner(cache=False, jobs=1).run(jobs)
        parallel = SweepRunner(cache=False, jobs=4).run(jobs)
        assert serial.ok and parallel.ok
        assert result_bytes(serial) == result_bytes(parallel)

    def test_warm_cache_identical_and_all_hits(self, tmp_path):
        jobs = small_spec().expand()
        cache = ResultCache(tmp_path)
        cold = SweepRunner(cache=cache).run(jobs)
        warm = SweepRunner(cache=cache).run(jobs)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(jobs)
        assert result_bytes(cold) == result_bytes(warm)

    def test_deterministic_seeds_across_job_counts(self, tmp_path):
        # Fresh expansion + fresh cache per mode: everything recomputed, and
        # the generated instances (not just the reports) must agree.
        r1 = SweepRunner(cache=ResultCache(tmp_path / "a"), jobs=1).run(
            small_spec().expand()
        )
        r4 = SweepRunner(cache=ResultCache(tmp_path / "b"), jobs=4).run(
            small_spec().expand()
        )
        assert r1.cache_hits == r4.cache_hits == 0
        assert result_bytes(r1) == result_bytes(r4)

    def test_failure_captured_not_raised(self):
        jobs = small_spec(solvers=["sne-lp3"], opts={"method": "no-such-backend"}).expand()
        result = SweepRunner(cache=False).run(jobs)
        assert not result.ok
        assert {o.status for o in result} == {"failed"}
        assert all("no-such-backend" in (o.error or "") for o in result)

    def test_unknown_option_refused_before_any_job(self):
        """An option a solver does not take never reaches a job (or the cache)."""
        done = []
        runner = SweepRunner(cache=False, progress=lambda o, d, t: done.append(o))
        with pytest.raises(TypeError, match="'bogus_option'"):
            runner.run(small_spec(opts={"bogus_option": 123}).expand())
        assert done == []

    def test_unknown_solver_fails_fast(self):
        spec = small_spec(solvers=["definitely-not-a-solver"])
        with pytest.raises(KeyError):
            SweepRunner(cache=False).run(spec.expand())

    def test_resumable_after_interruption(self, tmp_path):
        """A killed sweep resumes from the cells already on disk."""
        jobs = small_spec().expand()
        cache = ResultCache(tmp_path)
        completed = []

        def interrupt_after_two(outcome, done, total):
            completed.append(outcome)
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(cache=cache, progress=interrupt_after_two).run(jobs)
        assert len(cache) == 2  # the finished prefix survived

        resumed = SweepRunner(cache=cache).run(jobs)
        assert resumed.ok
        assert resumed.cache_hits == 2
        fresh = SweepRunner(cache=ResultCache(tmp_path / "fresh")).run(jobs)
        assert result_bytes(resumed) == result_bytes(fresh)

    def test_progress_reports_every_job(self):
        jobs = small_spec().expand()
        seen = []
        SweepRunner(
            cache=False, progress=lambda o, done, total: seen.append((done, total))
        ).run(jobs)
        assert seen == [(i + 1, len(jobs)) for i in range(len(jobs))]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


def _die_once_worker(payload):
    """Test worker: hard-kills its process on first attempt of the marked job."""
    import os
    from pathlib import Path

    marker = Path(payload["marker"])
    if payload.get("die") and not marker.exists():
        marker.write_text("died")
        os._exit(1)  # simulates a segfault/OOM kill: breaks the whole pool
    return {"status": "ok", "echo": payload["i"], "elapsed_seconds": 0.0}


class TestPoolBreakage:
    def test_worker_death_does_not_poison_sweep(self, tmp_path):
        from repro.runtime import execute_payloads

        payloads = [
            {"i": i, "die": i == 2, "marker": str(tmp_path / "died")}
            for i in range(6)
        ]
        outcomes = dict(execute_payloads(payloads, _die_once_worker, jobs=2))
        assert (tmp_path / "died").exists()  # the kill actually happened
        assert len(outcomes) == 6
        # every job — including the one whose first attempt killed its
        # worker — completes on the respawned pool
        assert [outcomes[i]["status"] for i in range(6)] == ["ok"] * 6


def _marker_worker(payload):
    """Test worker: drops a marker file, then returns ok."""
    from pathlib import Path

    Path(payload["marker"]).write_text("done")
    return {"status": "ok", "echo": payload["i"], "elapsed_seconds": 0.0}


def _slow_worker(payload):
    """Test worker: the first payload is instant, the rest sleep forever."""
    import time as _time
    from pathlib import Path

    if payload["i"] == 0:
        return {"status": "ok", "echo": 0, "elapsed_seconds": 0.0}
    Path(payload["marker"]).write_text("started")
    _time.sleep(60.0)
    return {"status": "ok", "echo": payload["i"], "elapsed_seconds": 60.0}


class TestInterruption:
    """Ctrl-C mid-sweep: no lost finished work, no orphaned workers."""

    def test_close_salvages_finished_but_unyielded_outcomes(self, tmp_path):
        from repro.runtime import execute_payloads

        payloads = [
            {"i": i, "marker": str(tmp_path / f"m{i}")} for i in range(6)
        ]
        salvaged = {}
        gen = execute_payloads(
            payloads, _marker_worker, jobs=2, salvage=lambda i, raw: salvaged.update({i: raw})
        )
        _, first = next(gen)
        # Wait until every worker has actually finished its job...
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if all((tmp_path / f"m{i}").exists() for i in range(6)):
                break
            time.sleep(0.02)
        else:  # pragma: no cover - diagnostic
            pytest.fail("workers never finished")
        time.sleep(0.3)  # let the futures settle after the marker writes
        # ...then interrupt: everything completed-but-unyielded is salvaged.
        gen.close()
        yielded = {first["echo"]}
        assert yielded | set(salvaged) == set(range(6))
        assert all(raw["status"] == "ok" for raw in salvaged.values())

    def test_close_terminates_running_workers_promptly(self, tmp_path):
        import multiprocessing

        from repro.runtime import execute_payloads

        payloads = [
            {"i": i, "marker": str(tmp_path / f"s{i}")} for i in range(3)
        ]
        gen = execute_payloads(payloads, _slow_worker, jobs=2, salvage=None)
        _, first = next(gen)
        assert first["echo"] == 0
        # A slow job must actually be running before we interrupt.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any((tmp_path / f"s{i}").exists() for i in (1, 2)):
                break
            time.sleep(0.02)
        start = time.monotonic()
        gen.close()  # must terminate the sleepers, not join them
        assert time.monotonic() - start < 10.0
        # and no orphaned worker processes linger
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_interrupt_in_consumer_flushes_cache_and_stops_pool(self, tmp_path):
        """KeyboardInterrupt in the progress callback mid-parallel-sweep."""
        jobs = small_spec().expand()
        cache = ResultCache(tmp_path)

        def interrupt_on_first_fresh(outcome, done, total):
            if not outcome.cached:
                raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(
                jobs=2, cache=cache, progress=interrupt_on_first_fresh
            ).run(jobs)
        assert time.monotonic() - start < 30.0  # no shutdown hang
        # At least the job that triggered the interrupt was flushed; the
        # resumed sweep finishes from disk and matches a fresh run.
        assert len(cache) >= 1
        resumed = SweepRunner(cache=cache).run(jobs)
        assert resumed.ok
        assert resumed.cache_hits >= 1
        fresh = SweepRunner(cache=ResultCache(tmp_path / "fresh")).run(jobs)
        assert result_bytes(resumed) == result_bytes(fresh)


class TestTimeouts:
    def test_job_timeout_context_fires(self):
        with pytest.raises(JobTimeout):
            with job_timeout(0.05):
                time.sleep(1.0)

    def test_job_timeout_noop_when_disabled(self):
        with job_timeout(None):
            pass
        with job_timeout(0):
            pass

    def test_timed_out_job_reports_timeout_status(self):
        job = small_spec().expand()[0]
        payload = {
            "instance": job.instance,
            "solver": "__slow__",
            "opts": {},
            "timeout": 0.05,
        }
        # Patch in a deliberately slow solver through the registry.
        from repro.api import registry

        def slow(instance, **opts):
            time.sleep(1.0)

        spec = registry.SolverSpec(
            name="__slow__", fn=slow, problem="sne", description="test"
        )
        registry._REGISTRY["__slow__"] = spec
        try:
            outcome = run_solve_job(payload)
        finally:
            del registry._REGISTRY["__slow__"]
        assert outcome["status"] == "timeout"
        assert "timeout" in outcome["error"]


class TestSolveManyProcessExecutor:
    @pytest.fixture()
    def games(self):
        return [
            BroadcastGame(random_tree_plus_chords(8, 4, seed=s), root=0)
            for s in (1, 2, 3)
        ]

    def test_matches_thread_executor(self, games):
        thread = solve_many(games, ["sne-lp3", "theorem6"], workers=2)
        process = solve_many(
            games, ["sne-lp3", "theorem6"], workers=2, executor="process"
        )
        assert thread == process

    def test_single_solver_flat_shape(self, games):
        reports = solve_many(games, "theorem6", executor="process")
        assert len(reports) == 3 and all(r.verified for r in reports)

    def test_cache_round_trip(self, games, tmp_path):
        cache = ResultCache(tmp_path)
        first = solve_many(games, "theorem6", executor="process", cache=cache)
        assert len(cache) == 3
        again = solve_many(games, "theorem6", executor="process", cache=cache)
        assert first == again

    def test_states_rejected_with_clear_error(self, games):
        with pytest.raises(TypeError, match="process"):
            solve_many([games[0].mst_state()], "theorem6", executor="process")

    def test_bad_executor_name(self, games):
        with pytest.raises(ValueError, match="executor"):
            solve_many(games, "theorem6", executor="fiber")

    def test_thread_executor_rejects_cache_and_timeout(self, games, tmp_path):
        # Silently ignoring them would look like they were active.
        with pytest.raises(ValueError, match="executor='process'"):
            solve_many(games, "theorem6", cache=ResultCache(tmp_path))
        with pytest.raises(ValueError, match="executor='process'"):
            solve_many(games, "theorem6", timeout=5.0)


class TestExperimentSweep:
    def test_cache_hit_and_skip_reporting(self, tmp_path):
        cache = ResultCache(tmp_path)
        skip = [k for k in ("E1", "E4", "E6", "E8", "E11") ]
        cold = run_all_tolerant(seed=0, cache=cache, skip=skip)
        warm = run_all_tolerant(seed=0, cache=cache, skip=skip)
        by_status = lambda items, s: [i.experiment_id for i in items if i.status == s]
        assert by_status(cold, "skipped") == skip
        assert by_status(warm, "skipped") == skip
        assert by_status(cold, "cached") == []
        assert by_status(warm, "cached") == by_status(cold, "ok")
        # cached results reproduce the original reports
        for a, b in zip(cold, warm):
            if a.status == "ok":
                assert b.result.headline == a.result.headline
                assert b.result.rows == json.loads(
                    json.dumps(a.result.to_json())
                )["rows"]

    @pytest.mark.parametrize("bad", BAD_OK_ENTRIES)
    def test_ok_entry_without_result_is_recomputed(self, tmp_path, bad):
        cache = ResultCache(tmp_path)
        skip = [k for k in EXPERIMENTS if k != "E5"]
        (cold,) = [i for i in run_all_tolerant(seed=0, cache=cache, skip=skip) if i.experiment_id == "E5"]
        (key,) = cache.keys()
        cache.put(key, bad)
        (rerun,) = [i for i in run_all_tolerant(seed=0, cache=cache, skip=skip) if i.experiment_id == "E5"]
        assert rerun.status == "ok"  # recomputed, not cached
        assert rerun.result.headline == cold.result.headline
        assert rerun.result.rows == cold.result.rows
        assert cache.get(key)["result"] == rerun.result.to_json()  # replaced

    def test_unknown_skip_rejected(self):
        with pytest.raises(KeyError, match="E99"):
            run_all_tolerant(skip=["E99"])

    def test_seed_changes_cache_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        skip = [k for k in (
            "E1", "E2", "E3", "E4", "E6", "E7", "E8", "E9", "E10", "E11", "A1", "A2"
        )]  # keep only E5 (fast, deterministic)
        run_all_tolerant(seed=0, cache=cache, skip=skip)
        items = run_all_tolerant(seed=1, cache=cache, skip=skip)
        (e5,) = [i for i in items if i.experiment_id == "E5"]
        assert e5.status == "ok"  # different seed, not a cache hit
