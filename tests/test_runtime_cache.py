"""Content-addressed cache: keys, storage, and invalidation semantics."""

import dataclasses
import json

import pytest

from repro.api.registry import _REGISTRY, get_solver
from repro.api.serialize import game_to_json
from repro.games.broadcast import BroadcastGame
from repro.graphs.generators import random_tree_plus_chords
from repro.runtime import (
    NullCache,
    ResultCache,
    SweepRunner,
    SweepSpec,
    coerce_cache,
    default_cache_dir,
    experiment_job_key,
    solve_job_key,
)
from repro.runtime.cache import CACHE_SCHEMA_VERSION, instance_key_state
from repro.runtime.runner import sweep_job_keys
from repro.utils.hashing import (
    UnhashablePayloadError,
    canonical_json,
    source_digest,
    stable_hash,
)


@pytest.fixture()
def instance_json():
    g = random_tree_plus_chords(8, 4, seed=3)
    return game_to_json(BroadcastGame(g, root=0))


class TestHashing:
    def test_key_order_invariant(self):
        assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash({"b": [2, 3], "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_canonical_json_is_minimal_and_sorted(self):
        assert canonical_json({"b": 1, "a": True}) == '{"a":true,"b":1}'

    def test_nan_rejected(self):
        with pytest.raises(UnhashablePayloadError):
            stable_hash({"x": float("nan")})

    def test_non_json_rejected(self):
        with pytest.raises(UnhashablePayloadError):
            stable_hash({"x": object()})

    def test_source_digest_boundary(self):
        # concatenation must be unambiguous: ("ab","c") != ("a","bc")
        assert source_digest("ab", "c") != source_digest("a", "bc")


class TestKeys:
    def test_same_content_same_key(self, instance_json):
        k1 = solve_job_key(instance_json, "sne-lp3", "1", {"verify": True})
        k2 = solve_job_key(
            json.loads(json.dumps(instance_json)), "sne-lp3", "1", {"verify": True}
        )
        assert k1 == k2

    def test_key_varies_with_each_ingredient(self, instance_json):
        base = solve_job_key(instance_json, "sne-lp3", "1", {})
        other = game_to_json(
            BroadcastGame(random_tree_plus_chords(8, 4, seed=4), root=0)
        )
        assert solve_job_key(other, "sne-lp3", "1", {}) != base
        assert solve_job_key(instance_json, "theorem6", "1", {}) != base
        assert solve_job_key(instance_json, "sne-lp3", "2", {}) != base
        assert solve_job_key(instance_json, "sne-lp3", "1", {"verify": False}) != base

    def test_key_is_the_stable_hash_of_the_cell(self, instance_json):
        """The shared instance state changes how a key is computed, not what it is."""
        labelled = dict(instance_json, label='réseau → "x"')
        for inst, solver, version, opts in [
            (instance_json, "sne-lp3", "1", {"verify": True}),
            (labelled, "theorem6", "2", {"nested": {"b": [1, 2.5, None], "a": "z"}}),
            (labelled, "sne-lp3", "1", None),
        ]:
            cell = {
                "kind": "solve-job",
                "schema": CACHE_SCHEMA_VERSION,
                "instance": inst,
                "solver": solver,
                "solver_version": version,
                "opts": dict(opts or {}),
            }
            state = instance_key_state(inst)
            assert solve_job_key(inst, solver, version, opts) == stable_hash(cell)
            for _ in range(2):  # the state is copied, not consumed
                assert solve_job_key(inst, solver, version, opts, state) == stable_hash(cell)

    def test_keys_pinned(self, instance_json):
        """Keys of cached results stay put (digests taken before the
        instance state was introduced)."""
        assert solve_job_key(instance_json, "sne-lp3", "1", {"verify": True}) == (
            "351b1471e3b5f82c5afeb3aa2ce6d00cd5337eadc6a41349e6fedcdb4bbbdac6"
        )
        labelled = dict(instance_json, label='réseau → "x"')
        opts = {"nested": {"b": [1, 2.5, None], "a": "z"}}
        assert solve_job_key(labelled, "theorem6", "2", opts) == (
            "3df805c7bc1550a81422983a40d86ad22ceee4b943697c5c92db17bf0709cb75"
        )

    def test_unhashable_instance_rejected(self, instance_json):
        with pytest.raises(UnhashablePayloadError):
            solve_job_key(dict(instance_json, x=float("nan")), "sne-lp3", "1")
        with pytest.raises(UnhashablePayloadError):
            instance_key_state({"x": object()})

    def test_sweep_job_keys_share_one_state_per_instance(self):
        jobs = SweepSpec(
            solvers=["sne-lp3", "theorem6"], models=["tree-chords"], sizes=[6], count=2
        ).expand()
        # an option theorem6 takes, with a value JSON cannot hash
        jobs[-1] = dataclasses.replace(jobs[-1], opts={"check_level_totals": object()})
        keys = sweep_job_keys(jobs)
        for job in jobs[:-1]:
            spec = get_solver(job.solver)
            assert keys[job.index] == solve_job_key(
                job.instance, spec.name, spec.version, job.opts
            )
        assert keys[jobs[-1].index] is None  # runnable, just not cacheable
        assert len(set(keys.values())) == len(jobs)

    def test_experiment_key_tracks_source(self):
        a = experiment_job_key("E3", 0, "digest-a")
        assert experiment_job_key("E3", 0, "digest-b") != a
        assert experiment_job_key("E3", 1, "digest-a") != a
        assert experiment_job_key("E4", 0, "digest-a") != a


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"status": "ok", "x": 1})
        assert cache.get("ab" * 32) == {"status": "ok", "x": 1}
        assert ("ab" * 32) in cache
        assert len(cache) == 1

    def test_entry_bytes_are_json_dumps_plus_newline(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        entry = {"status": "ok", "report": {"x": [1.5, 0.1 + 0.2], "s": "é"}}
        cache.put(key, entry)
        assert cache.path_for(key).read_bytes() == (json.dumps(entry) + "\n").encode()
        assert [p.name for p in cache.path_for(key).parent.iterdir()] == [f"{key}.json"]

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"v": 1})
        assert cache.path_for(key).parent.name == "cd"
        assert cache.path_for(key).is_file()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"v": 1})
        cache.path_for(key).write_text("{truncated")
        assert cache.get(key) is None
        assert key not in cache

    def test_unreadable_entry_is_a_miss_but_survives(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores file permissions")
        cache = ResultCache(tmp_path)
        key = "0a" * 32
        cache.put(key, {"v": 1})
        cache.path_for(key).chmod(0o000)
        try:
            assert cache.get(key) is None
            assert cache.path_for(key).exists()  # not deleted
        finally:
            cache.path_for(key).chmod(0o644)

    def test_coerce_cache_convention(self, tmp_path):
        from repro.runtime import coerce_cache

        assert isinstance(coerce_cache(False), NullCache)
        assert isinstance(coerce_cache(None), ResultCache)
        assert coerce_cache(tmp_path).root == tmp_path
        cache = ResultCache(tmp_path)
        assert coerce_cache(cache) is cache

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(stable_hash(i), {"i": i})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_tmp_leftovers_are_not_entries(self, tmp_path):
        # a worker killed between mkstemp and os.replace leaves .tmp-* files
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"v": 1})
        (cache.path_for(key).parent / ".tmp-dead.json").write_text("{")
        assert list(cache.keys()) == [key]
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("k", {"v": 1})
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"


class TestCacheDirPrecedence:
    """Documented order: explicit path > $REPRO_CACHE_DIR > $XDG_CACHE_HOME
    > ~/.cache — each layer must beat everything below it."""

    def test_explicit_path_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert ResultCache(tmp_path / "flag").root == tmp_path / "flag"
        assert coerce_cache(tmp_path / "flag").root == tmp_path / "flag"

    def test_env_var_beats_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "env"

    def test_xdg_beats_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "repro"

    def test_empty_env_var_is_unset(self, tmp_path, monkeypatch):
        # An empty REPRO_CACHE_DIR (e.g. `REPRO_CACHE_DIR= cmd`) must not
        # select the current directory; it falls through to XDG/home.
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestInvalidation:
    """Bumping a solver's version orphans its cached cells."""

    def test_version_bump_forces_recompute(self, tmp_path, monkeypatch):
        spec = SweepSpec(solvers=["theorem6"], sizes=[8], count=2, seed=1)
        jobs = spec.expand()
        cache = ResultCache(tmp_path)
        cold = SweepRunner(cache=cache).run(jobs)
        assert cold.cache_hits == 0 and cold.ok

        warm = SweepRunner(cache=cache).run(jobs)
        assert warm.cache_hits == len(jobs)

        bumped = dataclasses.replace(get_solver("theorem6"), version="2-test")
        monkeypatch.setitem(_REGISTRY, "theorem6", bumped)
        after_bump = SweepRunner(cache=cache).run(jobs)
        assert after_bump.cache_hits == 0 and after_bump.ok
        # both generations coexist on disk (content-addressed, no overwrite)
        assert len(cache) == 2 * len(jobs)

    def test_opts_change_forces_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = SweepSpec(solvers=["sne-lp3"], sizes=[8], seed=1).expand()
        assert SweepRunner(cache=cache).run(jobs).cache_hits == 0
        jobs2 = SweepSpec(
            solvers=["sne-lp3"], sizes=[8], seed=1, opts={"verify": False}
        ).expand()
        assert SweepRunner(cache=cache).run(jobs2).cache_hits == 0
        # and each repeats as a hit against its own cell
        assert SweepRunner(cache=cache).run(jobs).cache_hits == 1
        assert SweepRunner(cache=cache).run(jobs2).cache_hits == 1


class TestSolveEntryShape:
    """The serve daemon and the sweep runner write one entry shape, so the
    two share one response store (``runtime.cache.store_solve_entry``)."""

    KEYS = {"kind", "key", "status", "solver", "report", "elapsed_seconds", "created_at"}

    def _entries(self, cache):
        return [cache.get(key) for key in sorted(cache.keys())]

    def _check(self, entries, solver):
        assert entries
        for entry in entries:
            assert set(entry) == self.KEYS
            assert (entry["kind"], entry["status"], entry["solver"]) == (
                "solve-entry", "ok", solver,
            )
            assert entry["report"]["kind"] == "solve-report"

    def test_runner_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = SweepSpec(solvers=["sne-lp3"], sizes=[8], seed=1).expand()
        SweepRunner(cache=cache).run(jobs)
        entries = self._entries(cache)
        self._check(entries, "sne-lp3")
        assert [e["key"] for e in entries] == sorted(
            k for k in sweep_job_keys(jobs).values() if k
        )

    def test_serve_entries(self, tmp_path, instance_json):
        from repro.serve import ServeConfig, SolverService

        cache = ResultCache(tmp_path)
        service = SolverService(ServeConfig(cache=cache))
        service.solve_json({"instance": instance_json, "solver": "sne-lp3"})
        entries = self._entries(cache)
        self._check(entries, "sne-lp3")
        spec = get_solver("sne-lp3")
        assert [e["key"] for e in entries] == [
            solve_job_key(instance_json, spec.name, spec.version, {})
        ]
