"""The distributed sweep runtime: leases, stealing, and byte-identity.

The load-bearing guarantee mirrors the single-host runner's
parallel==serial contract: ``--json-out`` bytes are identical across a
single-host sweep, a 1-worker distributed run, an N-worker run, a run with
a worker SIGKILLed mid-lease, and a duplicate completion of a stolen job.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import ResultCache, SweepRunner, SweepSpec
from repro.runtime.distributed import (
    STALL_ENV,
    CoordinatorClient,
    LeaseBoard,
    SweepCoordinator,
    Welford,
    cell_of_label,
    run_worker,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def small_spec(**overrides):
    kw = dict(
        solvers=["theorem6"], models=["tree-chords"], sizes=[8], count=2, seed=5
    )
    kw.update(overrides)
    return SweepSpec(**kw)


def single_host_bytes(tmp_path, spec, name="single.json"):
    path = tmp_path / name
    SweepRunner(cache=False).run(spec.expand()).write_json(path)
    return path.read_bytes()


def run_workers_in_threads(n, **kwargs):
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(worker_id=f"w{i}", cache=False, **kwargs),
        )
        for i in range(n)
    ]
    for t in threads:
        t.start()
    return threads


# ---------------------------------------------------------------------------
# streaming aggregation primitives
# ---------------------------------------------------------------------------


class TestWelford:
    def test_matches_batch_statistics(self):
        import statistics

        xs = [3.0, 1.5, -2.0, 7.25, 0.0, 4.5]
        w = Welford()
        for x in xs:
            w.update(x)
        assert w.count == len(xs)
        assert w.mean == pytest.approx(statistics.mean(xs))
        assert w.variance == pytest.approx(statistics.pvariance(xs))
        assert w.min == min(xs) and w.max == max(xs)

    def test_empty_serializes_as_count_zero(self):
        assert Welford().to_json() == {"count": 0}

    def test_single_sample_zero_variance(self):
        w = Welford()
        w.update(2.5)
        assert w.variance == 0.0
        assert w.to_json()["mean"] == 2.5


class TestCellOfLabel:
    def test_strips_replica_index(self):
        assert (
            cell_of_label("tree-chords-n12[3] x sne-lp3")
            == "tree-chords-n12 x sne-lp3"
        )

    def test_explicit_instance_labels_are_their_own_cells(self):
        assert cell_of_label("inst0 x theorem6") == "inst0 x theorem6"

    def test_label_without_solver_passes_through(self):
        assert cell_of_label("whatever") == "whatever"

    def test_non_numeric_bracket_preserved(self):
        assert cell_of_label("foo[bar] x s") == "foo[bar] x s"


# ---------------------------------------------------------------------------
# the lease board (injected clock — no sleeps)
# ---------------------------------------------------------------------------


class TestLeaseBoard:
    def board(self, n=3, **kw):
        kw.setdefault("lease_timeout", 10.0)
        return LeaseBoard(total=n, queued=range(n), **kw)

    def test_leases_in_queue_order_then_starves(self):
        b = self.board()
        got = [b.lease("w", now=0.0) for _ in range(4)]
        assert [g[0] for g in got[:3]] == [0, 1, 2]
        assert got[3] is None

    def test_complete_marks_done_and_sets_event(self):
        b = self.board(n=1)
        index, lease = b.lease("w", now=0.0)
        assert b.complete("w", lease, index, ok=True, now=1.0)
        assert b.all_done.is_set()
        assert b.counts()["done"] == 1

    def test_expired_lease_is_stolen_and_requeued(self):
        b = self.board(n=1)
        b.lease("slow", now=0.0)
        assert b.lease("fast", now=5.0) is None  # lease still live
        index, _ = b.lease("fast", now=11.0)  # past the 10s deadline
        assert index == 0
        assert b.counts()["stolen"] == 1
        assert b.worker_stats(now=11.0)["slow"]["stolen_from"] == 1

    def test_heartbeat_extends_the_lease(self):
        b = self.board(n=1)
        b.lease("w", now=0.0)
        b.heartbeat("w", now=9.0)  # deadline moves to 19.0
        assert b.lease("thief", now=15.0) is None
        assert b.counts()["stolen"] == 0

    def test_heartbeat_only_extends_own_leases(self):
        b = self.board(n=2)
        b.lease("a", now=0.0)
        b.lease("b", now=0.0)
        b.heartbeat("a", now=9.0)
        stolen, _ = b.lease("thief", now=11.0)  # only b's lease lapsed
        assert stolen == 1

    def test_max_steals_gives_up_and_reaps(self):
        b = self.board(n=1, max_steals=2)
        now = 0.0
        for _ in range(2):
            b.lease("victim", now=now)
            now += 11.0  # expire it
        gave_up = b.reap(now=now)
        assert [index for index, _ in gave_up] == [0]
        assert "lease expired 2 times" in gave_up[0][1]
        assert b.all_done.is_set()
        assert b.reap(now=now) == []  # reported once

    def test_duplicate_completion_refused_and_counted(self):
        b = self.board(n=1)
        index, lease = b.lease("w1", now=0.0)
        assert b.complete("w1", lease, index, ok=True, now=1.0)
        assert not b.complete("w2", None, index, ok=True, now=2.0)
        assert b.counts()["duplicates"] == 1
        assert b.worker_stats(now=2.0)["w2"]["duplicates"] == 1

    def test_late_completion_of_stolen_job_is_accepted(self):
        b = self.board(n=1)
        index, old_lease = b.lease("slow", now=0.0)
        b.lease("fast", now=11.0)  # steal
        # the original holder finishes anyway — still valid work
        assert b.complete("slow", old_lease, index, ok=True, now=12.0)
        assert b.all_done.is_set()

    def test_zero_lease_timeout_rejected(self):
        with pytest.raises(ValueError):
            LeaseBoard(total=1, queued=[0], lease_timeout=0.0)

    def test_force_done_idempotent(self):
        b = self.board(n=1)
        assert b.force_done(0, worker="w", ok=True)
        assert not b.force_done(0, worker="w", ok=True)
        assert b.counts()["duplicates"] == 1
        assert b.all_done.is_set()


# ---------------------------------------------------------------------------
# satellite: SweepResult.write_json streams byte-identically
# ---------------------------------------------------------------------------


class TestWriteJsonRegression:
    def test_streamed_bytes_equal_dumped_to_json(self, tmp_path):
        result = SweepRunner(cache=False).run(small_spec().expand())
        path = tmp_path / "streamed.json"
        result.write_json(path)
        expected = (
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode()
        assert path.read_bytes() == expected

    def test_empty_result_bytes(self, tmp_path):
        result = SweepRunner(cache=False).run([])
        path = tmp_path / "empty.json"
        result.write_json(path)
        expected = (
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode()
        assert path.read_bytes() == expected
        assert json.loads(path.read_bytes())["jobs"] == []

    def test_accepts_open_file_objects(self, tmp_path):
        result = SweepRunner(cache=False).run(small_spec(count=1).expand())
        path = tmp_path / "fh.json"
        with open(path, "w") as fh:
            result.write_json(fh)
        assert (
            path.read_bytes()
            == (json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n").encode()
        )


# ---------------------------------------------------------------------------
# end-to-end byte-identity (in-process workers)
# ---------------------------------------------------------------------------


class TestDistributedByteIdentity:
    def test_http_transport_n_workers(self, tmp_path):
        spec = small_spec(solvers=["theorem6", "sne-lp3"])
        expected = single_host_bytes(tmp_path, spec)
        out = tmp_path / "http.json"
        coordinator = SweepCoordinator(spec.expand(), cache=False, json_out=out)
        host, port = coordinator.serve("127.0.0.1", 0)
        threads = run_workers_in_threads(3, connect=(host, port))
        result = coordinator.run()
        for t in threads:
            t.join(timeout=30)
        assert result.ok and result.total == 4
        assert out.read_bytes() == expected
        assert sum(w["completed"] for w in result.workers.values()) == 4

    def test_spool_transport(self, tmp_path):
        spec = small_spec()
        expected = single_host_bytes(tmp_path, spec)
        out = tmp_path / "spool.json"
        coordinator = SweepCoordinator(
            spec.expand(), cache=False, json_out=out, spool=tmp_path / "spool"
        )
        threads = run_workers_in_threads(2, spool=tmp_path / "spool", poll=0.02)
        result = coordinator.run(poll=0.02)
        for t in threads:
            t.join(timeout=30)
        assert result.ok
        assert out.read_bytes() == expected

    def test_warm_cache_completes_without_workers(self, tmp_path):
        spec = small_spec()
        expected = single_host_bytes(tmp_path, spec)
        cache_dir = tmp_path / "cache"
        first_out = tmp_path / "first.json"
        coordinator = SweepCoordinator(
            spec.expand(), cache=cache_dir, json_out=first_out
        )
        host, port = coordinator.serve("127.0.0.1", 0)
        threads = run_workers_in_threads(1, connect=(host, port))
        coordinator.run()
        for t in threads:
            t.join(timeout=30)
        warm_out = tmp_path / "warm.json"
        warm = SweepCoordinator(spec.expand(), cache=cache_dir, json_out=warm_out)
        result = warm.run()  # never serves, never needs a worker
        assert result.ok and result.cache_hits == result.total
        assert first_out.read_bytes() == warm_out.read_bytes() == expected

    @pytest.mark.parametrize(
        "bad", [{"status": "ok"}, {"status": "ok", "report": []}],
        ids=["no-report", "list-report"],
    )
    def test_ok_entry_without_report_is_recomputed(self, tmp_path, bad):
        spec = small_spec()
        expected = single_host_bytes(tmp_path, spec)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(spec.expand())
        key = min(cache.keys())
        cache.put(key, bad)
        out = tmp_path / "rerun.json"
        coordinator = SweepCoordinator(spec.expand(), cache=cache, json_out=out)
        host, port = coordinator.serve("127.0.0.1", 0)
        threads = run_workers_in_threads(1, connect=(host, port))
        result = coordinator.run()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert result.ok and result.cache_hits == result.total - 1
        assert out.read_bytes() == expected
        assert isinstance(cache.get(key)["report"], dict)  # the bad entry is replaced

    def test_duplicate_completion_is_idempotent(self, tmp_path):
        """Two workers finish the same stolen job; bytes stay identical."""
        spec = small_spec(count=1)
        expected = single_host_bytes(tmp_path, spec)
        out = tmp_path / "dup.json"
        coordinator = SweepCoordinator(
            spec.expand(), cache=False, json_out=out, lease_timeout=0.05
        )
        slow = coordinator.lease_json("slow")
        index = slow["job"]["index"]
        time.sleep(0.1)  # the lease lapses; no heartbeat arrives
        stolen = coordinator.lease_json("fast")
        assert stolen["job"]["index"] == index  # same job, re-leased
        from repro.runtime.workers import run_solve_job

        outcome = run_solve_job(stolen["job"]["payload"])
        first = coordinator.complete_json("fast", stolen["lease"], index, outcome)
        assert first == {"accepted": True, "duplicate": False}
        second = coordinator.complete_json("slow", slow["lease"], index, outcome)
        assert second == {"accepted": False, "duplicate": True}
        # drain the rest of the queue inline
        while True:
            lease = coordinator.lease_json("fast")
            if lease["job"] is None:
                break
            coordinator.complete_json(
                "fast",
                lease["lease"],
                lease["job"]["index"],
                run_solve_job(lease["job"]["payload"]),
            )
        result = coordinator.run()
        assert result.ok
        assert result.duplicates == 1 and result.stolen >= 1
        assert result.workers["slow"]["duplicates"] == 1
        assert out.read_bytes() == expected

    def test_exhausted_lease_becomes_failure_record(self, tmp_path):
        spec = small_spec(count=1)
        coordinator = SweepCoordinator(
            spec.expand(), cache=False, lease_timeout=0.01, max_steals=1,
            json_out=tmp_path / "fail.json",
        )
        assert coordinator.lease_json("crasher")["job"] is not None
        time.sleep(0.05)
        result = coordinator.run()
        assert not result.ok
        assert result.counts["failed"] == 1
        assert result.failures and "lease expired" in result.failures[0]["error"]
        payload = json.loads((tmp_path / "fail.json").read_bytes())
        assert payload["jobs"][0]["status"] == "failed"


class TestSpoolStealing:
    def test_stale_claim_is_renamed_back_to_jobs(self, tmp_path):
        spool = tmp_path / "spool"
        coordinator = SweepCoordinator(
            small_spec(count=1).expand(), cache=False, spool=spool,
            lease_timeout=5.0,
        )
        job_file = next((spool / "jobs").glob("*.json"))
        claim = spool / "claims" / job_file.name
        os.rename(job_file, claim)
        (spool / "claims" / f"{claim.name}.worker").write_text("dead-worker")
        old = time.time() - 60.0
        os.utime(claim, (old, old))
        coordinator._spool_scan()
        assert not claim.exists()
        assert (spool / "jobs" / job_file.name).exists()
        assert coordinator.board.counts()["stolen"] == 1
        coordinator.folder.close()

    def test_spool_give_up_after_max_steals(self, tmp_path):
        spool = tmp_path / "spool"
        coordinator = SweepCoordinator(
            small_spec(count=1).expand(), cache=False, spool=spool,
            lease_timeout=5.0, max_steals=1, json_out=tmp_path / "out.json",
        )
        job_file = next((spool / "jobs").glob("*.json"))
        claim = spool / "claims" / job_file.name
        os.rename(job_file, claim)
        old = time.time() - 60.0
        os.utime(claim, (old, old))
        result = coordinator.run(poll=0.02)
        assert not result.ok
        assert "lease expired" in result.failures[0]["error"]

    def test_corrupt_result_file_fails_that_job_only(self, tmp_path):
        spool = tmp_path / "spool"
        coordinator = SweepCoordinator(
            small_spec().expand(), cache=False, spool=spool,
            json_out=tmp_path / "out.json",
        )
        jobs = sorted((spool / "jobs").glob("*.json"))
        (spool / "results" / jobs[0].name).write_text("{not json")
        jobs[0].unlink()
        threads = run_workers_in_threads(1, spool=spool, poll=0.02)
        result = coordinator.run(poll=0.02)
        for t in threads:
            t.join(timeout=30)
        assert result.counts["failed"] == 1
        assert result.counts["ok"] == result.total - 1
        assert "corrupt spool result" in result.failures[0]["error"]

    def test_scan_leaves_in_flight_temp_result_alone(self, tmp_path):
        """A worker's half-written ``.tmp-*.json`` is not a corrupt result.

        Deleting it made the worker's ``os.replace`` fail, so the job never
        completed and ``run()`` waited forever.
        """
        spool = tmp_path / "spool"
        coordinator = SweepCoordinator(
            small_spec(count=1).expand(), cache=False, spool=spool,
        )
        temp = spool / "results" / ".tmp-x.json"
        temp.write_text("")
        coordinator._spool_scan()
        assert temp.exists()
        assert coordinator.folder.failures == []
        assert coordinator.folder.counts.get("failed", 0) == 0
        coordinator.folder.close()


# ---------------------------------------------------------------------------
# worker-crash containment (a real SIGKILL on a real worker process)
# ---------------------------------------------------------------------------


def start_worker_process(host, port, worker_id, stall=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if stall is not None:
        env[STALL_ENV] = str(stall)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "sweep-worker",
            "--connect", f"{host}:{port}", "--id", worker_id,
            "--no-cache", "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestWorkerCrashContainment:
    def test_sigkill_mid_lease_steal_and_identical_bytes(self, tmp_path):
        spec = small_spec()
        expected = single_host_bytes(tmp_path, spec)
        out = tmp_path / "crash.json"
        coordinator = SweepCoordinator(
            spec.expand(), cache=False, json_out=out, lease_timeout=1.0
        )
        host, port = coordinator.serve("127.0.0.1", 0)
        # The victim leases a job, then stalls inside the chaos hook — a
        # deterministic mid-lease window for the SIGKILL.
        victim = start_worker_process(host, port, "victim", stall=120)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if coordinator.stats_json()["jobs"]["leased"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("victim never leased a job")
            victim.kill()  # SIGKILL: no cleanup, no heartbeat, lease lapses
            victim.wait(timeout=30)
            rescuer = start_worker_process(host, port, "rescuer")
            try:
                result = coordinator.run()
            finally:
                rescuer.wait(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert result.ok, result.summary_text()
        assert result.stolen >= 1
        assert result.workers["victim"]["stolen_from"] >= 1
        assert result.workers["rescuer"]["completed"] == result.total
        assert out.read_bytes() == expected


# ---------------------------------------------------------------------------
# /stats schema
# ---------------------------------------------------------------------------


class TestStatsEndpoint:
    def test_schema_and_counters(self, tmp_path):
        coordinator = SweepCoordinator(small_spec().expand(), cache=False)
        host, port = coordinator.serve("127.0.0.1", 0)
        client = CoordinatorClient(host, port)
        try:
            client.wait_ready()
            health = client.healthz()
            assert health["role"] == "sweep-coordinator" and not health["done"]
            stats = client.stats()
            assert stats["kind"] == "sweep-coordinator-stats"
            assert set(stats) >= {
                "kind", "version", "uptime_seconds", "lease_timeout",
                "jobs", "workers", "cells", "failures",
            }
            jobs = stats["jobs"]
            assert jobs["total"] == 2 and jobs["queued"] == 2
            assert {"leased", "done", "stolen", "duplicates", "ok",
                    "failed", "timeout", "cached"} <= set(jobs)
            assert stats["workers"] == {}
            # one lease in: per-worker liveness appears
            client.lease("w0")
            stats = client.stats()
            assert stats["jobs"]["leased"] == 1
            worker = stats["workers"]["w0"]
            assert worker["leases_held"] == 1
            assert worker["heartbeat_age_seconds"] >= 0.0
            assert {"completed", "failed_jobs", "duplicates",
                    "stolen_from"} <= set(worker)
        finally:
            client.close()
            coordinator.folder.close()
            coordinator.close()

    def test_keep_alive_round_trips_do_not_stall(self):
        """Headers and body leave as separate segments; with Nagle on, a
        keep-alive response waits ~40 ms for the client's delayed ACK."""
        coordinator = SweepCoordinator(small_spec().expand(), cache=False)
        host, port = coordinator.serve("127.0.0.1", 0)
        client = CoordinatorClient(host, port)
        try:
            client.wait_ready()
            client.heartbeat("w0")
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                client.heartbeat("w0")
                times.append(time.perf_counter() - t0)
        finally:
            client.close()
            coordinator.folder.close()
            coordinator.close()
        assert statistics.median(times) < 0.015, times

    def test_cells_fold_welford_stats(self, tmp_path):
        out = tmp_path / "cells.json"
        coordinator = SweepCoordinator(
            small_spec().expand(), cache=False, json_out=out
        )
        host, port = coordinator.serve("127.0.0.1", 0)
        threads = run_workers_in_threads(1, connect=(host, port))
        result = coordinator.run()
        for t in threads:
            t.join(timeout=30)
        assert result.ok
        cell = result.cells["tree-chords-n8 x theorem6"]
        assert cell["budget"]["count"] == 2  # both replicas, one cell
        assert cell["elapsed"]["count"] == 2
        assert cell["budget"]["min"] <= cell["budget"]["mean"] <= cell["budget"]["max"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliValidation:
    def test_jobs_flag_conflicts_with_listen(self, capsys):
        code = main(
            ["sweep", "--solver", "theorem6", "--jobs", "2",
             "--listen", "127.0.0.1:0", "--quiet"]
        )
        assert code == 2
        assert "sweep-worker" in capsys.readouterr().err

    def test_lease_timeout_requires_distributed(self, capsys):
        code = main(
            ["sweep", "--solver", "theorem6", "--lease-timeout", "5", "--quiet"]
        )
        assert code == 2
        assert "--listen/--spool" in capsys.readouterr().err

    def test_worker_needs_exactly_one_transport(self, capsys):
        assert main(["sweep-worker", "--quiet"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["sweep-worker", "--connect", "h:1", "--spool", "d", "--quiet"]
        ) == 2

    def test_bad_hostport_rejected(self, capsys):
        assert main(["sweep-worker", "--connect", "nocolon", "--quiet"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestCacheCli:
    def fill(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            ["sweep", "--solver", "theorem6", "--n", "8", "--count", "2",
             "--seed", "5", "--cache-dir", str(cache_dir), "--quiet"]
        ) == 0
        return cache_dir

    def test_stats_text_and_json(self, tmp_path, capsys):
        cache_dir = self.fill(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        text = capsys.readouterr().out
        assert "entries:    2" in text and str(cache_dir) in text
        assert main(
            ["cache", "stats", "--cache-dir", str(cache_dir), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kind"] == "cache-stats"
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_prune_respects_age(self, tmp_path, capsys):
        cache_dir = self.fill(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "prune", "--older-than", "1d", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert main(
            ["cache", "prune", "--older-than", "0s", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "pruned 2 entries" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        cache_dir = self.fill(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_bad_age_rejected(self, tmp_path, capsys):
        assert main(
            ["cache", "prune", "--older-than", "soon",
             "--cache-dir", str(tmp_path / "c")]
        ) == 2
        assert "NUMBER[s|m|h|d|w]" in capsys.readouterr().err

    def test_stats_on_missing_cache_dir(self, tmp_path, capsys):
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "nothing")]
        ) == 0
        assert "entries:    0" in capsys.readouterr().out


class TestCliDistributedSweep:
    def test_spool_mode_end_to_end(self, tmp_path, capsys):
        spec = small_spec()
        expected = single_host_bytes(tmp_path, spec)
        out = tmp_path / "cli-spool.json"
        spool = tmp_path / "spool"
        threads = run_workers_in_threads(
            2, spool=spool, poll=0.02, ready_timeout=60.0
        )
        code = main(
            ["sweep", "--solver", "theorem6", "--n", "8", "--count", "2",
             "--seed", "5", "--no-cache", "--spool", str(spool),
             "--json-out", str(out), "--quiet"]
        )
        for t in threads:
            t.join(timeout=30)
        captured = capsys.readouterr()
        assert code == 0
        assert "2 jobs: 2 ok" in captured.out
        assert "sweep-worker --spool" in captured.err
        assert out.read_bytes() == expected
