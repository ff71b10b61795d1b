"""Serve-layer load benchmark — resident daemon vs per-request cold processes.

The acceptance bar for ``repro.serve``: a warm daemon (interned instances,
resident engines, shared result cache) handling a closed-loop multi-thread
client load must beat the status quo it replaces — one cold
``repro-experiments solve --json`` process per request — by at least
**2x** requests/second, returning byte-identical canonical bodies.

The measured load runs N client threads in closed loop (each fires its
next request the moment the previous one returns) over a small mixed-family
instance set, then reports p50/p99 latency, req/s and the result-cache
hit-rate from ``/stats``.

The wall-clock gate is environment-tunable: ``REPRO_BENCH_SERVE_MIN``
overrides the 2x threshold (the CI perf-smoke job relaxes it for the noisy
2-core runner) and the gate skips entirely under plain ``CI`` without an
override, exactly like the other hand-rolled timing gates in this
directory.  Each gated run appends a record to ``BENCH_serve.json`` at the
repo root — a growing trajectory of (timestamp, latencies, throughputs,
hit-rates) so regressions are visible across commits.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import serialize, solve
from repro.games.broadcast import BroadcastGame
from repro.games.directed import DirectedNetworkDesignGame
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.generators import random_tree_plus_chords
from repro.serve import ServeClient, ServeConfig, make_server

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_serve.json"

SOLVER = "sne-lp2"

#: warm-daemon throughput must beat the cold-process baseline by this factor
SERVE_MIN = float(os.environ.get("REPRO_BENCH_SERVE_MIN", "2.0"))

#: plain CI without an explicit threshold: run everything except the gate
_SKIP_TIMING = (
    os.environ.get("CI", "") != "" and "REPRO_BENCH_SERVE_MIN" not in os.environ
)

#: closed-loop load shape
CLIENT_THREADS = 4
REQUESTS_PER_THREAD = 25
COLD_PROCESS_REPS = 3


def _instance_payloads():
    """A small mixed-family workload, one payload per game family."""
    g = random_tree_plus_chords(14, 7, seed=3, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 3) * 0.5 for i in range(6)]
    games = [
        BroadcastGame(g, root=0),
        MulticastGame(g, 0, others[:5]),
        NetworkDesignGame(g, [(u, 0) for u in others[:6]]),
        WeightedNetworkDesignGame(g, [(u, 0) for u in others[:6]], demands),
        DirectedNetworkDesignGame(g, [(u, 0) for u in others[:6]]),
    ]
    return [serialize.game_to_json(game) for game in games]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A live daemon on a fresh port with its own result-cache directory."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    server = make_server(
        ServeConfig(workers=4, queue=64, lru_size=32, cache=cache_dir), port=0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    client = ServeClient(port=port)
    client.wait_ready()
    yield port, client
    client.close()
    server.shutdown()
    server.server_close()


def _closed_loop_load(port, instances):
    """N threads, each firing its next request as the previous returns.

    Returns (latencies_seconds, wall_seconds, bodies_by_cell).
    """
    latencies = []
    bodies = {}
    lock = threading.Lock()
    errors = []

    def client_loop(thread_index):
        client = ServeClient(port=port)
        try:
            for r in range(REQUESTS_PER_THREAD):
                cell = (thread_index + r) % len(instances)
                t0 = time.perf_counter()
                body, status = client.solve_raw(instances[cell], SOLVER)
                dt = time.perf_counter() - t0
                with lock:
                    latencies.append(dt)
                    previous = bodies.setdefault(cell, body)
                    if previous != body:
                        errors.append(f"cell {cell}: divergent response bytes")
        except Exception as exc:  # noqa: BLE001 - surfaced via errors
            with lock:
                errors.append(f"thread {thread_index}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENT_THREADS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    assert not errors, errors
    return latencies, wall, bodies


def _cold_process_baseline(instance, tmp_path):
    """Per-request cost of the daemon-less status quo: one CLI process.

    Returns (per-request seconds list, canonical stdout bytes).
    """
    instance_file = tmp_path / "cold-instance.json"
    instance_file.write_text(json.dumps(instance))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    times = []
    stdout = None
    for _ in range(COLD_PROCESS_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "solve",
                str(instance_file),
                "--solver",
                SOLVER,
                "--json",
                "--canonical",
            ],
            env=env,
            capture_output=True,
            check=True,
        )
        times.append(time.perf_counter() - t0)
        stdout = proc.stdout
    return times, stdout


# ---------------------------------------------------------------------------
# correctness under load (no gate: runs everywhere, CI included)
# ---------------------------------------------------------------------------


def test_concurrent_load_is_byte_stable(daemon):
    """Concurrent clients must see exactly the serial canonical bytes."""
    port, _client = daemon
    instances = _instance_payloads()
    _latencies, _wall, bodies = _closed_loop_load(port, instances)
    assert set(bodies) == set(range(len(instances)))
    for cell, instance in enumerate(instances):
        game = serialize.game_from_json(instance)
        expected = (
            json.dumps(
                serialize.canonical_report_json(solve(game, SOLVER)), indent=2
            )
            + "\n"
        ).encode("utf-8")
        assert bodies[cell] == expected, f"cell {cell} diverged from serial solve"


# ---------------------------------------------------------------------------
# the throughput gate + the BENCH_serve.json trajectory record
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    _SKIP_TIMING,
    reason="wall-clock ratio gate needs a quiet machine or an explicit "
    "REPRO_BENCH_SERVE_MIN threshold (the CI perf-smoke job sets one)",
)
def test_serve_warm_beats_cold_processes(daemon, tmp_path):
    """Gate warm-daemon throughput and append the trajectory record."""
    port, client = daemon
    instances = _instance_payloads()

    # Warm every layer (LRU intern, engines, result cache) before timing.
    for instance in instances:
        client.solve_raw(instance, SOLVER)

    before = client.stats()["counters"]
    latencies, wall, bodies = _closed_loop_load(port, instances)
    after = client.stats()["counters"]

    total = len(latencies)
    warm_rps = total / wall
    latencies.sort()
    p50 = statistics.median(latencies)
    p99 = latencies[min(total - 1, int(total * 0.99))]
    delta_hits = after.get("result_cache_hits", 0) - before.get("result_cache_hits", 0)
    delta_misses = after.get("result_cache_misses", 0) - before.get(
        "result_cache_misses", 0
    )
    hit_rate = delta_hits / max(1, delta_hits + delta_misses)

    cold_times, cold_stdout = _cold_process_baseline(instances[0], tmp_path)
    cold_rps = 1.0 / min(cold_times)
    speedup = warm_rps / cold_rps

    # The two execution styles must be interchangeable byte for byte.
    assert cold_stdout == bodies[0], "daemon body != cold CLI --canonical stdout"
    # After the warmup pass, the timed load should be essentially all hits.
    assert hit_rate >= 0.9, f"timed-phase cache hit rate only {hit_rate:.2%}"

    append_trajectory(
        TRAJECTORY,
        {
            "bench": "serve",
            "timestamp": time.time(),
            "threshold": SERVE_MIN,
            "solver": SOLVER,
            "load": {
                "client_threads": CLIENT_THREADS,
                "requests_per_thread": REQUESTS_PER_THREAD,
                "unique_cells": len(instances),
            },
            "warm": {
                "requests": total,
                "wall_seconds": wall,
                "req_per_s": warm_rps,
                "p50_ms": p50 * 1e3,
                "p99_ms": p99 * 1e3,
                "cache_hit_rate": hit_rate,
            },
            "cold": {
                "process_reps": COLD_PROCESS_REPS,
                "best_seconds": min(cold_times),
                "req_per_s": cold_rps,
            },
            "speedup": speedup,
        }
    )
    assert speedup >= SERVE_MIN, (
        f"warm daemon {warm_rps:.1f} req/s vs cold process {cold_rps:.2f} req/s "
        f"-> {speedup:.2f}x (< {SERVE_MIN}x)"
    )
