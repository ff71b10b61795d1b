"""LP warm-start benchmark — the fast LP + oracle subsystem vs cold rebuilds.

The acceptance bar for the warm-started incremental cutting-plane stack:

* **LP (1)** end-to-end on a 200-node broadcast instance must beat the
  cold-rebuild reference path (dense ``LinearProgram`` rebuilt per round,
  one isolated Dijkstra per player per round) by at least **3x**;
* **LP (2)** must beat its dense build by at least **2x**;
* both with *byte-identical* ``SolveReport`` JSON (modulo the wall clock
  and the solve-path ``profile`` counters) and identical equilibrium
  verdicts — checked here across **all five game families**.

The wall-clock gates are environment-tunable: ``REPRO_BENCH_LP1_MIN`` /
``REPRO_BENCH_LP2_MIN`` override the 3x / 2x thresholds (the CI
perf-smoke job relaxes both to 1.5x for the noisy 2-core runner), and the
gates skip entirely under plain ``CI`` without those overrides, exactly
like the other hand-rolled timing gates in this directory.

Each gated run appends a measurement record to ``BENCH_lp.json`` at the
repo root — a growing trajectory of (timestamp, timings, speedups,
profile counters) so regressions are visible across commits.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import solve
from repro.api.serialize import report_to_json
from repro.games.broadcast import BroadcastGame
from repro.games.directed import DirectedNetworkDesignGame
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.generators import random_tree_plus_chords
from repro.subsidies.sne_lp import (
    solve_sne_cutting_plane_lp1,
    solve_sne_polynomial_lp2,
)

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_lp.json"

#: wall-clock gates; overridable for slow shared runners
LP1_MIN = float(os.environ.get("REPRO_BENCH_LP1_MIN", "3.0"))
LP2_MIN = float(os.environ.get("REPRO_BENCH_LP2_MIN", "2.0"))

#: plain CI without explicit thresholds: run everything except the gates
_SKIP_TIMING = (
    os.environ.get("CI", "") != ""
    and "REPRO_BENCH_LP1_MIN" not in os.environ
    and "REPRO_BENCH_LP2_MIN" not in os.environ
)


def _broadcast_state(n, chords, seed, chord_factor):
    g = random_tree_plus_chords(n, chords, seed=seed, chord_factor=chord_factor)
    return BroadcastGame(g, root=0).mst_state()


@pytest.fixture(scope="module")
def lp1_state():
    """The 200-node broadcast gate instance."""
    return _broadcast_state(200, 500, seed=11, chord_factor=1.0)


@pytest.fixture(scope="module")
def lp2_state():
    """LP (2)'s gate instance (the dense cold build is quadratic, so the
    instance is sized to keep the cold half of the comparison runnable)."""
    return _broadcast_state(60, 30, seed=7, chord_factor=1.1)


def _best_of_pair(fn_a, fn_b, reps):
    """Best-of timings for two callables, *interleaved* per repetition.

    Timing the fast and cold paths in separate back-to-back blocks lets a
    load spike or CPU-frequency shift land entirely inside one block and
    skew the ratio; alternating them spreads any disturbance across both.
    """
    times_a, times_b = [], []
    result_a = result_b = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result_a = fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result_b = fn_b()
        times_b.append(time.perf_counter() - t0)
    return min(times_a), result_a, min(times_b), result_b


def _stripped_report_bytes(report) -> bytes:
    """Canonical report JSON minus wall clock and solve-path provenance."""
    payload = report_to_json(report)
    payload.pop("wall_clock_seconds", None)
    metadata = payload.get("metadata")
    if isinstance(metadata, dict):
        metadata.pop("profile", None)
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# pytest-benchmark visibility (no gates; run once under --benchmark-disable)
# ---------------------------------------------------------------------------


def test_lp1_fast_path(benchmark, lp1_state):
    res = benchmark(solve_sne_cutting_plane_lp1, lp1_state)
    assert res.feasible and res.verified


def test_lp1_cold_path(benchmark, lp1_state):
    res = benchmark(lambda: solve_sne_cutting_plane_lp1(lp1_state, fast=False))
    assert res.feasible and res.verified


def test_lp2_fast_path(benchmark, lp2_state):
    res = benchmark(solve_sne_polynomial_lp2, lp2_state)
    assert res.feasible and res.verified


# ---------------------------------------------------------------------------
# cross-checks: identical outcomes on every game family, both solvers
# ---------------------------------------------------------------------------


def _family_zoo():
    g = random_tree_plus_chords(14, 7, seed=3, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 3) * 0.5 for i in range(6)]
    return {
        "broadcast": BroadcastGame(g, root=0),
        "multicast": MulticastGame(g, 0, others[:5]),
        "general": NetworkDesignGame(g, [(u, 0) for u in others[:6]]),
        "weighted": WeightedNetworkDesignGame(
            g, [(u, 0) for u in others[:6]], demands
        ),
        "directed": DirectedNetworkDesignGame(g, [(u, 0) for u in others[:6]]),
    }


@pytest.mark.parametrize("solver", ["sne-cutting-plane", "sne-poly"])
def test_reports_byte_identical_across_families(solver):
    """Fast vs cold: byte-identical reports + verdicts on all 5 families."""
    for family, game in _family_zoo().items():
        fast = solve(game, solver)
        cold = solve(game, solver, fast=False)
        assert fast.verified == cold.verified, (family, solver)
        assert _stripped_report_bytes(fast) == _stripped_report_bytes(cold), (
            family,
            solver,
        )
        profile = fast.metadata.get("profile")
        assert profile is not None and set(profile) == {
            "dijkstra_calls",
            "players_batched",
            "cut_rounds",
            "warm_start_hits",
        }, (family, solver)


def test_simplex_backend_warm_start_agrees(lp2_state):
    """The dual-simplex warm start must match the cold tableau exactly."""
    fast = solve_sne_cutting_plane_lp1(lp2_state, method="simplex")
    cold = solve_sne_cutting_plane_lp1(lp2_state, method="simplex", fast=False)
    assert fast.verified and cold.verified
    assert (fast.rounds, fast.cuts) == (cold.rounds, cold.cuts)
    assert dict(fast.subsidies.items()) == dict(cold.subsidies.items())
    assert fast.profile["warm_start_hits"] >= 1


# ---------------------------------------------------------------------------
# the wall-clock gates + the BENCH_lp.json trajectory record
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    _SKIP_TIMING,
    reason="wall-clock ratio gates need a quiet machine or an explicit "
    "REPRO_BENCH_LP*_MIN threshold (the CI perf-smoke job sets one)",
)
def test_lp_warmstart_speedups(lp1_state, lp2_state):
    """Gate the end-to-end speedups and append the trajectory record."""
    # Warm every cache (graph interning, bindings) before timing.
    solve_sne_cutting_plane_lp1(lp1_state)
    solve_sne_polynomial_lp2(lp2_state)

    t_fast1, res_fast1, t_cold1, res_cold1 = _best_of_pair(
        lambda: solve_sne_cutting_plane_lp1(lp1_state),
        lambda: solve_sne_cutting_plane_lp1(lp1_state, fast=False),
        5,
    )
    assert res_fast1.verified and res_cold1.verified
    assert dict(res_fast1.subsidies.items()) == dict(res_cold1.subsidies.items())
    assert (res_fast1.rounds, res_fast1.cuts) == (res_cold1.rounds, res_cold1.cuts)

    t_fast2, res_fast2, t_cold2, res_cold2 = _best_of_pair(
        lambda: solve_sne_polynomial_lp2(lp2_state),
        lambda: solve_sne_polynomial_lp2(lp2_state, fast=False),
        3,
    )
    assert res_fast2.verified and res_cold2.verified
    assert dict(res_fast2.subsidies.items()) == dict(res_cold2.subsidies.items())

    speedup1 = t_cold1 / t_fast1
    speedup2 = t_cold2 / t_fast2
    append_trajectory(
        TRAJECTORY,
        {
            "bench": "lp_warmstart",
            "timestamp": time.time(),
            "thresholds": {"lp1": LP1_MIN, "lp2": LP2_MIN},
            "lp1": {
                "instance": "broadcast n=200 chords=500 seed=11",
                "fast_ms": t_fast1 * 1e3,
                "cold_ms": t_cold1 * 1e3,
                "speedup": speedup1,
                "rounds": res_fast1.rounds,
                "cuts": res_fast1.cuts,
                "profile": res_fast1.profile,
            },
            "lp2": {
                "instance": "broadcast n=60 chords=30 seed=7",
                "fast_ms": t_fast2 * 1e3,
                "cold_ms": t_cold2 * 1e3,
                "speedup": speedup2,
                "profile": res_fast2.profile,
            },
        }
    )
    assert speedup1 >= LP1_MIN, (
        f"LP(1) fast {t_fast1 * 1e3:.2f}ms vs cold {t_cold1 * 1e3:.2f}ms "
        f"-> {speedup1:.2f}x (< {LP1_MIN}x)"
    )
    assert speedup2 >= LP2_MIN, (
        f"LP(2) fast {t_fast2 * 1e3:.2f}ms vs cold {t_cold2 * 1e3:.2f}ms "
        f"-> {speedup2:.2f}x (< {LP2_MIN}x)"
    )
