"""Game-family benchmark — engine-backed checks vs the label reference.

The acceptance bar for the unified game-family layer: on a 200-node
weighted broadcast-shaped instance the engine-backed
:func:`check_weighted_equilibrium` must beat the dict-based
:func:`~repro.games.equilibrium.check_equilibrium_legacy` by at least 2x,
with identical verdicts on randomized weighted and directed cross-checks
— the same bar the broadcast checker meets in ``bench_equilibrium.py``.
The directed binding is exercised alongside (same engine, plus the CSR
arc mask).
"""

import os
import time

import pytest

from repro.games.directed import DirectedNetworkDesignGame
from repro.games.equilibrium import check_equilibrium, check_equilibrium_legacy
from repro.games.weighted import WeightedNetworkDesignGame, check_weighted_equilibrium
from repro.graphs.generators import random_tree_plus_chords
from repro.scenarios import build_scenario


def _weighted_state(n, seed):
    g = random_tree_plus_chords(n, n // 2, seed=seed, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 4) * 0.5 for i in range(len(others))]
    game = WeightedNetworkDesignGame(g, [(u, 0) for u in others], demands)
    return game.shortest_path_state()


@pytest.fixture(scope="module")
def weighted_200():
    return _weighted_state(200, seed=7)


def _engine_full_scan(state):
    """Engine-backed weighted check in full-scan mode (no early exit)."""
    return check_equilibrium(state, find_all=True).is_equilibrium


def _legacy_full_scan(state):
    return check_equilibrium_legacy(state, find_all=True).is_equilibrium


def test_engine_weighted_check(benchmark, weighted_200):
    stable = benchmark(_engine_full_scan, weighted_200)
    assert isinstance(stable, bool)


def test_legacy_weighted_check(benchmark, weighted_200):
    stable = benchmark(_legacy_full_scan, weighted_200)
    assert isinstance(stable, bool)


def test_directed_engine_check(benchmark):
    g = random_tree_plus_chords(200, 100, seed=7, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    game = DirectedNetworkDesignGame(g, [(u, 0) for u in others])
    state = game.shortest_path_state()
    report = benchmark(check_equilibrium, state, find_all=True)
    assert isinstance(report.is_equilibrium, bool)


def _directed_state(topology, n, seed):
    game = build_scenario(
        topology, n=n, seed=seed, game="directed", orientation="oneway-chords"
    )
    return game.default_state()


def test_verdicts_identical_on_randomized_instances(weighted_200):
    states = [weighted_200] + [
        _weighted_state(n, seed)
        for n, seed in [(60, 1), (60, 2), (80, 3), (100, 4), (120, 5)]
    ]
    for state in states:
        assert check_weighted_equilibrium(state) == (
            check_equilibrium_legacy(state).is_equilibrium
        )
        assert _engine_full_scan(state) == _legacy_full_scan(state)


def test_directed_verdicts_identical_on_randomized_instances():
    """One-way chords make the instances asymmetric: the reference must
    honour arc directions exactly as the engine's arc mask does."""
    states = [
        _directed_state(topology, n, seed)
        for topology in ("grid", "power-law", "augmented-cube")
        for n, seed in [(32, 1), (64, 2)]
    ]
    assert any(not state.game.is_symmetric() for state in states)
    for state in states:
        assert check_equilibrium(state).is_equilibrium == (
            check_equilibrium_legacy(state).is_equilibrium
        )
        assert _engine_full_scan(state) == _legacy_full_scan(state)


@pytest.mark.skipif(
    os.environ.get("CI", "") != "",
    reason="wall-clock ratio assertion; shared CI runners are too noisy for it",
)
def test_engine_beats_legacy_2x(weighted_200):
    """min-of-5 wall-clock: engine at least 2x faster than the legacy oracle.

    Full-scan mode on both sides (find-first exits on the first improving
    deviation, which measures nothing but the first player's query).
    """

    def best_of(fn, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(weighted_200)
            times.append(time.perf_counter() - t0)
        return min(times)

    _engine_full_scan(weighted_200)  # warm the interned caches
    t_engine = best_of(_engine_full_scan)
    t_legacy = best_of(_legacy_full_scan)
    speedup = t_legacy / t_engine
    assert speedup >= 2.0, (
        f"engine {t_engine * 1e3:.2f}ms vs legacy {t_legacy * 1e3:.2f}ms "
        f"-> {speedup:.2f}x (< 2x)"
    )
