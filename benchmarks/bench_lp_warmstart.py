"""LP warm-start benchmark — the incremental LP + oracle subsystem.

Times LP (1) end to end on a 200-node broadcast instance (sparse
:class:`~repro.lp.incremental.IncrementalLP` rows, warm-started
re-solves, the batched separation oracle) and LP (2) on a 60-node one
(the one-block sparse build), and appends a measurement record to
``BENCH_lp.json`` at the repo root — a growing trajectory of (timestamp,
timings, profile counters) so regressions are visible across commits.

The cross-checks pin the SHA-256 of the solvers' reports on all five game
families and of the simplex backend's warm-started LP (1) answer.  The
digests were computed when those reports were byte-identical to a
cold-rebuild reference path (dense program rebuilt per round, one
isolated Dijkstra per player); warm-vs-cold parity at the LP layer is
``tests/test_lp_incremental.py``'s job.
"""

import hashlib
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
from repro.utils.hashing import canonical_json

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_lp.json"


def _broadcast_state(n, chords, seed, chord_factor):
    g = random_tree_plus_chords(n, chords, seed=seed, chord_factor=chord_factor)
    return BroadcastGame(g, root=0).mst_state()


@pytest.fixture(scope="module")
def lp1_state():
    """The 200-node broadcast LP (1) instance."""
    return _broadcast_state(200, 500, seed=11, chord_factor=1.0)


@pytest.fixture(scope="module")
def lp2_state():
    """The 60-node broadcast LP (2) instance."""
    return _broadcast_state(60, 30, seed=7, chord_factor=1.1)


def _best_of(fn, reps):
    """Best-of wall time of ``fn`` over ``reps`` runs, and its last result."""
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


# ---------------------------------------------------------------------------
# pytest-benchmark visibility (no gates; run once under --benchmark-disable)
# ---------------------------------------------------------------------------


def test_lp1_fast_path(benchmark, lp1_state):
    res = benchmark(solve_sne_cutting_plane_lp1, lp1_state)
    assert res.feasible and res.verified


def test_lp2_fast_path(benchmark, lp2_state):
    res = benchmark(solve_sne_polynomial_lp2, lp2_state)
    assert res.feasible and res.verified


# ---------------------------------------------------------------------------
# cross-checks: pinned outcomes on every game family, both solvers
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


def family_reports_digest(solver):
    """SHA-256 over the canonical reports (wall clock removed) of every family."""
    h = hashlib.sha256()
    for family, game in _family_zoo().items():
        report = solve(game, solver)
        assert report.verified, (family, solver)
        profile = report.metadata.get("profile")
        assert profile is not None and set(profile) == {
            "dijkstra_calls",
            "players_batched",
            "cut_rounds",
            "warm_start_hits",
        }, (family, solver)
        payload = report_to_json(report)
        del payload["wall_clock_seconds"]
        h.update(canonical_json(payload).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def simplex_lp1_digest(state):
    """SHA-256 over the simplex backend's LP (1) rounds, cuts and subsidies."""
    res = solve_sne_cutting_plane_lp1(state, method="simplex")
    assert res.verified
    assert res.profile["warm_start_hits"] >= 1
    subsidies = sorted((repr(e), float(b).hex()) for e, b in res.subsidies.items())
    return hashlib.sha256(repr((res.rounds, res.cuts, subsidies)).encode()).hexdigest()


FAMILY_DIGESTS = {
    "sne-cutting-plane": "2861a86b2d2b35efcb3e75c1792a27ce1aff78a99a53b2874433f13ec41a37bc",
    "sne-poly": "0d5445c72430a39a9ce5097ad1c90ada76063b4b71f8107b80277cef9bf70703",
}

SIMPLEX_DIGEST = "738550da6900f633ba9d9cd408e12b0739b5212d884a9c5f6949423e1a7c29a6"


@pytest.mark.parametrize("solver", sorted(FAMILY_DIGESTS))
def test_reports_byte_identical_across_families(solver):
    """Pinned reports + verdicts on all 5 families."""
    assert family_reports_digest(solver) == FAMILY_DIGESTS[solver]


def test_simplex_backend_warm_start_agrees(lp2_state):
    """The dual-simplex warm start keeps its pinned rounds, cuts and subsidies."""
    assert simplex_lp1_digest(lp2_state) == SIMPLEX_DIGEST


# ---------------------------------------------------------------------------
# the BENCH_lp.json trajectory record
# ---------------------------------------------------------------------------


def test_lp_warmstart_timings(lp1_state, lp2_state):
    """Time both solvers and append the trajectory record."""
    # Warm every cache (graph interning, bindings) before timing.
    solve_sne_cutting_plane_lp1(lp1_state)
    solve_sne_polynomial_lp2(lp2_state)

    t1, res1 = _best_of(lambda: solve_sne_cutting_plane_lp1(lp1_state), 5)
    t2, res2 = _best_of(lambda: solve_sne_polynomial_lp2(lp2_state), 3)
    assert res1.verified and res2.verified
    append_trajectory(
        TRAJECTORY,
        {
            "bench": "lp_warmstart",
            "timestamp": time.time(),
            "lp1": {
                "instance": "broadcast n=200 chords=500 seed=11",
                "fast_ms": t1 * 1e3,
                "rounds": res1.rounds,
                "cuts": res1.cuts,
                "profile": res1.profile,
            },
            "lp2": {
                "instance": "broadcast n=60 chords=30 seed=7",
                "fast_ms": t2 * 1e3,
                "profile": res2.profile,
            },
        }
    )


if __name__ == "__main__":
    for name in sorted(FAMILY_DIGESTS):
        print(f"    {name!r}: {family_reports_digest(name)!r},")
    print(f"SIMPLEX_DIGEST = {simplex_lp1_digest(_broadcast_state(60, 30, seed=7, chord_factor=1.1))!r}")
