"""LP backend shoot-out: one subsidy workload, every registered backend.

Not a speed *gate* between backends — they serve different purposes
(HiGHS is the production path, the tableau is the dependency-free
fallback, the exact backend trades seconds for proofs, CBC exists for
independence) — but the relative costs should stay visible across
commits, and two *relationships* are worth gating:

* every available backend must land on the same optimal budget (the
  timing loop doubles as one more conformance pass, on a bigger instance
  than the test-suite zoo), and
* the exact backend's overhead over ``highs-sparse`` must stay within a
  generous envelope (exact pivots are ``O(m*n)`` big-rational
  multiplies; an order-of-magnitude regression here means a pivoting
  bug, not noise).

(No "fastest backend" gate on purpose: at this instance size the dense
tableau legitimately beats HiGHS — scipy's call overhead dominates —
and the ranking flips around n≈200, so it is a property of the size,
not of the code.)

Gates follow this directory's convention: skipped under plain ``CI``,
armed by ``REPRO_BENCH_BACKENDS=1`` or any quiet machine.  Each armed
run appends a record to ``BENCH_backends.json`` at the repo root.
"""

import os
import time
from pathlib import Path

import pytest

from repro.api import solve
from repro.games.broadcast import BroadcastGame
from repro.graphs.generators import random_tree_plus_chords
from repro.lp import get_backend, list_backends

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_backends.json"

#: exact-backend certification overhead envelope on the LP (1) instance,
#: as a multiple of the highs-sparse wall clock (generous: proofs are
#: allowed to be slow, regressions are not allowed to be silent)
EXACT_MAX_RATIO = float(os.environ.get("REPRO_BENCH_EXACT_MAX_RATIO", "2000"))

_SKIP_TIMING = (
    os.environ.get("CI", "") != ""
    and "REPRO_BENCH_BACKENDS" not in os.environ
    and "REPRO_BENCH_EXACT_MAX_RATIO" not in os.environ
)


def _lp1_game():
    """A mid-size broadcast instance: big enough to separate the backends,
    small enough that the exact backend finishes LP (1) in milliseconds."""
    g = random_tree_plus_chords(60, 30, seed=7, chord_factor=1.1)
    return BroadcastGame(g, root=0)


@pytest.fixture(scope="module")
def game():
    return _lp1_game()


def _available_backends():
    return [s.name for s in list_backends(available_only=True)]


# ---------------------------------------------------------------------------
# pytest-benchmark visibility (one row per backend, no gates)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["highs-sparse", "warm-tableau", "exact", "pulp-cbc"])
def test_backend_lp1_wall_clock(benchmark, backend, game):
    spec = get_backend(backend, require_available=False)
    if not spec.available:
        pytest.skip(f"backend {backend!r} unavailable (needs {spec.requires})")
    report = benchmark(lambda: solve(game, "sne-cutting-plane", method=backend))
    assert report.feasible and report.verified


def test_certified_solve_wall_clock(benchmark, game):
    report = benchmark(lambda: solve(game, "sne-cutting-plane", certify=True))
    assert report.verified and "exact_certificate" in report.metadata


# ---------------------------------------------------------------------------
# the relationship gates + BENCH_backends.json trajectory
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    _SKIP_TIMING,
    reason="backend wall-clock comparisons need a quiet machine or an "
    "explicit REPRO_BENCH_BACKENDS=1 (plain CI skips them)",
)
def test_backend_relative_costs(game):
    solve(game, "sne-cutting-plane")  # warm graph/binding caches once

    timings = {}
    budgets = {}
    for name in _available_backends():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            report = solve(game, "sne-cutting-plane", method=name)
            best = min(best, time.perf_counter() - t0)
        assert report.feasible and report.verified, name
        timings[name] = best
        budgets[name] = report.budget_used

    t0 = time.perf_counter()
    certified = solve(game, "sne-cutting-plane", certify=True)
    t_certify = time.perf_counter() - t0
    assert certified.metadata["exact_certificate"]["status"] == "OPTIMAL"

    append_trajectory(
        TRAJECTORY,
        {
            "bench": "backends",
            "timestamp": time.time(),
            "instance": "broadcast n=60 chords=30 seed=7",
            "lp1_ms": {name: t * 1e3 for name, t in timings.items()},
            "lp1_budget": budgets,
            "certify_ms": t_certify * 1e3,
            "exact_max_ratio": EXACT_MAX_RATIO,
        }
    )

    reference = budgets["highs-sparse"]
    for name, budget in budgets.items():
        assert abs(budget - reference) <= 1e-6, (name, budget, reference)
    if "exact" in timings:
        ratio = timings["exact"] / timings["highs-sparse"]
        assert ratio <= EXACT_MAX_RATIO, (
            f"exact backend overhead {ratio:.0f}x highs-sparse "
            f"(> {EXACT_MAX_RATIO:.0f}x envelope) — check the pivot loop"
        )


