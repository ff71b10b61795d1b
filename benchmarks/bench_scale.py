"""Scale-tier benchmark — anytime/approximate subsidy solvers at 10^5 nodes.

The acceptance bar for the approximate tier:

* a 10^5-node scenario instance (``grid`` by default) must **build and
  solve** through the memory-lean indexed path
  (:func:`repro.scenarios.build_scenario_indexed` +
  :func:`repro.subsidies.solve_sne_greedy_indexed`) within a wall-clock
  and a peak-RSS budget, producing a *certified* optimality gap
  (``lower_bound <= cost`` with a dual-feasible Lagrangian lower bound)
  and a verified subsidy vector;
* on small instances the approximate solvers must **cross-validate
  against the exact LP solvers on all five game families**: the certified
  interval brackets the LP optimum, and the primal-dual solver run to
  convergence reproduces the exact cutting-plane subsidies bit for bit.

The wall-clock/memory gates are environment-tunable:
``REPRO_BENCH_SCALE_N`` sizes the gate instance (default 100000),
``REPRO_BENCH_SCALE_SECONDS`` bounds build+solve time (default 60) and
``REPRO_BENCH_SCALE_RSS_MB`` bounds the process peak RSS (default 2048).
Like the other hand-rolled timing gates in this directory, the gate skips
under plain ``CI`` unless one of those knobs is set explicitly (the CI
scale-smoke job sets a reduced ``N``).

Each gated run appends a measurement record to ``BENCH_scale.json`` at
the repo root — (timestamp, n, timings, certified gap, anytime
trajectory, peak RSS) so scaling regressions are visible across commits.
"""

import os
import time
from pathlib import Path

import pytest

from repro.api import solve
from repro.scenarios import build_scenario, build_scenario_indexed
from repro.subsidies import solve_sne_greedy_indexed
from repro.utils.resources import peak_rss_bytes

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_scale.json"

#: gate knobs; overridable for slow shared runners
SCALE_N = int(os.environ.get("REPRO_BENCH_SCALE_N", "100000"))
SCALE_SECONDS = float(os.environ.get("REPRO_BENCH_SCALE_SECONDS", "60"))
SCALE_RSS_MB = float(os.environ.get("REPRO_BENCH_SCALE_RSS_MB", "2048"))

#: plain CI without explicit knobs: run everything except the gate
_SKIP_TIMING = (
    os.environ.get("CI", "") != ""
    and "REPRO_BENCH_SCALE_N" not in os.environ
    and "REPRO_BENCH_SCALE_SECONDS" not in os.environ
    and "REPRO_BENCH_SCALE_RSS_MB" not in os.environ
)

#: scenario families exercised at the gate size (structured mesh, heavy-tail
#: hubs, two-tier geometric — the three scaling-relevant topologies)
SCALE_FAMILIES = ("grid", "power-law", "isp-like")


# ---------------------------------------------------------------------------
# pytest-benchmark visibility (no gates; run once under --benchmark-disable)
# ---------------------------------------------------------------------------


def test_indexed_build_mid_scale(benchmark):
    inst = benchmark(build_scenario_indexed, "grid", 20_000, 3)
    assert inst.num_nodes == 20_000


def test_indexed_solve_mid_scale(benchmark):
    inst = build_scenario_indexed("grid", n=20_000, seed=3)
    res = benchmark(solve_sne_greedy_indexed, inst.ig, inst.root)
    assert res.verified and res.feasible
    assert 0.0 <= res.certificate.lower_bound <= res.cost + 1e-9


# ---------------------------------------------------------------------------
# cross-validation: approx vs exact on small instances, all five families
# ---------------------------------------------------------------------------


def _family_instances():
    """One small instance of every game family (nontrivial subsidies)."""
    from repro.games.broadcast import BroadcastGame
    from repro.games.directed import DirectedNetworkDesignGame
    from repro.games.game import NetworkDesignGame
    from repro.games.multicast import MulticastGame
    from repro.games.weighted import WeightedNetworkDesignGame
    from repro.graphs.generators import random_tree_plus_chords

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


@pytest.mark.parametrize("family", sorted(_family_instances()))
def test_certified_interval_brackets_exact_optimum(family):
    """approx lower bound <= exact LP optimum <= approx budget, per family."""
    game = _family_instances()[family]
    exact = solve(game, "sne-cutting-plane")
    assert exact.verified
    for solver in ("approx-greedy", "approx-primal-dual"):
        approx = solve(game, solver)
        assert approx.verified, (family, solver)
        cert = approx.metadata["certificate"]
        assert cert["lower_bound"] <= exact.budget_used + 1e-6, (family, solver)
        assert exact.budget_used <= approx.budget_used + 1e-6, (family, solver)


@pytest.mark.parametrize("family", sorted(_family_instances()))
def test_primal_dual_converges_to_exact(family):
    """Run to convergence, primal-dual == exact cutting-plane subsidies."""
    game = _family_instances()[family]
    exact = solve(game, "sne-cutting-plane")
    pd = solve(game, "approx-primal-dual")
    assert pd.metadata["certificate"]["kind"] == "exact", family
    assert pd.subsidies == exact.subsidies, family
    assert pd.budget_used == pytest.approx(exact.budget_used, abs=1e-9)


# ---------------------------------------------------------------------------
# the scale gate + the BENCH_scale.json trajectory record
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    _SKIP_TIMING,
    reason="the scale gate needs a quiet machine or an explicit "
    "REPRO_BENCH_SCALE_* knob (the CI scale-smoke job sets one)",
)
def test_scale_gate():
    """Build + solve the gate instance within time/memory budgets."""
    entry = {
        "bench": "scale",
        "timestamp": time.time(),
        "n": SCALE_N,
        "budgets": {"seconds": SCALE_SECONDS, "rss_mb": SCALE_RSS_MB},
        "families": {},
    }
    total = 0.0
    for name in SCALE_FAMILIES:
        t0 = time.perf_counter()
        inst = build_scenario_indexed(name, n=SCALE_N, seed=1)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = solve_sne_greedy_indexed(inst.ig, inst.root, anytime=True)
        t_solve = time.perf_counter() - t0
        total += t_build + t_solve

        assert res.feasible and res.verified, name
        cert = res.certificate
        assert 0.0 <= cert.lower_bound <= res.cost + 1e-9, name
        assert res.anytime is not None and res.anytime.iterates, name

        entry["families"][name] = {
            "nodes": inst.num_nodes,
            "edges": inst.num_edges,
            "incidences": res.num_incidences,
            "build_seconds": t_build,
            "solve_seconds": t_solve,
            "rounds": res.rounds,
            "budget": res.cost,
            "certificate": cert.as_dict(),
            "anytime": res.anytime.as_dict(),
        }

    rss_mb = peak_rss_bytes() / (1024 * 1024)
    entry["total_seconds"] = total
    entry["peak_rss_mb"] = rss_mb
    append_trajectory(TRAJECTORY, entry)

    assert total <= SCALE_SECONDS, (
        f"scale tier took {total:.2f}s for {len(SCALE_FAMILIES)} families at "
        f"n={SCALE_N} (> {SCALE_SECONDS}s budget)"
    )
    assert rss_mb <= SCALE_RSS_MB, (
        f"peak RSS {rss_mb:.0f} MiB at n={SCALE_N} (> {SCALE_RSS_MB} MiB budget)"
    )
