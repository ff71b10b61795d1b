"""Batched separation oracle parity: `scan` must equal `scan_legacy` exactly.

The batched scan skips searches only when their outcome is provably
decided — a Lemma 2 incidence certificate for broadcast trees, a shared
reverse-search lower bound for shared-target groups — so every record it
returns (players, costs, deviation paths, ordering, early-exit behavior)
must be identical to the pre-batching per-player reference.  These tests
sweep random instances of every game family under random subsidy vectors
and at the LP optimum (where certificate constraints sit exactly on their
boundaries).
"""

import numpy as np
import pytest

from repro.games.broadcast import BroadcastGame
from repro.games.directed import DirectedNetworkDesignGame
from repro.games import engine as engine_module
from repro.games.engine import BestResponseEngine, EngineProfile, OracleStats
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.core import DijkstraWorkspace, dijkstra_indexed
from repro.graphs.generators import random_tree_plus_chords
from repro.subsidies.sne_lp import solve_sne_broadcast_lp3
from repro.utils.tolerances import LP_TOL


def _random_subsidies(graph, rng, density=0.4):
    subs = {}
    for u, v, w in graph.edges():
        if rng.random() < density:
            subs[(min(u, v), max(u, v))] = float(rng.random() * w)
    return subs


def _assert_scans_equal(binding, engine, subsidies, tol=LP_TOL):
    wb = engine.net_weights(engine.subsidy_vector(subsidies))
    for find_all in (False, True):
        fast = binding.scan(wb, tol=tol, find_all=find_all)
        slow = binding.scan_legacy(wb, tol=tol, find_all=find_all)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.player == b.player and a.position == b.position
            assert a.current_cost == b.current_cost
            assert a.deviation_cost == b.deviation_cost
            assert a.node_ids == b.node_ids and a.edge_ids == b.edge_ids
    # the all-players mode (no improvement filtering) must agree too
    fast_all = binding.scan(wb, tol=tol, find_all=True, improving_only=False)
    slow_all = binding.scan_legacy(wb, tol=tol, find_all=True, improving_only=False)
    assert [(a.player, a.deviation_cost, tuple(a.edge_ids)) for a in fast_all] == [
        (b.player, b.deviation_cost, tuple(b.edge_ids)) for b in slow_all
    ]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_tree_binding_parity(seed):
    rng = np.random.default_rng(seed)
    g = random_tree_plus_chords(30 + 5 * seed, 15, seed=seed, chord_factor=1.1)
    state = BroadcastGame(g, root=0).mst_state()
    engine = BestResponseEngine.for_graph(g)
    binding = engine.bind(state)
    _assert_scans_equal(binding, engine, None)
    for _ in range(3):
        _assert_scans_equal(binding, engine, _random_subsidies(g, rng))
    # At the LP(3) optimum several Lemma 2 constraints are tight: the
    # certificate must still agree with the per-player reference.
    opt = solve_sne_broadcast_lp3(state).subsidies
    _assert_scans_equal(binding, engine, opt)
    before = engine.stats.snapshot()
    assert binding.scan(engine.net_weights(engine.subsidy_vector(opt)), tol=LP_TOL) == []
    delta = engine.stats.delta(before)
    assert delta["dijkstra_calls"] == 0 and delta["players_batched"] > 0


def _lca_walk(binding, uid, vid, e_uv):
    """Edge ids the Lemma 2 walk adds on each side, in its order."""
    depth, parent_nid, parent_eid = binding.depth, binding.parent_nid, binding.parent_eid
    x, y = uid, vid
    lhs, rhs = [], []
    while depth[x] > depth[y]:
        lhs.append(parent_eid[x])
        x = parent_nid[x]
    while depth[y] > depth[x]:
        rhs.append(parent_eid[y])
        y = parent_nid[y]
    while x != y:
        lhs.append(parent_eid[x])
        x = parent_nid[x]
        rhs.append(parent_eid[y])
        y = parent_nid[y]
    return lhs, rhs


def _lemma2_walk_reference(binding, wb):
    """The certificate as one scalar walk per incidence (the reference)."""
    wb_l = wb.tolist()
    usage_l = binding.usage.tolist()
    for uid, vid, e_uv in binding._incidences:
        up, down = _lca_walk(binding, uid, vid, e_uv)
        lhs = 0.0
        for e in up:
            lhs += wb_l[e] / usage_l[e]
        rhs = wb_l[e_uv]
        for e in down:
            rhs += wb_l[e] / (usage_l[e] + 1)
        if lhs > rhs + 1e-12 * max(1.0, lhs, abs(rhs)):
            return False
    return True


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_lemma2_certificate_matches_the_walk(seed):
    """The blocked cumsum adds the walk's terms in the walk's order."""
    rng = np.random.default_rng(seed)
    g = random_tree_plus_chords(30 + 5 * seed, 15 + 10 * seed, seed=seed, chord_factor=1.1)
    state = BroadcastGame(g, root=0).mst_state()
    engine = BestResponseEngine.for_graph(g)
    binding = engine.bind(state)
    m = engine.num_edges
    rows = {}
    for lhs_slots, rhs_slots, ids in binding._lemma2_blocks(binding._incidences):
        for row, (up, down) in zip(ids.tolist(), zip(lhs_slots.tolist(), rhs_slots.tolist())):
            up = [k for k in up if k != 3 * m]
            down = [k for k in down if k != 3 * m]
            rows[row] = (tuple(up), down[0] - 2 * m, tuple(k - m for k in down[1:]))
    walks = {}
    for k, (uid, vid, e_uv) in enumerate(binding._incidences):
        up, down = _lca_walk(binding, uid, vid, e_uv)
        walks[k] = (tuple(up), e_uv, tuple(down))
    assert rows == walks

    opt = engine.net_weights(engine.subsidy_vector(solve_sne_broadcast_lp3(state).subsidies))
    cases = [engine.net_weights(np.zeros(m)), opt]
    cases += [engine.net_weights(engine.subsidy_vector(_random_subsidies(g, rng))) for _ in range(5)]
    # nudge single edges of the optimum across the certificate's slack
    for e in rng.choice(m, size=8, replace=False).tolist():
        for k in (-3, -1, 1, 3):
            wb = opt.copy()
            wb[e] *= 1.0 + k * 1e-12
            cases.append(wb)
    seen = {_lemma2_walk_reference(binding, wb) for wb in cases}
    assert seen == {True, False}
    for wb in cases:
        assert binding._lemma2_certified(wb) == _lemma2_walk_reference(binding, wb)


def test_lemma2_certificate_builds_chunks_on_first_use():
    """A pass that meets a violation stops building where it stops checking."""
    g = random_tree_plus_chords(400, 1400, seed=5, chord_factor=1.1)
    state = BroadcastGame(g, root=0).mst_state()
    engine = BestResponseEngine.for_graph(g)
    binding = engine.bind(state)
    chunk = engine_module._CERT_CHUNK
    assert len(binding._incidences) > 2 * chunk
    wb = engine.net_weights(np.zeros(engine.num_edges))
    # the first incidence whose own constraint fails, by the scalar walk
    first_bad = next(
        k
        for k, inc in enumerate(binding._incidences)
        if not _lemma2_walk_reference(_one_incidence(binding, inc), wb)
    )
    assert binding._lemma2_certified(wb) is False
    assert len(binding._cert_chunks) == first_bad // chunk + 1
    opt = engine.net_weights(engine.subsidy_vector(solve_sne_broadcast_lp3(state).subsidies))
    assert binding._lemma2_certified(opt) is True
    assert len(binding._cert_chunks) == -(-len(binding._incidences) // chunk)


class _one_incidence:
    """A binding view holding a single incidence (for the scalar walk)."""

    def __init__(self, binding, incidence):
        self.depth, self.parent_nid = binding.depth, binding.parent_nid
        self.parent_eid, self.usage = binding.parent_eid, binding.usage
        self._incidences = [incidence]


@pytest.mark.parametrize("family", ["multicast", "general", "weighted", "directed"])
def test_path_binding_parity(family):
    rng = np.random.default_rng(hash(family) % 2**32)
    g = random_tree_plus_chords(24, 12, seed=11, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    if family == "multicast":
        game = MulticastGame(g, 0, others[:8])
        state = game.default_state()
    elif family == "general":
        game = NetworkDesignGame(g, [(u, 0) for u in others[:8]])
        state = game.shortest_path_state()
    elif family == "weighted":
        demands = [1.0 + (i % 4) * 0.5 for i in range(8)]
        game = WeightedNetworkDesignGame(g, [(u, 0) for u in others[:8]], demands)
        state = game.shortest_path_state()
    else:
        game = DirectedNetworkDesignGame(g, [(u, 0) for u in others[:8]])
        state = game.shortest_path_state()
    engine = BestResponseEngine.for_graph(g)
    binding = engine.bind(state)
    _assert_scans_equal(binding, engine, None)
    for _ in range(3):
        _assert_scans_equal(binding, engine, _random_subsidies(g, rng))


def test_oracle_stats_counters():
    stats = OracleStats()
    snap = stats.snapshot()
    stats.dijkstra_calls += 3
    stats.warm_start_hits += 1
    assert stats.delta(snap) == {
        "dijkstra_calls": 3,
        "players_batched": 0,
        "cut_rounds": 0,
        "warm_start_hits": 1,
    }
    assert set(stats.as_dict()) == set(OracleStats._FIELDS)


def test_dijkstra_workspace_matches_fresh_arrays():
    g = random_tree_plus_chords(40, 20, seed=9, chord_factor=1.2)
    ig = g.to_indexed()
    ws = DijkstraWorkspace(ig.num_nodes)
    rng = np.random.default_rng(0)
    for trial in range(12):
        src = int(rng.integers(ig.num_nodes))
        target = int(rng.integers(ig.num_nodes)) if trial % 2 else -1
        bound = float(rng.random() * 4) if trial % 3 else float("inf")
        costs = rng.random(ig.num_edges) + 0.01
        d0, p0, pe0 = dijkstra_indexed(ig, src, costs, target=target, bound=bound)
        d1, p1, pe1 = dijkstra_indexed(
            ig, src, costs, target=target, bound=bound, workspace=ws
        )
        assert d0 == d1 and p0 == p1 and pe0 == pe1


def test_dijkstra_workspace_size_mismatch():
    g = random_tree_plus_chords(10, 4, seed=1, chord_factor=1.1)
    ig = g.to_indexed()
    with pytest.raises(ValueError):
        dijkstra_indexed(ig, 0, workspace=DijkstraWorkspace(ig.num_nodes + 1))


def test_arc_slots_of_edge():
    g = random_tree_plus_chords(15, 8, seed=2, chord_factor=1.1)
    ig = g.to_indexed()
    slots = ig.arc_slots_of_edge
    assert slots is ig.arc_slots_of_edge  # cached
    assert sorted(k for ks in slots for k in ks) == list(range(2 * ig.num_edges))
    for e, ks in enumerate(slots):
        assert len(ks) == 2
        for k in ks:
            assert ig._adj_edge_list[k] == e


def test_engine_profile_incremental_arc_costs():
    """Dynamics on the incrementally-maintained arc list match a rebuild."""
    g = random_tree_plus_chords(20, 10, seed=4, chord_factor=1.1)
    game = BroadcastGame(g, root=0).to_network_design_game()
    state = game.shortest_path_state()
    engine = BestResponseEngine.for_graph(g)
    wb = engine.net_weights(engine.subsidy_vector(None))
    profile = EngineProfile(engine, state, wb)
    assert profile.stats is engine.stats
    rng = np.random.default_rng(3)
    for _ in range(15):
        pos = int(rng.integers(game.n_players))
        rec = profile.best_response(pos)
        profile.apply(rec.position, rec.node_ids, rec.edge_ids)
        # the maintained arc list must equal a from-scratch expansion
        expected = (profile.wb / (profile.usage + 1.0))[engine.ig.adj_edge]
        assert np.allclose(profile._arc_base, expected, rtol=0, atol=0)
        assert profile._usage_l == profile.usage.tolist()
