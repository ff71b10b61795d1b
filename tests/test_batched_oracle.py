"""Batched separation oracle: pinned scan records and the label reference.

The batched scan skips searches only when their outcome is provably
decided — a Lemma 2 incidence certificate for broadcast trees, a shared
reverse-search lower bound for shared-target groups — so every record it
returns (players, costs, deviation paths, ordering, early-exit behavior)
must stay fixed.  The SHA-256 digests below pin those records (float costs
as ``float.hex``) on random instances of every game family under random
subsidy vectors and at the LP optimum (where certificate constraints sit
exactly on their boundaries); they were computed when the records still
equalled a second, per-player reference scan record for record.  The
dict-based :func:`~repro.games.equilibrium.check_equilibrium_legacy`
cross-checks the same draws, and asymmetric directed and weighted
scenario states up to their LP (1) optimum.

To print the digests after a deliberate change, run this file as a
script::

    PYTHONPATH=src python tests/test_batched_oracle.py
"""

import hashlib

import numpy as np
import pytest

from repro.games.broadcast import BroadcastGame
from repro.games.directed import DirectedNetworkDesignGame
from repro.games import engine as engine_module
from repro.games.engine import BestResponseEngine, EngineProfile, OracleStats
from repro.games.equilibrium import (
    best_response,
    check_equilibrium,
    check_equilibrium_legacy,
)
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.core import DijkstraWorkspace, dijkstra_indexed
from repro.graphs import Graph
from repro.graphs.generators import random_tree_plus_chords
from repro.scenarios import build_scenario
from repro.subsidies.sne_lp import solve_sne_broadcast_lp3, solve_sne_cutting_plane_lp1
from repro.utils.tolerances import LP_TOL

#: (find_all, improving_only) modes every draw is scanned in
SCAN_MODES = ((False, True), (True, True), (True, False))

PATH_FAMILIES = ("multicast", "general", "weighted", "directed")


def _random_subsidies(graph, rng, density=0.4):
    subs = {}
    for u, v, w in graph.edges():
        if rng.random() < density:
            subs[(min(u, v), max(u, v))] = float(rng.random() * w)
    return subs


def _tree_case(seed):
    """A broadcast MST state and its subsidy draws: none, 3 random, LP (3) optimum."""
    rng = np.random.default_rng(seed)
    g = random_tree_plus_chords(30 + 5 * seed, 15, seed=seed, chord_factor=1.1)
    state = BroadcastGame(g, root=0).mst_state()
    draws = [None] + [_random_subsidies(g, rng) for _ in range(3)]
    # At the LP(3) optimum several Lemma 2 constraints are tight.
    draws.append(solve_sne_broadcast_lp3(state).subsidies)
    return state, draws


def _path_case(family):
    """A path-family state on one graph and its subsidy draws: none, 3 random."""
    rng = np.random.default_rng(PATH_FAMILIES.index(family) + 101)
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
    return state, [None] + [_random_subsidies(g, rng) for _ in range(3)]


def _scan_digest(state, draws, tol=LP_TOL):
    """SHA-256 over the scan records of every draw in every mode."""
    engine = BestResponseEngine.for_graph(state.game.graph)
    binding = engine.bind(state)
    h = hashlib.sha256()
    for subsidies in draws:
        wb = engine.net_weights(engine.subsidy_vector(subsidies))
        for find_all, improving_only in SCAN_MODES:
            recs = binding.scan(
                wb, tol=tol, find_all=find_all, improving_only=improving_only
            )
            for rec in recs:
                h.update(
                    f"{rec.player} {rec.position} {float(rec.current_cost).hex()} "
                    f"{float(rec.deviation_cost).hex()} {rec.node_ids} "
                    f"{rec.edge_ids}\n".encode()
                )
            h.update(b"--\n")
    return h.hexdigest()


SCAN_DIGESTS = {
    "directed": "df3a85ed25b4a662731d5d314095024babc04c2e241a5c1e62ff74b40743f2f1",
    "general": "bb288164129e81f502feffafe7ef561db5d4ff1e5f2b72af9b45d4b9028c0865",
    "multicast": "2591a0b1724eeac99f14ecab2c632786ba06dfc078c7d30df001611373a8306a",
    "tree-1": "8a8bdf73629efa03ffbf785d2fe3501bfe123b373d07a5fffc2f5de20493687c",
    "tree-2": "0bf3bb3d473e1206c20bf89855dba661d32ccb8b8852edc8ceef857c7ece93d4",
    "tree-3": "7c6d53468e258c04fb72c9cf6a16c3e7568802a9087f95e8e5715f0de6e1764a",
    "tree-4": "fec67953cb959911a065adc0f30eec967d97eef9b0b8a6ab5b57c376aa7f30bb",
    "weighted": "a70a4642b2f56a2b5dc240d462dbca1a86f7a72946598a7d806083a96ef63a70",
}


def test_every_case_is_pinned():
    assert set(SCAN_DIGESTS) == {f"tree-{s}" for s in (1, 2, 3, 4)} | set(PATH_FAMILIES)


def _assert_matches_reference(state, subsidies, tol=LP_TOL):
    """The engine check equals the dict-based label oracle, player by player."""
    a = check_equilibrium(state, subsidies, tol=tol, find_all=True)
    b = check_equilibrium_legacy(state, subsidies, tol=tol, find_all=True)
    assert a.is_equilibrium == b.is_equilibrium
    assert [d.player for d in a.deviations] == [d.player for d in b.deviations]
    for da, db in zip(a.deviations, b.deviations):
        assert da.current_cost == pytest.approx(db.current_cost, rel=1e-12, abs=1e-12)
        assert da.deviation_cost == pytest.approx(db.deviation_cost, rel=1e-12, abs=1e-12)
    return a


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_tree_binding_parity(seed):
    state, draws = _tree_case(seed)
    assert _scan_digest(state, draws) == SCAN_DIGESTS[f"tree-{seed}"]
    for subsidies in draws:
        _assert_matches_reference(state, subsidies)
    # at the LP (3) optimum the Lemma 2 certificate skips every search
    engine = BestResponseEngine.for_graph(state.game.graph)
    binding = engine.bind(state)
    before = engine.stats.snapshot()
    assert binding.scan(engine.net_weights(engine.subsidy_vector(draws[-1])), tol=LP_TOL) == []
    delta = engine.stats.delta(before)
    assert delta["dijkstra_calls"] == 0 and delta["players_batched"] > 0


@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_path_binding_parity(family):
    state, draws = _path_case(family)
    assert _scan_digest(state, draws) == SCAN_DIGESTS[family]
    for subsidies in draws:
        _assert_matches_reference(state, subsidies)


#: (game family, wrapper params): one-way chords make directed states
#: asymmetric, random demands make weighted shares non-uniform
RULE_FAMILIES = (
    ("directed", {"orientation": "oneway-chords"}),
    ("weighted", {"demands": "random"}),
)


@pytest.mark.parametrize("topology", ["grid", "power-law", "augmented-cube"])
@pytest.mark.parametrize("family,params", RULE_FAMILIES, ids=[f for f, _ in RULE_FAMILIES])
def test_label_reference_equals_engine_on_rule_families(topology, family, params):
    """Asymmetric directed and weighted states, at b = 0, random subsidies
    and the LP (1) optimum."""
    deviating = 0
    for seed in (0, 1, 2):
        game = build_scenario(topology, n=16, seed=seed, game=family, **params)
        state = game.default_state()
        rng = np.random.default_rng(seed)
        draws = [None] + [_random_subsidies(game.graph, rng) for _ in range(3)]
        opt = solve_sne_cutting_plane_lp1(state)
        assert opt.feasible and opt.verified
        draws.append(opt.subsidies)
        for subsidies in draws:
            deviating += len(_assert_matches_reference(state, subsidies).deviations)
        # at the LP (1) optimum the reference agrees that the state is stable
        assert check_equilibrium_legacy(state, opt.subsidies, tol=LP_TOL).is_equilibrium
    assert deviating > 0  # the matrix reaches the deviation branch


def test_directed_reference_honours_arc_directions():
    """Going 2 -> 1 -> 0 (cost 2) would beat the direct edge (cost 10),
    but only 0 -> 1 -> 2 is open, so player 0 is stable."""
    g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
    game = DirectedNetworkDesignGame(g, [(2, 0)], arcs=[(2, 0), (0, 2), (0, 1), (1, 2)])
    state = game.state([[2, 0]])
    assert check_equilibrium(state).is_equilibrium
    assert check_equilibrium_legacy(state).is_equilibrium
    dev = best_response(state, 0)
    assert dev.path_nodes == [2, 0] and dev.deviation_cost == 10.0


def test_weighted_reference_prices_by_demand():
    """Weighted states have loads, not edge sets: the reference reads them."""
    g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
    game = WeightedNetworkDesignGame(g, [(1, 0), (1, 0)], [1.0, 9.0])
    state = game.state([[1, 0], [1, 0]])
    report = _assert_matches_reference(state, None)
    assert not report.is_equilibrium
    assert [d.player for d in report.deviations] == [1]
    # player 1 pays 9/10 of 4.0; joining the bypass alone costs 2.2
    assert report.deviations[0].current_cost == pytest.approx(3.6)
    assert report.deviations[0].deviation_cost == pytest.approx(2.2)
    # player 0's own share (4.0 / 10) is already below the bypass
    stay = best_response(state, 0)
    assert stay.path_nodes == [1, 0] and stay.deviation_cost == pytest.approx(0.4)


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


if __name__ == "__main__":
    for seed in (1, 2, 3, 4):
        print(f"    'tree-{seed}': {_scan_digest(*_tree_case(seed))!r},")
    for family in PATH_FAMILIES:
        print(f"    {family!r}: {_scan_digest(*_path_case(family))!r},")
