"""The game-family layer: rules, downgrades, engine bindings, acceptance.

The acceptance matrix at the bottom is the PR's contract: every registered
subsidy solver solves at least one instance from each game family through
``repro.api.solve``, with JSON-stable reports.
"""

import json

import pytest

from repro import api
from repro.games import (
    GAME_FAMILIES,
    BroadcastGame,
    DirectedNetworkDesignGame,
    FairSharing,
    FamilyCoercionError,
    MulticastGame,
    NetworkDesignGame,
    PerEdgeSplit,
    ProportionalSharing,
    WeightedNetworkDesignGame,
    check_equilibrium,
    check_weighted_equilibrium,
    family_of,
    rule_from_json,
    solve_weighted_sne,
    to_broadcast,
    to_general,
)
from repro.games.equilibrium import check_equilibrium_legacy
from repro.graphs.generators import random_tree_plus_chords
from repro.graphs.graph import Graph


@pytest.fixture
def graph():
    return Graph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 1.3), (0, 3, 1.6)]
    )


def _family_zoo(graph):
    """One instance per family, all inside the broadcast overlap."""
    others = [u for u in graph.nodes if u != 0]
    pairs = [(u, 0) for u in others]
    return {
        "broadcast": BroadcastGame(graph, 0),
        "multicast": MulticastGame(graph, 0, others),
        "general": NetworkDesignGame(graph, pairs),
        "weighted": WeightedNetworkDesignGame(graph, pairs, [1.0] * len(pairs)),
        "directed": DirectedNetworkDesignGame(graph, pairs),
    }


class TestFamilyContract:
    def test_family_of(self, graph):
        for name, game in _family_zoo(graph).items():
            assert family_of(game) == name
            assert name in GAME_FAMILIES

    def test_family_of_rejects_strangers(self):
        with pytest.raises(TypeError, match="not a registered game family"):
            family_of(object())

    def test_every_family_has_default_state_and_rule(self, graph):
        for game in _family_zoo(graph).values():
            state = game.default_state()
            assert state is not None
            assert game.cost_sharing is not None


class TestCostSharingRules:
    def test_fair_is_unit(self):
        rule = FairSharing()
        assert rule.weight_on(0, (0, 1)) == 1.0
        assert rule == FairSharing()

    def test_proportional_tracks_demands(self):
        rule = ProportionalSharing([1.0, 2.5])
        assert rule.weight_on(1, (0, 1)) == 2.5
        with pytest.raises(ValueError, match="positive"):
            ProportionalSharing([1.0, 0.0])

    def test_per_edge_split_table_and_base(self):
        rule = PerEdgeSplit({(0, 1): (1.0, 3.0)}, n_players=2, base=2.0)
        assert rule.weight_on(1, (1, 0)) == 3.0  # canonicalized lookup
        assert rule.weight_on(1, (1, 2)) == 2.0  # base fallback
        with pytest.raises(ValueError, match="expected 2 contributions"):
            PerEdgeSplit({(0, 1): (1.0,)}, n_players=2)

    def test_per_edge_split_json_is_insertion_order_independent(self):
        # Equal rules must serialize byte-identically: the sweep cache
        # content-addresses instance JSON.
        a = PerEdgeSplit({(0, 1): (1.0, 2.0), (1, 2): (2.0, 1.0)}, 2)
        b = PerEdgeSplit({(1, 2): (2.0, 1.0), (0, 1): (1.0, 2.0)}, 2)
        assert a == b
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_rule_json_round_trips(self):
        for rule in (
            FairSharing(),
            ProportionalSharing([1.0, 2.0, 3.5]),
            PerEdgeSplit({(0, 1): (1.0, 2.0)}, n_players=2, base=(1.5, 2.5)),
        ):
            assert rule_from_json(rule.to_json()) == rule

    def test_per_edge_split_prices_shares(self, graph):
        # Edge (0,1) splits 1:5 — the favoured player pays 1/6 of it.
        rule = PerEdgeSplit({(0, 1): (1.0, 5.0)}, n_players=2)
        game = WeightedNetworkDesignGame(
            graph, [(1, 0), (1, 0)], [1.0, 1.0], cost_sharing=rule
        )
        state = game.state([[1, 0], [1, 0]])
        assert state.player_cost(0) == pytest.approx(1.0 / 6.0)
        assert state.player_cost(1) == pytest.approx(5.0 / 6.0)


class TestDowngrades:
    def test_overlap_instances_downgrade(self, graph):
        zoo = _family_zoo(graph)
        for name, game in zoo.items():
            bg = to_broadcast(game)
            assert isinstance(bg, BroadcastGame)
            nd = to_general(game)
            assert isinstance(nd, NetworkDesignGame)
            assert nd.n_players == len(graph.nodes) - 1

    def test_weighted_nonuniform_demands_refused(self, graph):
        game = WeightedNetworkDesignGame(graph, [(1, 0), (2, 0)], [1.0, 2.0])
        with pytest.raises(FamilyCoercionError, match="uniform demands"):
            to_general(game)

    def test_directed_asymmetric_refused(self, graph):
        game = DirectedNetworkDesignGame(
            graph, [(1, 0)], arcs=[(1, 0), (0, 2), (2, 0)]
        )
        with pytest.raises(FamilyCoercionError, match="one-way"):
            to_general(game)

    def test_directed_fully_closed_edge_refused(self, graph):
        # Edge (0, 3) has no arcs at all: unusable here, traversable in the
        # undirected relaxation — outside the overlap.
        arcs = [
            a
            for u, v, _ in graph.edges()
            if (u, v) != (0, 3)
            for a in ((u, v), (v, u))
        ]
        game = DirectedNetworkDesignGame(graph, [(1, 0)], arcs)
        assert not game.is_symmetric()
        with pytest.raises(FamilyCoercionError, match="fully-closed"):
            to_general(game)

    def test_multicast_partial_coverage_refused(self, graph):
        game = MulticastGame(graph, 0, [1, 3])
        with pytest.raises(FamilyCoercionError, match="cover every non-root"):
            to_broadcast(game)

    def test_general_wrong_shape_refused(self, graph):
        game = NetworkDesignGame(graph, [(1, 0), (2, 3)])
        with pytest.raises(FamilyCoercionError, match="destination"):
            to_broadcast(game)


class TestWeightedEngineParity:
    def test_engine_matches_legacy_on_random_instances(self):
        for seed in range(6):
            g = random_tree_plus_chords(10, 5, seed=seed, chord_factor=1.05)
            others = [u for u in g.nodes if u != 0]
            demands = [1.0 + (i % 3) for i in range(len(others))]
            game = WeightedNetworkDesignGame(g, [(u, 0) for u in others], demands)
            state = game.shortest_path_state()
            assert check_weighted_equilibrium(state) == (
                check_equilibrium_legacy(state).is_equilibrium
            )
            sub, cost = solve_weighted_sne(state)
            assert sub is not None and cost < float("inf")
            assert check_weighted_equilibrium(state, sub, tol=1e-6)
            assert check_equilibrium_legacy(state, sub, tol=1e-6).is_equilibrium

    def test_heavier_demand_raises_subsidy_bill(self):
        g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
        costs = []
        for demands in ((1.0, 1.0), (1.0, 3.0), (1.0, 9.0)):
            game = WeightedNetworkDesignGame(g, [(1, 0), (1, 0)], demands)
            state = game.state([[1, 0], [1, 0]])
            costs.append(solve_weighted_sne(state)[1])
        assert costs == sorted(costs)

    def test_verify_false_skips_recheck(self):
        g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
        game = WeightedNetworkDesignGame(g, [(1, 0), (1, 0)], (1.0, 2.0))
        state = game.state([[1, 0], [1, 0]])
        sub, cost = solve_weighted_sne(state, verify=False)
        assert sub is not None
        assert cost == pytest.approx(solve_weighted_sne(state)[1])


class TestDirectedGames:
    def test_state_rejects_against_arc_paths(self, graph):
        game = DirectedNetworkDesignGame(
            graph, [(1, 0)], arcs=[(2, 1), (3, 2), (0, 3), (1, 0)]
        )
        with pytest.raises(ValueError, match="against the arc"):
            game.state([[1, 2, 3, 0]])  # every hop runs against its arc

    def test_shortest_path_respects_arcs(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
        game = DirectedNetworkDesignGame(
            g, [(2, 0)], arcs=[(2, 0), (0, 2), (0, 1), (1, 2)]
        )
        # 2->1->0 is cheap but (2,1) and (1,0) are one-way the other way.
        state = game.shortest_path_state()
        assert state.node_paths[0] == (2, 0)

    def test_equilibrium_check_honours_arcs(self):
        # The cheap return path exists but may not be traversed, so the
        # expensive direct edge is an equilibrium in the directed game and
        # not in its symmetric relaxation.
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
        directed = DirectedNetworkDesignGame(
            g, [(2, 0)], arcs=[(2, 0), (0, 2), (0, 1), (1, 2)]
        )
        sym = NetworkDesignGame(g, [(2, 0)])
        d_state = directed.state([[2, 0]])
        s_state = sym.state([[2, 0]])
        assert check_equilibrium(d_state).is_equilibrium
        assert not check_equilibrium(s_state).is_equilibrium

    def test_dynamics_run_on_directed_and_reject_weighted(self):
        from repro.games.dynamics import best_response_dynamics

        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.5)])
        dg = DirectedNetworkDesignGame(g, [(1, 0), (2, 0)])
        result = best_response_dynamics(dg.shortest_path_state())
        assert result.converged
        assert check_equilibrium(result.final_state).is_equilibrium
        wg = WeightedNetworkDesignGame(g, [(1, 0), (2, 0)], [1.0, 2.0])
        with pytest.raises(TypeError, match="fair-sharing"):
            best_response_dynamics(wg.shortest_path_state())

    def test_symmetric_directed_matches_general_engine_and_legacy(self):
        for seed in range(4):
            g = random_tree_plus_chords(9, 4, seed=seed)
            others = [u for u in g.nodes if u != 0]
            directed = DirectedNetworkDesignGame(g, [(u, 0) for u in others])
            general = NetworkDesignGame(g, [(u, 0) for u in others])
            d_state = directed.shortest_path_state()
            g_state = general.state([list(p) for p in d_state.node_paths])
            verdict = check_equilibrium(d_state).is_equilibrium
            assert verdict == check_equilibrium(g_state).is_equilibrium
            assert verdict == check_equilibrium_legacy(g_state).is_equilibrium


class TestSerializationAcrossFamilies:
    def test_game_json_round_trips_all_families(self, graph):
        zoo = _family_zoo(graph)
        zoo["multicast-half"] = MulticastGame(graph, 0, [1, 3])
        zoo["weighted-rand"] = WeightedNetworkDesignGame(
            graph, [(1, 0), (2, 0)], [1.0, 2.5]
        )
        zoo["directed-oneway"] = DirectedNetworkDesignGame(
            graph, [(1, 0)], arcs=[(1, 0), (0, 1), (1, 2)]
        )
        zoo["per-edge"] = WeightedNetworkDesignGame(
            graph,
            [(1, 0), (2, 0)],
            [1.0, 1.0],
            cost_sharing=PerEdgeSplit({(0, 1): (1.0, 2.0)}, n_players=2),
        )
        for name, game in zoo.items():
            payload = api.serialize.game_to_json(game)
            text = json.dumps(payload, sort_keys=True)
            back = api.serialize.game_from_json(json.loads(text))
            assert type(back) is type(game), name
            assert (
                json.dumps(api.serialize.game_to_json(back), sort_keys=True) == text
            ), name

    def test_explicit_fair_rule_survives_round_trip(self, graph):
        # Fair sharing with non-unit demands is NOT proportional sharing;
        # the JSON round trip must preserve the rule and hence the costs.
        game = WeightedNetworkDesignGame(
            graph, [(1, 0), (1, 0)], [2.0, 5.0], cost_sharing=FairSharing()
        )
        clone = api.serialize.game_from_json(api.serialize.game_to_json(game))
        assert isinstance(clone.cost_sharing, FairSharing)
        paths = [[1, 0], [1, 0]]
        for i in (0, 1):
            assert clone.state(paths).player_cost(i) == game.state(paths).player_cost(i)

    def test_loads_dispatches_new_kinds(self, graph):
        for game in _family_zoo(graph).values():
            text = api.serialize.dumps(game)
            back = api.serialize.loads(text)
            assert api.serialize.dumps(back) == text


class TestSolverFamilyAcceptance:
    """Every registered solver x every game family: solve + JSON stability."""

    @pytest.mark.parametrize("family", GAME_FAMILIES)
    def test_every_solver_serves_every_family(self, family):
        g = random_tree_plus_chords(8, 4, seed=3)
        others = [u for u in g.nodes if u != 0]
        pairs = [(u, 0) for u in others]
        overlap = {
            "broadcast": BroadcastGame(g, 0),
            "multicast": MulticastGame(g, 0, others),
            "general": NetworkDesignGame(g, pairs),
            "weighted": WeightedNetworkDesignGame(g, pairs, [1.0] * len(pairs)),
            "directed": DirectedNetworkDesignGame(g, pairs),
        }[family]
        for spec in api.list_solvers():
            report = api.solve(overlap, solver=spec.name)
            assert report.feasible, (family, spec.name)
            payload = api.serialize.report_to_json(report)
            text = json.dumps(payload, sort_keys=True)
            back = api.serialize.report_from_json(json.loads(text))
            assert back == report
            assert json.dumps(api.serialize.report_to_json(back), sort_keys=True) == text

    def test_general_solvers_serve_non_overlap_instances(self):
        g = random_tree_plus_chords(8, 4, seed=5)
        others = [u for u in g.nodes if u != 0]
        pairs = [(u, 0) for u in others]
        genuinely = [
            MulticastGame(g, 0, others[:3]),
            WeightedNetworkDesignGame(
                g, pairs, [1.0 + 0.5 * i for i in range(len(pairs))]
            ),
        ]
        for game in genuinely:
            for solver in ("sne-cutting-plane", "sne-poly"):
                report = api.solve(game, solver=solver)
                assert report.feasible and report.verified, (family_of(game), solver)

    def test_lp1_lp2_agree_on_weighted_instances(self):
        g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
        game = WeightedNetworkDesignGame(g, [(1, 0), (1, 0)], (1.0, 3.0))
        state = game.state([[1, 0], [1, 0]])
        r1 = api.solve(state, solver="sne-cutting-plane")
        r2 = api.solve(state, solver="sne-poly")
        assert r1.budget_used == pytest.approx(r2.budget_used, abs=1e-6)
        assert r1.verified and r2.verified
