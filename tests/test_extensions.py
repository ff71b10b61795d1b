"""Tests for the Section 6 extensions: multicast, weighted, coalitions,
combinatorial SNE."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds.instances import theorem11_cycle_instance
from repro.games import BroadcastGame, check_equilibrium
from repro.games.equilibrium import best_response
from repro.games.coalitions import check_strong_equilibrium
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import (
    WeightedNetworkDesignGame,
    check_weighted_equilibrium,
    solve_weighted_sne,
)
from repro.graphs import Graph
from repro.graphs.generators import random_connected_gnp, random_tree_plus_chords
from repro.graphs.steiner import steiner_tree
from repro.subsidies import solve_sne_broadcast_lp3, solve_sne_cutting_plane_lp1
from repro.subsidies.combinatorial import combinatorial_sne, waterfill_player


class TestMulticast:
    def test_validation(self):
        g = Graph.from_edges([(0, 1, 1.0)])
        with pytest.raises(ValueError):
            MulticastGame(g, root=9, terminals=[1])
        with pytest.raises(ValueError):
            MulticastGame(g, root=0, terminals=[])
        with pytest.raises(ValueError):
            MulticastGame(g, root=0, terminals=[0])

    def test_optimal_design_is_steiner(self):
        # Terminals 1, 3 in a square + diagonal: optimum avoids the heavy edge.
        g = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (1, 3, 5.0)]
        )
        game = MulticastGame(g, root=0, terminals=[1, 3])
        edges, w = game.optimal_design()
        assert w == pytest.approx(2.0)
        assert set(edges) == {(0, 1), (0, 3)}

    def test_optimal_state_costs(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        game = MulticastGame(g, root=0, terminals=[2])
        state = game.optimal_state()
        assert state.social_cost() == pytest.approx(2.0)
        assert state.player_cost(0) == pytest.approx(2.0)

    def test_state_from_tree_missing_terminal(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        game = MulticastGame(g, root=0, terminals=[2])
        with pytest.raises(ValueError):
            game.state_from_tree([(0, 1)])

    def test_sne_on_steiner_optimum(self):
        g = random_connected_gnp(10, 0.35, seed=4)
        game = MulticastGame(g, root=0, terminals=[3, 7, 9])
        state = game.optimal_state()
        res = solve_sne_cutting_plane_lp1(state)
        assert res.feasible and res.verified

    def test_optimal_design_runs_the_dp_once_per_graph_version(self, monkeypatch):
        import repro.games.multicast as multicast

        calls = []

        def counting(graph, terminals):
            calls.append(list(terminals))
            return steiner_tree(graph, terminals)

        monkeypatch.setattr(multicast, "steiner_tree", counting)
        g = random_connected_gnp(10, 0.35, seed=4)
        game = MulticastGame(g, root=0, terminals=[3, 7, 9])
        edges, weight = game.optimal_design()
        assert game.default_state().established_edges() == game.optimal_state().established_edges()
        assert game.social_optimum() == weight
        assert len(calls) == 1
        # callers get copies: editing one leaves the cached design intact
        edges.clear()
        assert game.optimal_design()[0] and len(calls) == 1
        # a graph mutation invalidates the cache
        g.add_edge(3, 9, 1e-3)
        new_edges, new_weight = game.optimal_design()
        assert len(calls) == 2 and (3, 9) in new_edges and new_weight < weight
        game.social_optimum()
        assert len(calls) == 2

    def test_serve_interned_instance_runs_the_dp_once(self, monkeypatch):
        import repro.games.multicast as multicast
        from repro import api
        from repro.serve import ServeConfig, SolverService

        calls = []

        def counting(graph, terminals):
            calls.append(list(terminals))
            return steiner_tree(graph, terminals)

        monkeypatch.setattr(multicast, "steiner_tree", counting)
        game = MulticastGame(random_connected_gnp(10, 0.35, seed=4), root=0, terminals=[3, 7, 9])
        instance = api.serialize.game_to_json(game)
        service = SolverService(ServeConfig(cache=False))
        for solver in ("sne-lp1", "sne-lp2", "sne-lp1"):
            service.solve_json({"instance": instance, "solver": solver})
        assert len(calls) == 1

    def test_broadcast_special_case(self):
        g = random_connected_gnp(6, 0.6, seed=8)
        game = MulticastGame(g, root=0, terminals=[u for u in g.nodes if u != 0])
        bc = BroadcastGame(g, root=0)
        assert game.social_optimum() == pytest.approx(bc.mst_weight())


class TestWeighted:
    @pytest.fixture
    def shared_edge_game(self):
        g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
        return g

    def test_validation(self, shared_edge_game):
        with pytest.raises(ValueError):
            WeightedNetworkDesignGame(shared_edge_game, [(1, 0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedNetworkDesignGame(shared_edge_game, [(1, 0)], [0.0])
        with pytest.raises(ValueError):
            WeightedNetworkDesignGame(shared_edge_game, [(1, 1)], [1.0])

    def test_proportional_shares(self, shared_edge_game):
        game = WeightedNetworkDesignGame(shared_edge_game, [(1, 0), (1, 0)], [1.0, 3.0])
        state = game.state([[1, 0], [1, 0]])
        assert state.player_cost(0) == pytest.approx(1.0)
        assert state.player_cost(1) == pytest.approx(3.0)
        assert state.total_player_cost() == pytest.approx(state.social_cost())

    def test_unit_demands_match_unweighted(self):
        g = random_connected_gnp(7, 0.5, seed=2)
        bc = BroadcastGame(g, root=0)
        nd = bc.to_network_design_game()
        pairs = [(p.source, p.target) for p in nd.players]
        wgame = WeightedNetworkDesignGame(g, pairs, [1.0] * len(pairs))
        paths = bc.tree_state_to_paths(bc.mst_state())
        ustate = nd.state(paths)
        wstate = wgame.state(paths)
        for i in range(len(pairs)):
            assert wstate.player_cost(i) == pytest.approx(ustate.player_cost(i))
        assert check_weighted_equilibrium(wstate) == check_equilibrium(ustate).is_equilibrium

    def test_heavy_player_deviates_first(self, shared_edge_game):
        game = WeightedNetworkDesignGame(shared_edge_game, [(1, 0), (1, 0)], [1.0, 9.0])
        state = game.state([[1, 0], [1, 0]])
        light = best_response(state, 0).deviation_cost
        heavy = best_response(state, 1).deviation_cost
        # The heavy player's share (3.6) exceeds her bypass (2.2); the light
        # player's share (0.4) does not.
        assert heavy < state.player_cost(1) - 1e-9
        assert light >= state.player_cost(0) - 1e-9

    def test_weighted_sne_enforces(self, shared_edge_game):
        game = WeightedNetworkDesignGame(shared_edge_game, [(1, 0), (1, 0)], [1.0, 9.0])
        state = game.state([[1, 0], [1, 0]])
        assert not check_weighted_equilibrium(state)
        sub, cost = solve_weighted_sne(state)
        assert sub is not None and cost > 0
        assert check_weighted_equilibrium(state, sub, tol=1e-6)

    def test_subsidy_cost_grows_with_demand(self, shared_edge_game):
        costs = []
        for d in (1.0, 3.0, 9.0):
            game = WeightedNetworkDesignGame(shared_edge_game, [(1, 0), (1, 0)], [1.0, d])
            state = game.state([[1, 0], [1, 0]])
            _, cost = solve_weighted_sne(state)
            costs.append(cost)
        assert costs[0] == pytest.approx(0.0, abs=1e-8)
        assert costs[0] <= costs[1] <= costs[2]


class TestCoalitions:
    @pytest.fixture
    def gadget(self):
        g = Graph.from_edges(
            [(1, 0, 1.0), (2, 0, 1.0), (1, 3, 0.4), (2, 3, 0.4), (3, 0, 1.1)]
        )
        game = NetworkDesignGame(g, [(1, 0), (2, 0)])
        return game.state([[1, 0], [2, 0]])

    def test_nash_but_not_2_strong(self, gadget):
        assert check_equilibrium(gadget).is_equilibrium
        report = check_strong_equilibrium(gadget, max_coalition=2)
        assert not report.is_strong_equilibrium
        dev = report.deviation
        assert dev.members == (0, 1)
        assert all(g > 0 for g in dev.gains)

    def test_k1_equals_nash(self, gadget):
        report = check_strong_equilibrium(gadget, max_coalition=1)
        assert report.is_strong_equilibrium  # Nash holds

    def test_strong_state_passes(self):
        g = Graph.from_edges([(1, 0, 1.0), (2, 0, 1.0), (1, 2, 5.0)])
        game = NetworkDesignGame(g, [(1, 0), (2, 0)])
        state = game.state([[1, 0], [2, 0]])
        report = check_strong_equilibrium(state, max_coalition=2)
        assert report.is_strong_equilibrium
        assert report.coalitions_checked == 3  # {0}, {1}, {0,1}

    def test_subsidies_restore_strongness(self, gadget):
        # Fully subsidizing the direct edges kills the joint temptation.
        sub = {(0, 1): 1.0, (0, 2): 1.0}
        report = check_strong_equilibrium(gadget, max_coalition=2, subsidies=sub)
        assert report.is_strong_equilibrium


class TestCombinatorialSNE:
    def test_waterfill_single_player_exact(self):
        game, state = theorem11_cycle_instance(10)
        extra = waterfill_player(state, 10, target_cost=1.0)
        lp = solve_sne_broadcast_lp3(state)
        assert sum(extra.values()) == pytest.approx(lp.cost, abs=1e-9)

    def test_waterfill_noop_when_cheap_enough(self):
        game, state = theorem11_cycle_instance(6)
        assert waterfill_player(state, 1, target_cost=10.0) == {}

    def test_waterfill_unreachable_target(self):
        game, state = theorem11_cycle_instance(6)
        with pytest.raises(ValueError):
            waterfill_player(state, 6, target_cost=-1.0)

    def test_cycle_family_matches_lp(self):
        for n in (5, 11, 23):
            _, state = theorem11_cycle_instance(n)
            comb = combinatorial_sne(state)
            lp = solve_sne_broadcast_lp3(state)
            assert comb.verified and comb.converged
            assert comb.cost == pytest.approx(lp.cost, abs=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 10), st.integers(0, 10_000))
    def test_random_instances_upper_bound_lp(self, n, seed):
        g = random_tree_plus_chords(n, n // 2, seed=seed, chord_factor=1.1)
        game = BroadcastGame(g, root=0)
        state = game.mst_state()
        comb = combinatorial_sne(state)
        lp = solve_sne_broadcast_lp3(state)
        assert comb.verified
        assert comb.cost >= lp.cost - 1e-7
        # On these families water-filling has matched the LP exactly so far;
        # keep a loose factor so the test documents (not enforces) optimality.
        assert comb.cost <= max(lp.cost * 1.5, lp.cost + 0.5)

    def test_already_equilibrium(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
        game = BroadcastGame(g, root=0)
        comb = combinatorial_sne(game.mst_state())
        assert comb.cost == 0.0
        assert comb.iterations == 0
