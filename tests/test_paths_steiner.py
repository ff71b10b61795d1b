"""Tests for simple-path enumeration and the Steiner tree substrate."""

import hashlib
import json
import random
import re
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.games.base import to_broadcast
from repro.graphs import Graph
from repro.graphs.generators import complete_graph, cycle_graph, grid_graph, random_connected_gnp
from repro.games.multicast import MulticastGame
from repro.graphs import steiner as steiner_module
from repro.graphs.paths import count_simple_paths, enumerate_simple_paths
from repro.graphs.mst import kruskal_mst
from repro.graphs.steiner import _dreyfus_wagner, steiner_tree, steiner_tree_brute_force
from repro.graphs.unionfind import UnionFind
from repro.scenarios import build_scenario
from repro.serve import ServeConfig, ServeRequestError, SolverService


class TestSimplePaths:
    def test_path_graph_single(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert list(enumerate_simple_paths(g, 0, 2)) == [[0, 1, 2]]

    def test_cycle_two_paths(self):
        g = cycle_graph(5)
        paths = list(enumerate_simple_paths(g, 0, 2))
        assert sorted(paths) == [[0, 1, 2], [0, 4, 3, 2]]

    def test_trivial(self):
        g = Graph.from_edges([(0, 1, 1.0)])
        assert list(enumerate_simple_paths(g, 0, 0)) == [[0]]

    def test_missing_node(self):
        with pytest.raises(KeyError):
            list(enumerate_simple_paths(Graph(), 0, 1))

    def test_max_paths(self):
        g = complete_graph(6)
        assert len(list(enumerate_simple_paths(g, 0, 1, max_paths=7))) == 7

    def test_max_length(self):
        # In the 7-cycle, 0 -> 3 is 3 hops one way and 4 the other.
        g = cycle_graph(7)
        paths = list(enumerate_simple_paths(g, 0, 3, max_length=3))
        assert paths == [[0, 1, 2, 3]]
        both = list(enumerate_simple_paths(g, 0, 3, max_length=4))
        assert sorted(both) == [[0, 1, 2, 3], [0, 6, 5, 4, 3]]

    def test_count_complete_graph(self):
        # K4: paths 0->1: direct (1), via one other (2), via both (2) = 5.
        assert count_simple_paths(complete_graph(4), 0, 1) == 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 7), st.integers(0, 5000))
    def test_count_matches_networkx(self, n, seed):
        g = random_connected_gnp(n, 0.5, seed=seed)
        h = nx.Graph()
        for u, v, w in g.edges():
            h.add_edge(u, v)
        ours = count_simple_paths(g, 0, n - 1)
        theirs = sum(1 for _ in nx.all_simple_paths(h, 0, n - 1))
        assert ours == theirs


class TestSteiner:
    def test_two_terminals_is_shortest_path(self):
        g = grid_graph(3, 3)
        edges, w = steiner_tree(g, [0, 8])
        assert w == pytest.approx(4.0)
        assert len(edges) == 4

    def test_single_terminal(self):
        g = cycle_graph(4)
        assert steiner_tree(g, [2]) == ([], 0.0)

    def test_unknown_terminal(self):
        with pytest.raises(KeyError):
            steiner_tree(cycle_graph(4), [0, 99])

    def test_star_center_used(self):
        # Terminals on 3 leaves of a star: tree must pass through the hub.
        g = Graph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 5.0)])
        edges, w = steiner_tree(g, [1, 2, 3])
        assert w == pytest.approx(3.0)
        assert set(edges) == {(0, 1), (0, 2), (0, 3)}

    def test_tree_connects_terminals(self):
        g = random_connected_gnp(10, 0.4, seed=5)
        edges, _ = steiner_tree(g, [0, 4, 9])
        uf = UnionFind()
        for u, v in edges:
            uf.union(u, v)
        assert uf.connected(0, 4) and uf.connected(0, 9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(6, 9), st.integers(0, 5000))
    def test_matches_brute_force(self, n, seed):
        g = random_connected_gnp(n, 0.4, seed=seed)
        terminals = [0, n // 2, n - 1]
        _, w_dw = steiner_tree(g, terminals)
        _, w_bf = steiner_tree_brute_force(g, terminals)
        assert w_dw == pytest.approx(w_bf, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5000))
    def test_four_terminals_match_brute_force(self, seed):
        g = random_connected_gnp(8, 0.45, seed=seed)
        terminals = [0, 2, 5, 7]
        _, w_dw = steiner_tree(g, terminals)
        _, w_bf = steiner_tree_brute_force(g, terminals)
        assert w_dw == pytest.approx(w_bf, abs=1e-9)

    def test_all_nodes_terminals_gives_mst(self):
        g = random_connected_gnp(7, 0.5, seed=3)
        _, w = steiner_tree(g, g.nodes)
        assert w == pytest.approx(g.subset_weight(kruskal_mst(g)))


class TestSteinerArrays:
    """The array DP: exact weights, pinned ties, chunked layers, its checks."""

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_weight_equals_brute_force(self, n, k):
        for seed in range(3):
            g = random_connected_gnp(n, 0.4, seed=100 * n + 10 * k + seed)
            terminals = random.Random(seed).sample(range(n), k)
            _, w_dw = steiner_tree(g, terminals)
            _, w_bf = steiner_tree_brute_force(g, terminals)
            assert w_dw == pytest.approx(w_bf, abs=1e-9)

    def test_eleven_terminals_on_grid_24(self):
        """Pinned to the scalar DP's tree (SHA-256 of edges and weight bits)."""
        game = build_scenario("grid", n=24, seed=0, game="multicast", terminals="half")
        assert len(game.terminals) == 11
        edges, weight = steiner_tree(game.graph, [game.root, *game.terminals])
        digest = hashlib.sha256(json.dumps([edges, weight.hex()], default=int).encode())
        assert digest.hexdigest() == (
            "f3f8adeb79a662bdb10399d8f570118614d030cfa87adf88830fcc256cd91b77"
        )

    @pytest.mark.parametrize("name", ["grid", "augmented-cube", "power-law"])
    def test_chunked_layers_give_the_same_tree(self, name, monkeypatch):
        games = [build_scenario(name, n=20, seed=s, game="multicast", terminals="half")
                 for s in range(3)]
        whole = [steiner_tree(g.graph, [g.root, *g.terminals]) for g in games]
        monkeypatch.setattr(steiner_module, "_LAYER_ELEMENTS", 1)
        chunked = [steiner_tree(g.graph, [g.root, *g.terminals]) for g in games]
        assert chunked == whole

    def test_split_table_matches_the_submask_loop(self):
        for k in range(2, 8):
            for masks, subs in steiner_module._split_layers(k):
                for mask, row in zip(masks.tolist(), subs.tolist()):
                    expected, seen, sub = [], set(), (mask - 1) & mask
                    while sub > 0:
                        other = mask ^ sub
                        if sub not in seen and other not in seen:
                            seen.update((sub, other))
                            expected.append(sub)
                        sub = (sub - 1) & mask
                    assert row == expected

    def test_tree_heavier_than_the_dp_optimum_raises(self, monkeypatch):
        g = random_connected_gnp(9, 0.5, seed=2)
        monkeypatch.setattr(
            steiner_module, "_prune_to_terminals", lambda graph, edges, terms: graph.edge_set()
        )
        with pytest.raises(RuntimeError, match="exceeds the DP optimum"):
            steiner_tree(g, [0, 3, 6])


class TestSteinerUnreachable:
    """Terminals in different components: one ValueError naming them."""

    @staticmethod
    def _two_triangles():
        return Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.5)]
        )

    @pytest.mark.parametrize(
        "terminals,missing",
        [([0, 4], [4]), ([0, 1, 4], [4]), ([0, 1, 4, 5], [4, 5]), ([0, 1, 2, 3, 4, 5], [3, 4, 5])],
    )
    def test_value_error_names_the_unreachable_terminals(self, terminals, missing):
        with pytest.raises(ValueError, match=re.escape(f"terminals {missing!r}")):
            steiner_tree(self._two_triangles(), terminals)

    def test_api_solve_and_serve_answer_a_client_error(self):
        game = MulticastGame(self._two_triangles(), root=0, terminals=[1, 4, 5])
        with pytest.raises(ValueError, match="unreachable"):
            api.solve(game, "sne-lp1")
        service = SolverService(ServeConfig(cache=False))
        request = {"instance": api.serialize.game_to_json(game), "solver": "sne-lp1"}
        with pytest.raises(ServeRequestError, match="unreachable") as excinfo:
            service.solve_json(request)
        assert excinfo.value.status == 400


class TestSteinerAllTerminals:
    """Terminals covering every node take the MST instead of the DP."""

    @pytest.mark.parametrize("n,seed", [(5, 0), (7, 1), (9, 2), (10, 3), (11, 4)])
    def test_dp_and_mst_agree_on_unique_weights(self, n, seed):
        g = random_connected_gnp(n, 0.45, seed=seed)
        weights = [w for _u, _v, w in g.edges()]
        assert len(set(weights)) == len(weights)  # the MST is unique
        dp_edges, dp_weight = _dreyfus_wagner(g, list(g.nodes))
        edges, weight = steiner_tree(g, g.nodes)
        assert set(edges) == set(dp_edges) == set(kruskal_mst(g))
        assert weight == pytest.approx(dp_weight, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_equal_weight_on_tied_lower_bound_cycle(self, n):
        game = build_scenario("lower-bound-cycle", n=n, seed=0, game="multicast")
        terminals = [game.root, *game.terminals]
        _, dp_weight = _dreyfus_wagner(game.graph, terminals)
        _, weight = steiner_tree(game.graph, terminals)
        assert weight == pytest.approx(dp_weight, abs=1e-12)

    @pytest.mark.parametrize("name", ["grid", "lower-bound-cycle", "augmented-cube"])
    def test_multicast_target_is_the_broadcast_mst(self, name):
        game = build_scenario(name, n=16, seed=1, game="multicast")
        target = set(game.default_state().established_edges())
        assert target == set(to_broadcast(game).mst_state().edges)

    def test_n40_solves_quickly(self):
        game = build_scenario("grid", n=40, seed=2, game="multicast")
        t0 = time.perf_counter()
        report = api.solve(game, "sne-lp1")
        assert time.perf_counter() - t0 < 1.0
        assert report.verified
