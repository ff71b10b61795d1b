"""A1/A2 benchmark — ablations and the Section 6 extensions."""

import pytest

from repro.bounds.instances import theorem11_cycle_instance
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame, solve_weighted_sne
from repro.games.coalitions import check_strong_equilibrium
from repro.games.game import NetworkDesignGame
from repro.graphs import Graph
from repro.graphs.generators import random_connected_gnp
from repro.graphs.shortest_paths import dijkstra
from repro.graphs.steiner import steiner_tree
from repro.subsidies import solve_sne_broadcast_lp3
from repro.subsidies.combinatorial import combinatorial_sne


@pytest.mark.parametrize("k", [3, 5, 10])
def test_steiner_dreyfus_wagner(benchmark, k):
    g = random_connected_gnp(25, 0.2, seed=k)
    terminals = list(range(0, 2 * k, 2))
    edges, w = benchmark(steiner_tree, g, terminals)
    assert w > 0 and edges
    if k == 3:
        # The brute force over Steiner-point subsets: for three terminals
        # a minimum tree is three shortest paths meeting at one node, so
        # trying every node as the meeting point is exhaustive (the subset
        # enumeration of steiner_tree_brute_force would take 2^22 MSTs here).
        dists = [dijkstra(g, t)[0] for t in terminals]
        assert w == pytest.approx(min(sum(d[v] for d in dists) for v in g.nodes), abs=1e-9)


def test_multicast_sne(benchmark):
    g = random_connected_gnp(12, 0.3, seed=2)
    game = MulticastGame(g, root=0, terminals=[3, 7, 11])

    def kernel():
        from repro.subsidies import solve_sne_cutting_plane_lp1

        return solve_sne_cutting_plane_lp1(game.optimal_state())

    res = benchmark(kernel)
    assert res.verified


def test_weighted_sne(benchmark):
    g = Graph.from_edges([(0, 1, 4.0), (0, 2, 1.1), (1, 2, 1.1)])
    game = WeightedNetworkDesignGame(g, [(1, 0), (1, 0)], [1.0, 9.0])
    state = game.state([[1, 0], [1, 0]])
    sub, cost = benchmark(solve_weighted_sne, state)
    assert sub is not None and cost > 0


def test_strong_equilibrium_check(benchmark):
    g = Graph.from_edges(
        [(1, 0, 1.0), (2, 0, 1.0), (1, 3, 0.4), (2, 3, 0.4), (3, 0, 1.1)]
    )
    game = NetworkDesignGame(g, [(1, 0), (2, 0)])
    state = game.state([[1, 0], [2, 0]])
    report = benchmark(check_strong_equilibrium, state, 2)
    assert not report.is_strong_equilibrium


@pytest.mark.parametrize("n", [12, 24])
def test_combinatorial_waterfilling(benchmark, n):
    _, state = theorem11_cycle_instance(n)
    res = benchmark(combinatorial_sne, state)
    lp = solve_sne_broadcast_lp3(state)
    assert res.verified
    assert res.cost == pytest.approx(lp.cost, abs=1e-7)
