"""LP (2) in shifted potentials: the simplex starts at the b = 0 distances.

:func:`~repro.subsidies.sne_lp.build_polynomial_lp2` writes every
potential a player reaches as ``y_i(v) = d_i(v) - pi_i(v)``, with ``d_i``
the player's distances under deviator pricing at ``b = 0``.  These tests
pin what the substitution promises, on every game family (directed with
unreachable nodes, weighted with ``alpha != 1``, multicast):

* the ``y`` columns are bounded by ``[0, d]`` (``d`` from an independent
  heap Dijkstra) and unreachable nodes keep ``pi >= 0``;
* at ``y = 0`` every arc row leaving a reached node holds, with slack 0
  along one shortest-path tree per player, and a path row starts
  infeasible exactly when its player can improve;
* it is still LP (2): the budget matches LP (1) and the exact backend.
"""

import heapq

import numpy as np
import pytest

from repro import api
from repro.games.broadcast import BroadcastGame, TreeState
from repro.games.directed import DirectedNetworkDesignGame
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.generators import random_tree_plus_chords
from repro.graphs.graph import canonical_edge
from repro.scenarios import build_scenario
from repro.subsidies.sne_lp import build_polynomial_lp2

#: scenario instances of every family (grid, n=16)
SCENARIOS = (
    ("broadcast", {}),
    ("general", {"pairs": "random"}),
    ("weighted", {"demands": "random"}),
    ("directed", {"orientation": "oneway-chords"}),
    ("multicast", {"terminals": "half"}),
)


def _one_way_game():
    """Directed game whose players cannot reach every node.

    BFS-tree edges point towards the root 0 and each chord points from its
    smaller to its larger endpoint, so a player reaches its ancestors and
    what chords lead to, and not its siblings' subtrees.
    """
    g = random_tree_plus_chords(7, 4, seed=9, chord_factor=1.1)
    parent = {0: None}
    queue = [0]
    for u in queue:
        for v in sorted(g.neighbors(u)):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    arcs = [(v, u) for v, u in parent.items() if u is not None]
    tree = {canonical_edge(*arc) for arc in arcs}
    arcs += [canonical_edge(u, v) for u, v, _ in g.edges() if canonical_edge(u, v) not in tree]
    pairs = [(u, 0) for u in sorted(g.nodes) if u != 0]
    return DirectedNetworkDesignGame(g, pairs, arcs)


def _zoo():
    """Small instances (exact pivoting stays affordable), one per family."""
    g = random_tree_plus_chords(7, 4, seed=9, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 3) * 0.5 for i in range(5)]
    return {
        "broadcast": BroadcastGame(g, root=0),
        "multicast": MulticastGame(g, 0, others[:4]),
        "general": NetworkDesignGame(g, [(u, 0) for u in others[:5]]),
        "weighted": WeightedNetworkDesignGame(g, [(u, 0) for u in others[:5]], demands),
        "directed": _one_way_game(),
    }


def _states():
    states = [
        (f"grid-{family}", build_scenario("grid", n=16, seed=0, game=family, **params))
        for family, params in SCENARIOS
    ]
    states += [(f"zoo-{family}", game) for family, game in _zoo().items()]
    return [(name, game.default_state()) for name, game in states]


STATES = _states()


def _players(state):
    """(source, target, current cost, {edge: deviator coefficient}) per player."""
    game = state.game
    edges = [canonical_edge(u, v) for u, v, _ in game.graph.edges()]
    out = []
    if isinstance(state, TreeState):
        for u in game.player_nodes():
            own = set(state.tree.path_to_root(u))
            coef = {e: 1.0 / (state.loads.get(e, 0) + 1 - (e in own)) for e in edges}
            cost = sum(game.graph.weight(*e) / state.loads[e] for e in own)
            out.append((u, game.root, cost, coef))
        return out
    load = getattr(state, "load", None) or state.usage
    for p in game.players:
        own = set(state.edge_paths[p.index])
        coef = {}
        for e in edges:
            a = game.cost_sharing.weight_on(p.index, e)
            coef[e] = a / (load.get(e, 0) + a - (a if e in own else 0))
        cost = sum(
            game.cost_sharing.weight_on(p.index, e) * game.graph.weight(*e) / load[e]
            for e in own
        )
        out.append((p.source, p.target, cost, coef))
    return out


def _arcs(game):
    """Allowed arcs in the builder's row order: graph.edges(), (u, v) then (v, u)."""
    allows = getattr(game, "allows", None)
    return [
        (canonical_edge(u, v), tail, head, w)
        for u, v, w in game.graph.edges()
        for tail, head in ((u, v), (v, u))
        if allows is None or allows(tail, head)
    ]


def _distances(source, arcs, coef):
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tick = 1
    out = {}
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in out:
            continue
        out[u] = d
        for e, tail, head, w in arcs:
            if tail == u and head not in out:
                nd = d + w * coef[e]
                if nd < dist.get(head, np.inf):
                    dist[head] = nd
                    heapq.heappush(heap, (nd, tick, head))
                    tick += 1
    return out


@pytest.mark.parametrize("name,state", STATES, ids=[name for name, _ in STATES])
def test_potential_bounds_are_zero_to_distance(name, state):
    lp, edges = build_polynomial_lp2(state)
    m = len(edges)
    nodes = state.game.graph.nodes
    arcs = _arcs(state.game)
    assert np.all(lp.lower == 0.0)
    for i, (source, _target, _cost, coef) in enumerate(_players(state)):
        dist = _distances(source, arcs, coef)
        upper = lp.upper[m + i * len(nodes) : m + (i + 1) * len(nodes)]
        for v, ub in zip(nodes, upper):
            if v in dist:
                assert ub == pytest.approx(dist[v], rel=1e-12, abs=1e-15), (name, i, v)
            else:
                assert ub == np.inf, (name, i, v)
        assert upper[nodes.index(source)] == 0.0  # pins pi_i(s_i) = 0


@pytest.mark.parametrize("name,state", STATES, ids=[name for name, _ in STATES])
def test_slack_start_sits_on_shortest_path_trees(name, state):
    lp, edges = build_polynomial_lp2(state)
    m = len(edges)
    nodes = state.game.graph.nodes
    arcs = _arcs(state.game)
    players = _players(state)
    rhs = np.asarray(lp.rhs, dtype=float).reshape(len(players), len(arcs) + 1)
    for i, (source, target, cost, _coef) in enumerate(players):
        upper = lp.upper[m + i * len(nodes) : m + (i + 1) * len(nodes)]
        reached = {v for v, ub in zip(nodes, upper) if np.isfinite(ub)}
        tree_arcs = {}
        for (e, tail, head, _w), slack in zip(arcs, rhs[i, :-1]):
            if tail in reached:
                assert slack >= 0.0, (name, i, tail, head)
                if slack == 0.0:
                    tree_arcs.setdefault(tail, []).append(head)
        # the zero-slack arcs span every reached node from the source
        seen = {source}
        stack = [source]
        while stack:
            for head in tree_arcs.get(stack.pop(), []):
                if head not in seen:
                    seen.add(head)
                    stack.append(head)
        assert seen == reached, name
        # the path row: d(t_i) - cost_i(T), negative iff the player can improve
        d_target = upper[nodes.index(target)]
        assert rhs[i, -1] == pytest.approx(d_target - cost, abs=1e-12), (name, i)


def test_directed_zoo_has_unreachable_nodes_and_rows_leaving_them():
    """Guard the matrix above: some rows start at an unreached tail."""
    state = _zoo()["directed"].default_state()
    lp, edges = build_polynomial_lp2(state)
    m = len(edges)
    n = len(state.game.graph.nodes)
    unreached = np.isinf(lp.upper[m:]).reshape(-1, n)
    assert unreached.any()
    nodes = state.game.graph.nodes
    leaving = [
        (i, tail, head)
        for i in range(unreached.shape[0])
        for _e, tail, head, _w in _arcs(state.game)
        if unreached[i, nodes.index(tail)] and not unreached[i, nodes.index(head)]
    ]
    assert leaving


@pytest.mark.parametrize("family", sorted(_zoo()))
def test_budget_matches_lp1_and_the_exact_backend(family):
    game = _zoo()[family]
    lp2 = api.solve(game, "sne-poly")
    lp1 = api.solve(game, "sne-cutting-plane")
    exact = api.solve(game, "sne-poly", method="exact")
    assert lp2.verified and lp1.verified and exact.verified
    assert lp2.budget_used > 1e-9  # a zero optimum would prove nothing
    assert abs(lp2.budget_used - lp1.budget_used) <= 1e-6 * max(1.0, abs(lp1.budget_used))
    assert abs(exact.budget_used - lp2.budget_used) <= 5e-8
