"""Equilibrium checking via best-response shortest-path oracles.

For a player ``i`` contemplating a deviation from state ``T``, edge ``a``
costs her ``(w_a - b_a) / (n_a(T) + 1 - n_a^i(T))`` — the denominator is the
number of users of ``a`` in ``(T_{-i}, T'_i)``.  A best response is then a
shortest path under that pricing, exactly the separation oracle the paper
uses inside Theorem 1.  ``T`` is an equilibrium iff no player's best response
beats her current cost (weak inequality, handled by the shared tolerance).

:func:`check_equilibrium` runs on the vectorized
:class:`~repro.games.engine.BestResponseEngine` (per-edge weight/subsidy
arrays over the indexed graph core).  The per-player closures
:func:`best_response` / :func:`best_deviation_from_tree` are the dict-based
label oracles, kept as the one independent reference: the engine tests
and benchmarks cross-check against them via
:func:`check_equilibrium_legacy`, on every game family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.graphs.graph import Node, canonical_edge
from repro.graphs.shortest_paths import dijkstra
from repro.games.broadcast import TreeState
from repro.games.game import State, Subsidies
from repro.utils.tolerances import EQ_TOL, is_improvement


@dataclass
class Deviation:
    """An improving deviation found by the checker."""

    player: object  # player index (general game) or node (broadcast game)
    current_cost: float
    deviation_cost: float
    path_nodes: List[Node]

    @property
    def gain(self) -> float:
        return self.current_cost - self.deviation_cost


@dataclass
class EquilibriumReport:
    """Outcome of an equilibrium check."""

    is_equilibrium: bool
    deviations: List[Deviation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_equilibrium


def _nodes_from_parent(parent: dict, source: Node, target: Node) -> List[Node]:
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    return nodes


# ---------------------------------------------------------------------------
# General games
# ---------------------------------------------------------------------------


def best_response(
    state: State,
    player_index: int,
    subsidies: Optional[Subsidies] = None,
) -> Deviation:
    """Best response of one player in a path state of any family.

    Edge ``a`` costs the player ``alpha (w_a - b_a) / (L_a + alpha - alpha
    [a on her path])``, with ``alpha = game.cost_sharing.weight_on(i, a)``
    her load contribution and ``L_a`` the edge's load (``state.load`` for
    weighted states, the usage count ``n_a`` otherwise).  Fair sharing has
    ``alpha = 1``, which gives the paper's ``(w_a - b_a) / (n_a + 1 -
    n_a^i)``.  Directions that ``game.allows`` closes cost ``inf``, so the
    search never takes them.

    Returns a :class:`Deviation` record regardless of whether it improves;
    callers compare ``deviation_cost`` against ``current_cost``.
    """
    game = state.game
    player = game.players[player_index]
    own_edges = set(state.edge_paths[player_index])
    alpha_on = game.cost_sharing.weight_on
    load = getattr(state, "load", None)
    if load is None:
        load = state.usage
    allows = getattr(game, "allows", None)

    def weight_fn(u: Node, v: Node) -> float:
        if allows is not None and not allows(u, v):
            return math.inf
        e = canonical_edge(u, v)
        w = game.graph.weight(u, v)
        b = subsidies.get(e, 0.0) if subsidies else 0.0
        a = alpha_on(player_index, e)
        denom = load.get(e, 0) + a - (a if e in own_edges else 0.0)
        return a * max(0.0, w - b) / denom

    dist, parent = dijkstra(game.graph, player.source, weight_fn=weight_fn, target=player.target)
    if player.target not in dist:
        raise ValueError(f"player {player_index} cannot reach her target")
    nodes = _nodes_from_parent(parent, player.source, player.target)
    return Deviation(
        player=player_index,
        current_cost=state.player_cost(player_index, subsidies),
        deviation_cost=dist[player.target],
        path_nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Broadcast games
# ---------------------------------------------------------------------------


def best_deviation_from_tree(
    state: TreeState,
    node: Node,
    subsidies: Optional[Subsidies] = None,
) -> Deviation:
    """Best response of (a player at) ``node`` in a broadcast tree state."""
    game = state.game
    own_edges = set(state.tree.path_to_root(node))

    def weight_fn(u: Node, v: Node) -> float:
        e = canonical_edge(u, v)
        w = game.graph.weight(u, v)
        b = subsidies.get(e, 0.0) if subsidies else 0.0
        denom = state.loads.get(e, 0) + 1 - (1 if e in own_edges else 0)
        return max(0.0, w - b) / denom

    dist, parent = dijkstra(game.graph, node, weight_fn=weight_fn, target=game.root)
    nodes = _nodes_from_parent(parent, node, game.root)
    return Deviation(
        player=node,
        current_cost=state.player_cost(node, subsidies),
        deviation_cost=dist[game.root],
        path_nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Unified checker
# ---------------------------------------------------------------------------


def check_equilibrium(
    state: Union[State, TreeState],
    subsidies: Optional[Subsidies] = None,
    tol: float = EQ_TOL,
    find_all: bool = False,
) -> EquilibriumReport:
    """Check whether a state is a (pure Nash) equilibrium.

    Works for both general-game :class:`State` and broadcast
    :class:`TreeState` profiles.  With ``find_all=False`` (default) the check
    stops at the first improving deviation.

    Runs on the vectorized engine: the graph is interned once (cached per
    graph), usage counts and subsidized weights live in per-edge arrays, and
    each player costs one array division plus an int-id Dijkstra.

    Notes
    -----
    Players whose current cost is zero are skipped — costs are nonnegative,
    so they can never improve.  This matters on the Theorem 12 graphs where
    most auxiliary players ride fully-shared zero-weight edges.
    """
    from repro.games.engine import BestResponseEngine

    engine = BestResponseEngine.for_graph(state.game.graph)
    binding = engine.bind(state)
    wb = engine.net_weights(engine.subsidy_vector(subsidies))
    labels = engine.ig.labels
    deviations = [
        Deviation(
            player=rec.player,
            current_cost=rec.current_cost,
            deviation_cost=rec.deviation_cost,
            path_nodes=[labels[i] for i in rec.node_ids],
        )
        for rec in binding.scan(wb, tol=tol, find_all=find_all)
    ]
    return EquilibriumReport(is_equilibrium=not deviations, deviations=deviations)


def check_equilibrium_legacy(
    state: Union[State, TreeState],
    subsidies: Optional[Subsidies] = None,
    tol: float = EQ_TOL,
    find_all: bool = False,
) -> EquilibriumReport:
    """Reference equilibrium check via the per-player dict-based oracles.

    Semantically identical to :func:`check_equilibrium` on every game
    family (broadcast, multicast, general, weighted, directed); kept as the
    cross-validation baseline for the engine (tests assert verdict equality
    on randomized instances, ``benchmarks/bench_equilibrium.py`` and
    ``benchmarks/bench_families.py`` measure the speedup).
    """
    deviations: List[Deviation] = []

    if isinstance(state, TreeState):
        costs = state.all_player_costs(subsidies)
        for node in state.game.player_nodes():
            if costs[node] <= tol:
                continue
            dev = best_deviation_from_tree(state, node, subsidies)
            if is_improvement(dev.deviation_cost, dev.current_cost, tol):
                deviations.append(dev)
                if not find_all:
                    break
    else:
        for i in range(state.game.n_players):
            if state.player_cost(i, subsidies) <= tol:
                continue
            dev = best_response(state, i, subsidies)
            if is_improvement(dev.deviation_cost, dev.current_cost, tol):
                deviations.append(dev)
                if not find_all:
                    break

    return EquilibriumReport(is_equilibrium=not deviations, deviations=deviations)
