"""Broadcast games: every player connects her own node to a common root.

The paper's central special case (Section 2).  States considered here are
spanning trees — as the paper notes, any equilibrium containing a cycle has
only zero-weight edges on it and an equivalent tree equilibrium exists.

``BroadcastGame`` additionally supports integer player *multiplicities* per
node: ``multiplicity[u] = k`` means ``k`` co-located players at node ``u``.
This is how we instantiate the Theorem 12 gadgets, whose auxiliary stars of
``n_j ~ 28^(2^(9-j))/4`` zero-weight leaves are game-theoretically identical
to co-located players but physically impossible to build as graph nodes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.graphs.mst import kruskal_mst
from repro.graphs.tree import RootedTree
from repro.games.game import NetworkDesignGame, Subsidies


class TreeState:
    """A spanning-tree state of a broadcast game.

    Wraps a :class:`RootedTree` together with the edge usage counts
    ``n_a(T)`` (subtree player loads) and provides per-player costs.
    """

    def __init__(self, game: "BroadcastGame", edges: Iterable[Tuple[Node, Node]]):
        self.game = game
        self.tree = RootedTree(game.root, edges)
        if set(self.tree.nodes) != game.graph.node_set():
            raise ValueError("state does not span all nodes of the game graph")
        for u, v in self.tree.edges:
            if not game.graph.has_edge(u, v):
                raise ValueError(f"tree edge {(u, v)!r} is not a graph edge")
        self.loads: Dict[Edge, int] = self.tree.subtree_loads(game.multiplicity)

    @property
    def edges(self) -> List[Edge]:
        return self.tree.edges

    def edge_set(self) -> frozenset:
        return frozenset(self.tree.edges)

    def established_edges(self) -> List[Edge]:
        """Tree edges used by at least one player (the built network).

        Edges whose subtree hosts zero players are *not established*; with
        default multiplicities every tree edge counts.
        """
        return [e for e in self.tree.edges if self.loads[e] > 0]

    def social_cost(self) -> float:
        """``wgt(T)`` over established (used) edges."""
        g = self.game.graph
        return sum(g.weight(u, v) for u, v in self.established_edges())

    def usage(self, edge: Edge) -> int:
        """``n_a(T)``: players using the tree edge (0 for non-tree edges)."""
        return self.loads.get(canonical_edge(*edge), 0)

    def player_cost(self, node: Node, subsidies: Optional[Subsidies] = None) -> float:
        """Cost of (each of) the player(s) located at ``node``."""
        if node == self.game.root:
            raise ValueError("the root hosts no player")
        g = self.game.graph
        total = 0.0
        for e in self.tree.path_to_root(node):
            n_a = self.loads[e]
            if n_a == 0:  # pragma: no cover - only with zero multiplicities
                continue
            b = subsidies.get(e, 0.0) if subsidies else 0.0
            total += max(0.0, g.weight(*e) - b) / n_a
        return total

    def all_player_costs(self, subsidies: Optional[Subsidies] = None) -> Dict[Node, float]:
        """Costs of all players, computed incrementally in BFS order (O(n))."""
        g = self.game.graph
        costs: Dict[Node, float] = {self.game.root: 0.0}
        for u in self.tree.bfs_order[1:]:
            e = self.tree.edge_to_parent(u)
            n_a = self.loads[e]
            share = 0.0
            if n_a > 0:
                b = subsidies.get(e, 0.0) if subsidies else 0.0
                share = max(0.0, g.weight(*e) - b) / n_a
            costs[u] = costs[self.tree.parent[u]] + share
        del costs[self.game.root]
        return costs

    def total_player_cost(self, subsidies: Optional[Subsidies] = None) -> float:
        costs = self.all_player_costs(subsidies)
        mult = self.game.multiplicity
        return sum(c * mult.get(u, 1) for u, c in costs.items())


class BroadcastGame:
    """A broadcast game on ``graph`` with destination ``root``.

    Parameters
    ----------
    graph:
        Connected edge-weighted graph.
    root:
        The common destination node ``r``.
    multiplicity:
        Optional ``{node: k}`` co-located player counts (default 1 per
        non-root node; 0 is allowed and means "no player here", used for
        structural helper nodes).
    """

    #: game-family name (see :mod:`repro.games.base`)
    family = "broadcast"

    def __init__(
        self,
        graph: Graph,
        root: Node,
        multiplicity: Optional[Mapping[Node, int]] = None,
    ):
        if root not in graph:
            raise ValueError(f"root {root!r} not in graph")
        if not graph.is_connected():
            raise ValueError("broadcast games require a connected graph")
        self.graph = graph
        self.root = root
        self.multiplicity: Dict[Node, int] = {}
        for u in graph.nodes:
            if u == root:
                continue
            k = 1 if multiplicity is None else int(multiplicity.get(u, 1))
            if k < 0:
                raise ValueError(f"multiplicity of {u!r} must be >= 0")
            self.multiplicity[u] = k

    @property
    def n_players(self) -> int:
        return sum(self.multiplicity.values())

    def player_nodes(self) -> List[Node]:
        """Nodes hosting at least one player."""
        return [u for u, k in self.multiplicity.items() if k > 0]

    # -- states -------------------------------------------------------------

    def tree_state(self, edges: Iterable[Tuple[Node, Node]]) -> TreeState:
        return TreeState(self, edges)

    def mst_state(self) -> TreeState:
        """The deterministic Kruskal MST as a state (the optimal design)."""
        return TreeState(self, kruskal_mst(self.graph))

    def default_state(self) -> TreeState:
        """The family's natural target state (the MST)."""
        return self.mst_state()

    @property
    def cost_sharing(self):
        """The sharing rule (broadcast games are fair/Shapley)."""
        from repro.games.base import FairSharing

        return FairSharing()

    def mst_weight(self) -> float:
        return self.graph.subset_weight(kruskal_mst(self.graph))

    # -- bridges ------------------------------------------------------------

    def to_network_design_game(self) -> NetworkDesignGame:
        """The same game as a general :class:`NetworkDesignGame`.

        Requires all multiplicities <= 1 (the general-game State stores one
        explicit path per player; co-located duplicates would be fine in
        principle but are rejected to keep cross-validation honest).
        """
        if any(k > 1 for k in self.multiplicity.values()):
            raise ValueError("conversion requires multiplicities <= 1")
        pairs = [(u, self.root) for u, k in self.multiplicity.items() if k == 1]
        return NetworkDesignGame(self.graph, pairs)

    def tree_state_to_paths(self, state: TreeState) -> List[List[Node]]:
        """Node paths (one per unit-multiplicity player) for a tree state."""
        paths = []
        for u, k in self.multiplicity.items():
            if k == 0:
                continue
            nodes = [u]
            while nodes[-1] != self.root:
                nodes.append(state.tree.parent[nodes[-1]])
            for _ in range(k):
                paths.append(list(nodes))
        return paths
