"""Multicast games — the paper's Section 6 generalization.

A multicast game is a network design game in which a *subset* of nodes
(the terminals) each connect to a common root; broadcast is the special
case where every node is a terminal.  The optimal design is a minimum
Steiner tree over ``terminals + {root}`` (computed exactly with
Dreyfus-Wagner), and SNE is solved through the general LP (1)/(2)
machinery, which applies verbatim.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graphs.graph import Edge, Graph, Node
from repro.graphs.steiner import steiner_tree
from repro.graphs.tree import RootedTree
from repro.games.game import NetworkDesignGame, State


class MulticastGame:
    """A multicast game: ``terminals`` each connect to ``root``.

    Thin orchestration over :class:`NetworkDesignGame` (states/costs/
    equilibria are inherited) plus Steiner-tree optimal designs.
    """

    #: game-family name (see :mod:`repro.games.base`)
    family = "multicast"

    def __init__(self, graph: Graph, root: Node, terminals: Sequence[Node]):
        if root not in graph:
            raise ValueError(f"root {root!r} not in graph")
        terms = list(dict.fromkeys(terminals))
        if not terms:
            raise ValueError("a multicast game needs at least one terminal")
        if root in terms:
            raise ValueError("the root is not a terminal")
        self.graph = graph
        self.root = root
        self.terminals: List[Node] = terms
        self.nd_game = NetworkDesignGame(graph, [(t, root) for t in terms])
        #: (graph version, root, terminals) -> (edges, weight) of the last design
        self._design_cache: Optional[Tuple[tuple, Tuple[List[Edge], float]]] = None

    @property
    def n_players(self) -> int:
        return len(self.terminals)

    @property
    def cost_sharing(self):
        """The sharing rule (multicast games are fair/Shapley)."""
        from repro.games.base import FairSharing

        return FairSharing()

    def state(self, node_paths: Sequence[Sequence[Node]]) -> State:
        """Validate a per-terminal strategy profile (delegates inward)."""
        return self.nd_game.state(node_paths)

    def default_state(self) -> State:
        """The family's natural target state (the Steiner optimum)."""
        return self.optimal_state()

    # -- optimal designs -----------------------------------------------------

    def optimal_design(self) -> Tuple[List[Edge], float]:
        """Exact minimum Steiner tree over terminals + root.

        Computed once per game and graph version (the target state, the
        social optimum and every solve of an interned instance share it);
        each call returns a fresh edge list.
        """
        key = (self.graph._version, self.root, tuple(self.terminals))
        cached = self._design_cache
        if cached is None or cached[0] != key:
            design = steiner_tree(self.graph, [self.root, *self.terminals])
            cached = self._design_cache = (key, design)
        edges, weight = cached[1]
        return list(edges), weight

    def state_from_tree(self, edges: Iterable[Tuple[Node, Node]]) -> State:
        """The state where every terminal follows the given tree to the root.

        ``edges`` must form a tree containing the root and all terminals
        (extra Steiner nodes are fine).
        """
        tree = RootedTree(self.root, edges)
        missing = [t for t in self.terminals if t not in tree.depth]
        if missing:
            raise ValueError(f"tree does not reach terminals {missing!r}")
        paths = []
        for t in self.terminals:
            nodes = [t]
            while nodes[-1] != self.root:
                nodes.append(tree.parent[nodes[-1]])
            paths.append(nodes)
        return self.nd_game.state(paths)

    def optimal_state(self) -> State:
        """The Steiner-optimal design as a state."""
        edges, _ = self.optimal_design()
        if not edges:
            raise ValueError("degenerate multicast instance")
        return self.state_from_tree(edges)

    def social_optimum(self) -> float:
        return self.optimal_design()[1]
