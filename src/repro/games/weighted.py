"""Weighted network design games (Chen & Roughgarden; the paper's §6).

Player ``i`` carries a demand ``d_i > 0`` and pays the *demand-proportional*
share of each edge she uses:  ``cost_i = sum_a d_i (w_a - b_a) / D_a(T)``
where ``D_a(T)`` is the total demand on ``a``.  Unweighted games are the
``d_i = 1`` special case.  Sharing is pluggable through
:class:`~repro.games.base.CostSharingRule` — demand-proportional is the
default, and arbitrary per-edge splits (:class:`~repro.games.base.
PerEdgeSplit`) ride the same machinery.

Everything engine-shaped runs on the shared
:class:`~repro.games.engine.BestResponseEngine` (the ``_RuleBinding``
prices deviations with per-player contribution vectors): equilibrium
checking, the LP (1) separation oracle behind :func:`solve_weighted_sne`,
and the re-verification of its output.  The dict-based reference is
:func:`repro.games.equilibrium.check_equilibrium_legacy`, whose label
oracle prices every family's deviations through the same cost-sharing
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.games.base import CostSharingRule, ProportionalSharing
from repro.games.game import Subsidies, _path_nodes_to_edges, shortest_node_paths
from repro.graphs.graph import Edge, Graph, Node
from repro.subsidies.assignment import SubsidyAssignment
from repro.utils.tolerances import EQ_TOL


@dataclass(frozen=True)
class WeightedPlayer:
    index: int
    source: Node
    target: Node
    demand: float


class WeightedState:
    """A strategy profile of a weighted game; tracks contribution loads."""

    #: engine dispatch marker (see ``BestResponseEngine.bind``)
    binding_kind = "rule"

    def __init__(self, game: "WeightedNetworkDesignGame", node_paths: Sequence[Sequence[Node]]):
        if len(node_paths) != game.n_players:
            raise ValueError(f"expected {game.n_players} paths")
        self.game = game
        self.node_paths: List[Tuple[Node, ...]] = []
        self.edge_paths: List[Tuple[Edge, ...]] = []
        rule = game.cost_sharing
        load: Dict[Edge, float] = {}
        for i, (player, nodes) in enumerate(zip(game.players, node_paths)):
            nodes = tuple(nodes)
            if nodes[0] != player.source or nodes[-1] != player.target:
                raise ValueError(f"path endpoints wrong for player {player.index}")
            edges = _path_nodes_to_edges(nodes)
            for e in edges:
                if not game.graph.has_edge(*e):
                    raise ValueError(f"non-edge {e!r}")
                load[e] = load.get(e, 0.0) + rule.weight_on(i, e)
            self.node_paths.append(nodes)
            self.edge_paths.append(edges)
        self.load = load

    def established_edges(self) -> List[Edge]:
        """Edges carrying load (the built network)."""
        return list(self.load)

    def social_cost(self) -> float:
        return sum(self.game.graph.weight(*e) for e in self.load)

    def player_cost(self, i: int, subsidies: Optional[Subsidies] = None) -> float:
        g = self.game.graph
        rule = self.game.cost_sharing
        total = 0.0
        for e in self.edge_paths[i]:
            b = subsidies.get(e, 0.0) if subsidies else 0.0
            total += rule.weight_on(i, e) * max(0.0, g.weight(*e) - b) / self.load[e]
        return total

    def total_player_cost(self, subsidies: Optional[Subsidies] = None) -> float:
        return sum(self.player_cost(i, subsidies) for i in range(self.game.n_players))


class WeightedNetworkDesignGame:
    """Network design game with player demands and pluggable sharing.

    Parameters
    ----------
    graph:
        Connected edge-weighted graph.
    terminal_pairs:
        One ``(source, target)`` pair per player.
    demands:
        Positive per-player demands (``d_i = 1`` recovers the fair game).
    cost_sharing:
        Optional :class:`~repro.games.base.CostSharingRule` overriding the
        default demand-proportional split (e.g. a
        :class:`~repro.games.base.PerEdgeSplit`).
    """

    #: game-family name (see :mod:`repro.games.base`)
    family = "weighted"

    def __init__(
        self,
        graph: Graph,
        terminal_pairs: Sequence[Tuple[Node, Node]],
        demands: Sequence[float],
        cost_sharing: Optional[CostSharingRule] = None,
    ):
        if len(terminal_pairs) != len(demands):
            raise ValueError("one demand per player required")
        self.graph = graph
        self.players: List[WeightedPlayer] = []
        for i, ((s, t), d) in enumerate(zip(terminal_pairs, demands)):
            if s not in graph or t not in graph:
                raise ValueError(f"terminals {(s, t)!r} not in graph")
            if s == t:
                raise ValueError("identical terminals")
            if d <= 0:
                raise ValueError(f"demand must be positive, got {d}")
            self.players.append(WeightedPlayer(i, s, t, float(d)))
        self.cost_sharing: CostSharingRule = (
            cost_sharing
            if cost_sharing is not None
            else ProportionalSharing([p.demand for p in self.players])
        )

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def demands(self) -> Tuple[float, ...]:
        return tuple(p.demand for p in self.players)

    def state(self, node_paths: Sequence[Sequence[Node]]) -> WeightedState:
        return WeightedState(self, node_paths)

    def shortest_path_state(self) -> WeightedState:
        """Every player on her weight-shortest path (natural target)."""
        return self.state(shortest_node_paths(self.graph, self.players))

    def default_state(self) -> WeightedState:
        """The family's natural target state (all shortest paths)."""
        return self.shortest_path_state()


def check_weighted_equilibrium(
    state: WeightedState, subsidies: Optional[Subsidies] = None, tol: float = EQ_TOL
) -> bool:
    """Pure Nash check for weighted games (weak inequality, shared tol).

    Runs on the vectorized engine: the graph is interned once, loads and
    per-player contribution vectors live in flat arrays, and each player
    costs one array division plus a bounded int-id Dijkstra.
    """
    from repro.games.equilibrium import check_equilibrium

    return check_equilibrium(state, subsidies, tol=tol).is_equilibrium


def solve_weighted_sne(
    state: WeightedState,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
) -> Tuple[Optional[SubsidyAssignment], float]:
    """Minimum subsidies enforcing a weighted state (LP (1) + oracle).

    Delegates to the unified cutting-plane solver
    (:func:`repro.subsidies.sne_lp.solve_sne_cutting_plane_lp1`): the
    engine's rule binding prices the separation oracle and emits the cut
    rows through the binding's share coefficients, so weighted games share
    one code path with every other family.  With ``verify`` (default) the
    optimum is re-verified through the same engine binding — the shared
    relative-tolerance semantics of :func:`repro.utils.tolerances.
    is_improvement`, not a bespoke absolute float check — and a
    verification failure is reported as infeasible.

    Returns ``(subsidies, cost)``; ``(None, inf)`` when the cutting-plane
    loop fails to converge or verification rejects the optimum (neither
    observed on the tested families).
    """
    from repro.subsidies.sne_lp import solve_sne_cutting_plane_lp1

    res = solve_sne_cutting_plane_lp1(
        state, method=method, max_rounds=max_rounds, verify=verify
    )
    if not res.feasible or (verify and not res.verified):
        return None, float("inf")
    return res.subsidies, res.cost
