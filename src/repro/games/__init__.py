"""Network design games (Section 2 of the paper).

* :mod:`repro.games.base` — the game-family layer: the five first-class
  families (broadcast, multicast, general, weighted, directed) and the
  pluggable :class:`CostSharingRule` (fair/Shapley, demand-proportional,
  arbitrary per-edge splits).
* :class:`NetworkDesignGame` — arbitrary source/destination pairs, states are
  per-player paths with fair (Shapley) cost sharing.
* :class:`BroadcastGame` — one player per non-root node (optionally with
  co-located player *multiplicities*), states are spanning trees.
* :class:`DirectedNetworkDesignGame` — per-direction traversal constraints
  on the shared undirected cost model.
* Equilibrium checking, coalition scans and equilibrium stretch run on the
  vectorized :class:`BestResponseEngine` for every family; Rosenthal's
  potential and best-response dynamics additionally require fair sharing
  (weighted/per-edge splits have no exact potential) and cover the
  broadcast/multicast/general/directed families.
"""

from repro.games.base import (
    GAME_FAMILIES,
    CostSharingRule,
    FairSharing,
    FamilyCoercionError,
    PerEdgeSplit,
    ProportionalSharing,
    family_of,
    rule_from_json,
    to_broadcast,
    to_general,
)
from repro.games.game import NetworkDesignGame, Player, State
from repro.games.broadcast import BroadcastGame, TreeState
from repro.games.equilibrium import (
    Deviation,
    EquilibriumReport,
    best_response,
    check_equilibrium,
    check_equilibrium_legacy,
)
from repro.games.engine import BestResponseEngine, EngineProfile
from repro.games.potential import rosenthal_potential, potential_of_tree
from repro.games.dynamics import BRDResult, best_response_dynamics
from repro.games.efficiency import (
    EfficiencyReport,
    equilibrium_spanning_trees,
    price_of_anarchy,
    price_of_stability,
)
from repro.games.multicast import MulticastGame
from repro.games.directed import DirectedNetworkDesignGame, DirectedState
from repro.games.weighted import (
    WeightedNetworkDesignGame,
    WeightedState,
    check_weighted_equilibrium,
    solve_weighted_sne,
)
from repro.games.coalitions import (
    CoalitionDeviation,
    StrongEquilibriumReport,
    check_strong_equilibrium,
)
from repro.games.approx import (
    equilibrium_stretch,
    is_alpha_equilibrium,
    subsidies_for_stretch,
)

__all__ = [
    "GAME_FAMILIES",
    "CostSharingRule",
    "FairSharing",
    "FamilyCoercionError",
    "PerEdgeSplit",
    "ProportionalSharing",
    "family_of",
    "rule_from_json",
    "to_broadcast",
    "to_general",
    "NetworkDesignGame",
    "Player",
    "State",
    "DirectedNetworkDesignGame",
    "DirectedState",
    "BroadcastGame",
    "TreeState",
    "Deviation",
    "EquilibriumReport",
    "best_response",
    "check_equilibrium",
    "check_equilibrium_legacy",
    "BestResponseEngine",
    "EngineProfile",
    "rosenthal_potential",
    "potential_of_tree",
    "BRDResult",
    "best_response_dynamics",
    "EfficiencyReport",
    "equilibrium_spanning_trees",
    "price_of_anarchy",
    "price_of_stability",
    "MulticastGame",
    "WeightedNetworkDesignGame",
    "WeightedState",
    "check_weighted_equilibrium",
    "solve_weighted_sne",
    "CoalitionDeviation",
    "StrongEquilibriumReport",
    "check_strong_equilibrium",
    "equilibrium_stretch",
    "is_alpha_equilibrium",
    "subsidies_for_stretch",
]
