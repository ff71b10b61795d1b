"""All-or-nothing STABLE NETWORK ENFORCEMENT (Section 5).

The paper proves the optimization version inapproximable within any factor
(Theorem 12), so we provide:

* :func:`solve_aon_sne_exact` — exact branch & bound over the subsidize /
  don't-subsidize decisions, with the fractional LP (3) relaxation as the
  lower bound (sound because relaxing integrality can only reduce cost);
* :func:`greedy_aon_sne` — the least-crowded-edge greedy heuristic
  suggested by the packing idea of Theorem 6 (fully subsidizing everything
  always works, so it terminates).

Both are broadcast-specific, matching the paper's Section 5 scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.graph import Edge
from repro.lp import LPStatus, solve_lp
from repro.games.broadcast import TreeState
from repro.games.equilibrium import check_equilibrium
from repro.subsidies.assignment import SubsidyAssignment
from repro.subsidies.sne_lp import build_broadcast_lp3
from repro.utils.tolerances import LP_TOL


@dataclass
class AONResult:
    """Outcome of an all-or-nothing SNE solve."""

    subsidies: SubsidyAssignment
    cost: float
    #: True when branch & bound ran to completion (proved optimality).
    optimal: bool
    verified: bool
    nodes_explored: int = 0
    method: str = "branch_and_bound"


def _full_baseline(state: TreeState) -> Tuple[SubsidyAssignment, float]:
    """Fully subsidizing every positive tree edge always enforces T."""
    graph = state.game.graph
    positive = [e for e in state.edges if graph.weight(*e) > 0]
    sub = SubsidyAssignment.full_on(graph, positive)
    return sub, sub.cost


def solve_aon_sne_exact(
    state: TreeState,
    method: str = "highs",
    max_nodes: int = 100_000,
    tol: float = 1e-6,
) -> AONResult:
    """Exact minimum-cost all-or-nothing enforcement via branch & bound.

    Search nodes fix each tree edge to "fully subsidized" or "unsubsidized";
    the LP (3) relaxation with those bounds provides the pruning lower bound.
    Branching picks the most fractional variable, subsidize-branch first.
    When ``max_nodes`` is exhausted the best incumbent is returned with
    ``optimal=False``.
    """
    graph = state.game.graph
    rows, edges = build_broadcast_lp3(state)
    # The search re-solves these rows under per-node bounds, which the
    # sparse program fixes at construction: branch on the dense twin.
    lp = rows.to_linear_program()
    weights = np.array([graph.weight(*e) for e in edges])
    n = len(edges)
    base_lower = lp.lower.copy()
    base_upper = lp.upper.copy()

    best_sub, best_cost = _full_baseline(state)
    # A zero-cost check first: maybe T needs no subsidies at all.
    if check_equilibrium(state, tol=LP_TOL).is_equilibrium:
        return AONResult(
            SubsidyAssignment.zero(graph), 0.0, True, True, nodes_explored=0
        )

    positive_idx = [i for i in range(n) if weights[i] > 0]

    def lp_bound(fixed1: FrozenSet[int], fixed0: FrozenSet[int]):
        lower = base_lower.copy()
        upper = base_upper.copy()
        for i in fixed1:
            lower[i] = weights[i]
        for i in fixed0:
            upper[i] = 0.0
        lp.lower, lp.upper = lower, upper
        return solve_lp(lp, method=method)

    def integral_candidate(x: np.ndarray) -> Optional[Set[int]]:
        chosen: Set[int] = set()
        for i in positive_idx:
            w = weights[i]
            if x[i] >= w - tol * max(1.0, w):
                chosen.add(i)
            elif x[i] > tol * max(1.0, w):
                return None
        return chosen

    nodes_explored = 0
    # DFS stack of (fixed-to-w, fixed-to-0) index sets.
    stack: List[Tuple[FrozenSet[int], FrozenSet[int]]] = [(frozenset(), frozenset())]
    complete = True

    while stack:
        if nodes_explored >= max_nodes:
            complete = False
            break
        fixed1, fixed0 = stack.pop()
        nodes_explored += 1
        committed = float(weights[list(fixed1)].sum()) if fixed1 else 0.0
        if committed >= best_cost - tol:
            continue
        res = lp_bound(fixed1, fixed0)
        if res.status is not LPStatus.OPTIMAL:
            continue  # infeasible subtree
        assert res.x is not None and res.objective is not None
        if res.objective >= best_cost - tol:
            continue
        chosen = integral_candidate(res.x)
        if chosen is not None:
            cand = SubsidyAssignment.full_on(graph, [edges[i] for i in chosen])
            if (
                cand.cost < best_cost - tol
                and check_equilibrium(state, cand, tol=LP_TOL).is_equilibrium
            ):
                best_cost = cand.cost
                best_sub = cand
            continue
        # Branch on the most fractional positive-weight variable.
        frac_scores = [
            (min(res.x[i], weights[i] - res.x[i]) / max(1.0, weights[i]), i)
            for i in positive_idx
            if i not in fixed1 and i not in fixed0
        ]
        if not frac_scores:
            continue
        _, pick = max(frac_scores)
        # LIFO: push the 0-branch first so the subsidize-branch runs first.
        stack.append((fixed1, fixed0 | {pick}))
        stack.append((fixed1 | {pick}, fixed0))

    lp.lower, lp.upper = base_lower, base_upper  # restore for reuse
    verified = check_equilibrium(state, best_sub, tol=LP_TOL).is_equilibrium
    return AONResult(best_sub, best_cost, complete, verified, nodes_explored)


def greedy_aon_sne(state: TreeState, max_steps: Optional[int] = None) -> AONResult:
    """Greedy all-or-nothing enforcement: fix violations least-crowded-first.

    While some player has an improving deviation, fully subsidize the
    cheapest-per-relief unsubsidized edge on her tree path — the edge
    maximizing (cost reduction)/(subsidy spent) = ``1 / n_a``, i.e. the
    least crowded one (mirroring the Theorem 6 packing rule).  Terminates
    because each step subsidizes one more edge and the all-subsidized
    assignment is an equilibrium.
    """
    game = state.game
    graph = game.graph
    chosen: Set[Edge] = set()
    limit = max_steps if max_steps is not None else len(state.edges) + 1

    for _ in range(limit):
        sub = SubsidyAssignment.full_on(graph, chosen)
        report = check_equilibrium(state, sub, tol=LP_TOL)
        if report.is_equilibrium:
            return AONResult(sub, sub.cost, False, True, method="greedy")
        node = report.deviations[0].player
        path = state.tree.path_to_root(node)
        candidates = [
            e for e in path if e not in chosen and graph.weight(*e) > 0
        ]
        if not candidates:
            # Nothing on this path left to subsidize: the deviation must be
            # cost-equal noise; fall back to the full baseline.
            break
        # Least crowded first; ties by cheaper weight, then canonical order.
        chosen.add(
            min(candidates, key=lambda e: (state.loads[e], graph.weight(*e), repr(e)))
        )

    sub, cost = _full_baseline(state)
    return AONResult(sub, cost, False, True, method="greedy")
