"""Adapters wrapping every legacy solver behind the canonical report shape.

Each adapter takes one *instance* — a target state (``TreeState``,
``State``, ``WeightedState``, ``DirectedState``) or a game of any
:data:`~repro.games.base.GAME_FAMILIES` family — coerces it to what the
underlying solver expects, runs the solver, and returns a
:class:`~repro.api.report.SolveReport`.  Games default to their family's
natural target state (``default_state()``: the MST for broadcast, the
Steiner optimum for multicast, all shortest paths otherwise).

Family-restricted solvers serve *any* family instance that lies inside
their domain via the exact downgrades of :mod:`repro.games.base`
(:func:`~repro.games.base.to_broadcast` / :func:`~repro.games.base.
to_general`): a weighted game with uniform demands, a symmetric directed
game, or a multicast game whose terminals cover every node coerces
losslessly; anything outside the overlap raises a
:class:`~repro.games.base.FamilyCoercionError` naming the obstruction.
Importing this module populates the registry with the eleven built-in
solvers.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.games.base import FamilyCoercionError, to_broadcast
from repro.games.broadcast import BroadcastGame, TreeState
from repro.games.directed import DirectedNetworkDesignGame, DirectedState
from repro.games.equilibrium import check_equilibrium
from repro.games.game import NetworkDesignGame, State
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame, WeightedState
from repro.graphs.graph import Edge
from repro.subsidies.aon import AONResult, greedy_aon_sne, solve_aon_sne_exact
from repro.subsidies.approx import (
    ApproxSNEResult,
    solve_sne_greedy,
    solve_sne_primal_dual,
)
from repro.subsidies.assignment import SubsidyAssignment
from repro.subsidies.combinatorial import combinatorial_sne
from repro.subsidies.snd import SNDResult, snd_heuristic, solve_snd_exact
from repro.subsidies.sne_lp import (
    SNEResult,
    solve_sne_broadcast_lp3,
    solve_sne_cutting_plane_lp1,
    solve_sne_polynomial_lp2,
)
from repro.subsidies.theorem6 import theorem6_subsidies
from repro.api.registry import register_solver
from repro.api.report import SolveReport
from repro.utils.timing import Timer
from repro.utils.tolerances import LP_TOL

AnyGame = Union[
    BroadcastGame,
    MulticastGame,
    NetworkDesignGame,
    WeightedNetworkDesignGame,
    DirectedNetworkDesignGame,
]
AnyState = Union[TreeState, State, WeightedState, DirectedState]
AnyInstance = Union[AnyState, AnyGame]

_GAME_TYPES = (
    BroadcastGame,
    MulticastGame,
    NetworkDesignGame,
    WeightedNetworkDesignGame,
    DirectedNetworkDesignGame,
)
_STATE_TYPES = (TreeState, State, WeightedState)


# ---------------------------------------------------------------------------
# Instance coercion
# ---------------------------------------------------------------------------


def as_tree_state(instance: AnyInstance) -> TreeState:
    """Coerce to a broadcast tree state (games default to their MST).

    Any family instance inside the broadcast overlap qualifies: a
    multicast game covering every node, a weighted game with uniform
    demands, a symmetric directed game (each with one player per non-root
    node and a common destination).
    """
    if isinstance(instance, TreeState):
        return instance
    if isinstance(instance, _GAME_TYPES):
        try:
            return to_broadcast(instance).mst_state()
        except FamilyCoercionError as exc:
            raise FamilyCoercionError(
                f"this solver needs a broadcast target: {exc}"
            ) from None
    raise TypeError(
        f"this solver needs a broadcast TreeState (or a game inside the "
        f"broadcast overlap, whose MST becomes the target); got "
        f"{type(instance).__name__}"
    )


def as_any_state(instance: AnyInstance) -> AnyState:
    """Coerce to a target state of any game family.

    States pass through; games default to their family's natural target
    (``default_state()``: MST for broadcast, Steiner optimum for
    multicast, all shortest paths otherwise).
    """
    if isinstance(instance, _STATE_TYPES):
        return instance
    if isinstance(instance, _GAME_TYPES):
        return instance.default_state()
    raise TypeError(
        f"expected a target state or a game; got {type(instance).__name__}"
    )


def as_broadcast_game(instance: AnyInstance) -> BroadcastGame:
    """Coerce to a broadcast game (design solvers pick their own tree)."""
    if isinstance(instance, TreeState):
        return instance.game
    if isinstance(instance, _GAME_TYPES):
        try:
            return to_broadcast(instance)
        except FamilyCoercionError as exc:
            raise FamilyCoercionError(
                f"SND solvers design a broadcast tree: {exc}"
            ) from None
    raise TypeError(
        f"SND solvers design the tree themselves and need a BroadcastGame "
        f"(or a game inside the broadcast overlap); got {type(instance).__name__}"
    )


def _target_of(state: AnyState) -> Tuple[Tuple[Edge, ...], float]:
    """Established edges and their weight."""
    edges = tuple(state.established_edges())
    return edges, state.game.graph.subset_weight(edges)


# ---------------------------------------------------------------------------
# SNE: the three LP formulations of Theorem 1 / Lemma 2
# ---------------------------------------------------------------------------


def _report_from_sne(
    res: SNEResult, state: AnyState, solver: str, elapsed: float, checked: bool
) -> SolveReport:
    """The report of an exact LP solve or of a certified approximate one."""
    target_edges, target_cost = _target_of(state)
    approx = isinstance(res, ApproxSNEResult)
    metadata = {"method": res.method, "rounds": res.rounds, "cuts": res.cuts}
    if res.backend is not None:
        # Canonical LP backend name (registry spelling), for provenance,
        # the serve daemon's per-backend counters, and cache keying via
        # the solver version bumps below.
        metadata["backend"] = res.backend
    if res.certificate is not None:
        # The exact rational re-derivation of the verdict, or the certified
        # bracket lb <= OPT <= ub of an approximate solve.  Both are
        # deterministic for a given instance/opts (no timestamps), so they
        # participate in canonical bytes.
        key = "certificate" if approx else "exact_certificate"
        metadata[key] = res.certificate.as_dict()
    if approx and res.anytime is not None:
        metadata["anytime"] = res.anytime.as_dict()
    if res.profile is not None:
        # Solve-path provenance (oracle searches, batch skips, cut rounds,
        # LP warm starts).  Like wall_clock_seconds it describes *how* the
        # answer was produced, not the answer: comparisons between solve
        # paths strip it (see benchmarks/bench_lp_warmstart.py).
        metadata["profile"] = res.profile
    # The legacy SNEResult reports verified=True when verification was
    # skipped; the canonical report only claims `verified` for an actual
    # equilibrium-checker run.  The LPs solve SNE to optimality; an
    # approximate solve is optimal when its certificate closes the gap.
    return SolveReport(
        solver=solver,
        problem="sne",
        subsidies=res.subsidies,
        budget_used=res.subsidies.cost,
        target_edges=target_edges,
        target_cost=target_cost,
        feasible=res.feasible,
        verified=checked and res.verified and res.feasible,
        optimal=res.feasible and (res.optimal if approx else True),
        metadata=metadata,
        wall_clock_seconds=elapsed,
    )


@register_solver(
    "sne-lp3",
    problem="sne",
    description="LP (3): one row per non-tree incidence (Lemma 2; broadcast)",
    broadcast_only=True,
    requires_tree_state=True,
    # version 3: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget) and LP (3) solves through the session
    # (version 2: LP backend registry — `method` accepts any backend
    # name/alias, the backend joins the metadata, and certify=True attaches
    # an exact rational certificate)
    version="3",
)
def solve_sne_lp3(
    instance: AnyInstance,
    method: str = "highs",
    verify: bool = True,
    certify: bool = False,
) -> SolveReport:
    state = as_tree_state(instance)
    with Timer() as t:
        res = solve_sne_broadcast_lp3(
            state, method=method, verify=verify, certify=certify
        )
    return _report_from_sne(res, state, "sne-lp3", t.elapsed, verify)


@register_solver(
    "sne-cutting-plane",
    problem="sne",
    description="LP (1): exponential LP via shortest-path separation oracle",
    broadcast_only=False,
    requires_tree_state=False,
    aliases=("sne-lp1",),
    # version 5: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget); all-terminal multicast targets the MST
    # (version 4: LP backend registry — backend name joined the metadata,
    # certify=True exact-certifies the final cutting-plane relaxation;
    # version 3: warm-started incremental cutting planes + batched
    # separation oracle, and profile counters joined the report metadata)
    version="5",
)
def solve_sne_cutting_plane(
    instance: AnyInstance,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
    certify: bool = False,
) -> SolveReport:
    state = as_any_state(instance)
    with Timer() as t:
        res = solve_sne_cutting_plane_lp1(
            state,
            method=method,
            max_rounds=max_rounds,
            verify=verify,
            certify=certify,
        )
    return _report_from_sne(res, state, "sne-cutting-plane", t.elapsed, verify)


@register_solver(
    "sne-poly",
    problem="sne",
    description="LP (2): polynomial reformulation with potential variables",
    broadcast_only=False,
    requires_tree_state=False,
    aliases=("sne-lp2",),
    # version 6: potentials shifted to y = d - pi, so the simplex starts at
    # the b = 0 shortest-path distances (the answer can move to another
    # optimal vertex at equal budget)
    # (version 5: HiGHS runs without presolve; all-terminal multicast
    # targets the MST; version 4: LP backend registry — backend name joined
    # the metadata, certify=True exact-certifies the full LP (2);
    # version 3: sparse incremental row construction and profile counters)
    version="6",
)
def solve_sne_poly(
    instance: AnyInstance,
    method: str = "highs",
    verify: bool = True,
    certify: bool = False,
) -> SolveReport:
    state = as_any_state(instance)
    with Timer() as t:
        res = solve_sne_polynomial_lp2(
            state, method=method, verify=verify, certify=certify
        )
    return _report_from_sne(res, state, "sne-poly", t.elapsed, verify)


# ---------------------------------------------------------------------------
# SNE scale tier: certified approximate / anytime solvers
# ---------------------------------------------------------------------------


@register_solver(
    "approx-greedy",
    problem="sne",
    description="certified greedy: full-path subsidies + pooled-row lower bound",
    broadcast_only=False,
    requires_tree_state=False,
    exact=False,
    # version 3: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget); all-terminal multicast targets the MST
    # (version 2: LP backend registry — backend name joined the metadata)
    version="3",
)
def solve_approx_greedy(
    instance: AnyInstance,
    method: str = "highs",
    verify: bool = True,
    bound: str = "auto",
    anytime: bool = False,
    deadline: Optional[float] = None,
    target_gap: Optional[float] = None,
) -> SolveReport:
    state = as_any_state(instance)
    with Timer() as t:
        res = solve_sne_greedy(
            state,
            method=method,
            verify=verify,
            bound=bound,
            anytime=anytime,
            deadline=deadline,
            target_gap=target_gap,
        )
    return _report_from_sne(res, state, "approx-greedy", t.elapsed, verify)


@register_solver(
    "approx-primal-dual",
    problem="sne",
    description="anytime LP(1) cutting planes: monotone certified lower bounds",
    broadcast_only=False,
    requires_tree_state=False,
    exact=False,  # exact at convergence, but deadline/target-gap stop early
    aliases=("approx-anytime",),
    # version 3: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget); all-terminal multicast targets the MST
    # (version 2: LP backend registry — backend name joined the metadata)
    version="3",
)
def solve_approx_primal_dual(
    instance: AnyInstance,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
    anytime: bool = False,
    deadline: Optional[float] = None,
    target_gap: Optional[float] = None,
) -> SolveReport:
    state = as_any_state(instance)
    with Timer() as t:
        res = solve_sne_primal_dual(
            state,
            method=method,
            max_rounds=max_rounds,
            verify=verify,
            anytime=anytime,
            deadline=deadline,
            target_gap=target_gap,
        )
    return _report_from_sne(res, state, "approx-primal-dual", t.elapsed, verify)


# ---------------------------------------------------------------------------
# SNE: the Theorem 6 constructive wgt(T)/e algorithm
# ---------------------------------------------------------------------------


@register_solver(
    "theorem6",
    problem="sne",
    description="Theorem 6 constructive subsidies: exactly wgt(T)/e on an MST",
    broadcast_only=True,
    requires_tree_state=True,
    exact=False,  # matches the 1/e guarantee, not the instance optimum
    version="1",
)
def solve_theorem6(instance: AnyInstance, check_level_totals: bool = True) -> SolveReport:
    state = as_tree_state(instance)
    with Timer() as t:
        res = theorem6_subsidies(state, check_level_totals=check_level_totals)
        verified = check_equilibrium(state, res.subsidies, tol=1e-7).is_equilibrium
    target_edges, target_cost = _target_of(state)
    return SolveReport(
        solver="theorem6",
        problem="sne",
        subsidies=res.subsidies,
        budget_used=res.subsidies.cost,
        target_edges=target_edges,
        target_cost=target_cost,
        feasible=True,
        verified=verified,
        optimal=False,
        metadata={
            "method": "theorem6",
            "levels": len(res.levels),
            "bound": res.bound,
            "fraction": res.fraction,
            "tree_weight": res.tree_weight,
        },
        wall_clock_seconds=t.elapsed,
    )


# ---------------------------------------------------------------------------
# All-or-nothing SNE (Section 5)
# ---------------------------------------------------------------------------


def _report_from_aon(
    res: AONResult, state: TreeState, solver: str, elapsed: float
) -> SolveReport:
    target_edges, target_cost = _target_of(state)
    return SolveReport(
        solver=solver,
        problem="aon-sne",
        subsidies=res.subsidies,
        budget_used=res.subsidies.cost,
        target_edges=target_edges,
        target_cost=target_cost,
        feasible=True,
        verified=res.verified,
        optimal=res.optimal,
        metadata={"method": res.method, "nodes_explored": res.nodes_explored},
        wall_clock_seconds=elapsed,
    )


@register_solver(
    "aon-exact",
    problem="aon-sne",
    description="all-or-nothing SNE: exact branch & bound over edge funding",
    broadcast_only=True,
    requires_tree_state=True,
    # version 2: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget)
    version="2",
)
def solve_aon_exact(
    instance: AnyInstance,
    method: str = "highs",
    max_nodes: int = 100_000,
    tol: float = 1e-6,
) -> SolveReport:
    state = as_tree_state(instance)
    with Timer() as t:
        res = solve_aon_sne_exact(state, method=method, max_nodes=max_nodes, tol=tol)
    return _report_from_aon(res, state, "aon-exact", t.elapsed)


@register_solver(
    "aon-greedy",
    problem="aon-sne",
    description="all-or-nothing SNE: least-crowded-edge greedy heuristic",
    broadcast_only=True,
    requires_tree_state=True,
    exact=False,
    version="1",
)
def solve_aon_greedy(instance: AnyInstance, max_steps: Optional[int] = None) -> SolveReport:
    state = as_tree_state(instance)
    with Timer() as t:
        res = greedy_aon_sne(state, max_steps=max_steps)
    return _report_from_aon(res, state, "aon-greedy", t.elapsed)


# ---------------------------------------------------------------------------
# Combinatorial (LP-free) SNE — the paper's §6 open problem
# ---------------------------------------------------------------------------


@register_solver(
    "combinatorial",
    problem="sne",
    description="LP-free water-filling SNE (exact on nested-constraint families)",
    broadcast_only=True,
    requires_tree_state=True,
    exact=False,
    version="1",
)
def solve_combinatorial(
    instance: AnyInstance,
    max_iterations: Optional[int] = None,
    tol: float = LP_TOL,
) -> SolveReport:
    state = as_tree_state(instance)
    with Timer() as t:
        res = combinatorial_sne(state, max_iterations=max_iterations, tol=tol)
    target_edges, target_cost = _target_of(state)
    return SolveReport(
        solver="combinatorial",
        problem="sne",
        subsidies=res.subsidies,
        budget_used=res.subsidies.cost,
        target_edges=target_edges,
        target_cost=target_cost,
        feasible=res.verified,
        verified=res.verified,
        optimal=False,
        metadata={
            "method": "waterfill",
            "iterations": res.iterations,
            "converged": res.converged,
        },
        wall_clock_seconds=t.elapsed,
    )


# ---------------------------------------------------------------------------
# Stable network design (Section 3): the solver picks the tree
# ---------------------------------------------------------------------------


def _report_from_snd(
    res: Optional[SNDResult],
    game: BroadcastGame,
    budget: float,
    solver: str,
    elapsed: float,
) -> SolveReport:
    if res is None:
        return SolveReport(
            solver=solver,
            problem="snd",
            subsidies=SubsidyAssignment.zero(game.graph),
            budget_used=0.0,
            target_edges=(),
            target_cost=0.0,
            feasible=False,
            verified=False,
            optimal=False,
            metadata={"method": "none", "budget": budget},
            wall_clock_seconds=elapsed,
        )
    within = res.subsidy_cost <= budget + LP_TOL * max(1.0, budget)
    state = game.tree_state(res.tree_edges)
    verified = check_equilibrium(state, res.subsidies, tol=LP_TOL).is_equilibrium
    return SolveReport(
        solver=solver,
        problem="snd",
        subsidies=res.subsidies,
        budget_used=res.subsidy_cost,
        target_edges=tuple(res.tree_edges),
        target_cost=res.weight,
        feasible=within,
        verified=verified and within,
        optimal=res.optimal,
        metadata={"method": res.method, "budget": budget},
        wall_clock_seconds=elapsed,
    )


def _default_budget(game: BroadcastGame, budget: Optional[float]) -> float:
    # wgt(MST) always suffices (full subsidies on the MST), so it is the
    # natural "unconstrained" default.
    return game.mst_weight() if budget is None else float(budget)


@register_solver(
    "snd-exact",
    problem="snd",
    description="SND: exact spanning-tree enumeration under a subsidy budget",
    broadcast_only=True,
    requires_tree_state=False,
    # version 2: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget)
    version="2",
)
def solve_snd_exact_adapter(
    instance: AnyInstance,
    budget: Optional[float] = None,
    all_or_nothing: bool = False,
    method: str = "highs",
    tree_limit: Optional[int] = None,
) -> SolveReport:
    game = as_broadcast_game(instance)
    b = _default_budget(game, budget)
    with Timer() as t:
        res = solve_snd_exact(
            game, budget=b, all_or_nothing=all_or_nothing, method=method, tree_limit=tree_limit
        )
    return _report_from_snd(res, game, b, "snd-exact", t.elapsed)


@register_solver(
    "snd-local-search",
    problem="snd",
    description="SND heuristic: MST-first, BRD fallback, edge-swap local search",
    broadcast_only=True,
    requires_tree_state=False,
    exact=False,
    aliases=("snd-heuristic",),
    # version 2: HiGHS runs without presolve (an answer can move to another
    # optimal vertex at equal budget)
    version="2",
)
def solve_snd_local_search(
    instance: AnyInstance,
    budget: Optional[float] = None,
    all_or_nothing: bool = False,
    method: str = "highs",
) -> SolveReport:
    game = as_broadcast_game(instance)
    b = _default_budget(game, budget)
    with Timer() as t:
        res = snd_heuristic(game, budget=b, all_or_nothing=all_or_nothing, method=method)
    return _report_from_snd(res, game, b, "snd-local-search", t.elapsed)
