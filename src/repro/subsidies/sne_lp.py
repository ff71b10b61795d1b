"""STABLE NETWORK ENFORCEMENT via linear programming (Theorem 1, Lemma 2).

Three formulations, exactly as in the paper:

* **LP (1)** — one constraint per player-deviation path (exponentially
  many), solved by constraint generation with the paper's shortest-path
  separation oracle (:func:`solve_sne_cutting_plane_lp1`).
* **LP (2)** — the polynomial-size reformulation with shortest-path
  potential variables ``pi_i(v)`` (:func:`solve_sne_polynomial_lp2`).
* **LP (3)** — the broadcast-specific LP with one constraint per non-tree
  edge incidence (:func:`solve_sne_broadcast_lp3`), whose correctness is
  Lemma 2.

All solvers minimize total subsidies enforcing the given target state and
re-verify the result with the exact equilibrium checker.  ``method``
accepts any :mod:`repro.lp.backends` registry name or alias, and
``certify=True`` re-derives the float verdict with the Fraction-exact
backend, attaching a rationally-verified
:class:`~repro.lp.backends.ExactCertificate` to the result: LP (2)/LP (3)
certify the full LP; LP (1) certifies the final accumulated cutting-plane
relaxation, whose exact optimum brackets the true LP (1) optimum from
below while the converged float solution brackets it from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.lp import (
    ExactCertificate,
    IncrementalLP,
    LinearProgram,
    LPStatus,
    certify_result,
    get_backend,
    solve_lp,
    solve_with_cutting_planes,
)
from repro.lp.incremental import sparse_row
from repro.games.broadcast import TreeState
from repro.games.engine import BestResponseEngine, _StateBinding
from repro.games.equilibrium import check_equilibrium
from repro.games.game import State
from repro.subsidies.assignment import SubsidyAssignment
from repro.utils.tolerances import LP_TOL

AnyState = Union[State, TreeState]


@dataclass
class SNEResult:
    """Outcome of an SNE solve."""

    subsidies: SubsidyAssignment
    cost: float
    feasible: bool
    #: True when the subsidized target passed the exact equilibrium re-check.
    verified: bool
    method: str
    #: cutting-plane bookkeeping (LP (1) only)
    rounds: int = 1
    cuts: int = 0
    #: oracle/LP work counters for this solve (LP (1)/LP (2)): see
    #: :class:`repro.games.engine.OracleStats` — dijkstra_calls,
    #: players_batched, cut_rounds, warm_start_hits
    profile: Optional[Dict[str, int]] = None
    #: canonical name of the LP backend that produced the float answer
    backend: Optional[str] = None
    #: exact rational re-derivation of the verdict (``certify=True`` only)
    certificate: Optional[ExactCertificate] = None

    def fraction_of_target(self, target_weight: float) -> float:
        return self.subsidies.fraction_of(target_weight)


def _infeasible(
    graph: Graph,
    method: str,
    backend: Optional[str] = None,
    certificate: Optional[ExactCertificate] = None,
) -> SNEResult:
    return SNEResult(
        SubsidyAssignment.zero(graph),
        float("inf"),
        False,
        False,
        method,
        backend=backend,
        certificate=certificate,
    )


def _certify_lp(
    lp: Union[LinearProgram, IncrementalLP],
    formulation: str,
    float_objective: Optional[float],
) -> ExactCertificate:
    """Exact-solve (the dense twin of) ``lp`` and self-verify the proof."""
    dense = lp.to_linear_program() if isinstance(lp, IncrementalLP) else lp
    subject: Dict[str, object] = {"formulation": formulation}
    if float_objective is not None:
        subject["float_objective"] = float(float_objective)
    return certify_result(dense, subject=subject)


def _verify_with_binding(
    engine: BestResponseEngine,
    binding: _StateBinding,
    subsidies: SubsidyAssignment,
    fast: bool,
) -> bool:
    """Exact equilibrium re-check through the solver's own binding.

    Equivalent to :func:`check_equilibrium` (same scan, same tolerance);
    routed through the binding so the cold reference path (``fast=False``)
    can verify via :meth:`~repro.games.engine._StateBinding.scan_legacy`
    and stay entirely on pre-batching code.
    """
    wb = engine.net_weights(engine.subsidy_vector(subsidies))
    scan = binding.scan if fast else binding.scan_legacy
    return not scan(wb, tol=LP_TOL)


# ---------------------------------------------------------------------------
# LP (3): broadcast games, one constraint per non-tree incidence (Lemma 2)
# ---------------------------------------------------------------------------


def build_broadcast_lp3(state: TreeState) -> Tuple[IncrementalLP, List[Edge]]:
    """Materialize LP (3) for a broadcast tree state, as sparse rows.

    Variables: one subsidy per tree edge (in the returned edge order).  For
    every node ``u`` and graph neighbor ``v`` with ``(u, v)`` not in ``T``
    the constraint compares the cost of ``T_u`` against deviating along
    ``(u, v)`` and then ``T_v``; the common suffix above ``lca(u, v)``
    cancels (as in the Lemma 2 proof), so rows only involve the disjoint
    subpaths.  Exposed separately because the all-or-nothing branch-and-bound
    reuses the same rows (through the dense twin,
    :meth:`~repro.lp.incremental.IncrementalLP.to_linear_program`) with
    tightened variable bounds.

    The rows are collected in CSR form and appended with one
    :meth:`~repro.lp.incremental.IncrementalLP.add_rows` call, giving the
    same buffers as appending them one ``add_sparse_constraint`` at a time.
    """
    game = state.game
    graph = game.graph
    tree = state.tree
    edges: List[Edge] = state.edges
    index = {e: i for i, e in enumerate(edges)}
    n_vars = len(edges)

    c = np.ones(n_vars)
    upper = np.array([graph.weight(*e) for e in edges])
    lp = IncrementalLP(n_vars, c=c, upper=upper)

    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    bounds: List[float] = []
    tree_edge_set = set(edges)
    for u in graph.nodes:
        if u == game.root:
            continue
        if game.multiplicity.get(u, 1) == 0:
            continue
        for v in graph.neighbors(u):
            e_uv = canonical_edge(u, v)
            if e_uv in tree_edge_set:
                continue
            # Disjoint subpaths u->lca and v->lca; shared suffix cancels.
            w = tree.lca(u, v)
            coeffs: Dict[int, float] = {}
            rhs = graph.weight(u, v)
            x = u
            while x != w:
                e = tree.edge_to_parent(x)
                n_a = state.loads[e]
                coeffs[index[e]] = coeffs.get(index[e], 0.0) - 1.0 / n_a
                rhs -= graph.weight(*e) / n_a
                x = tree.parent[x]
            x = v
            while x != w:
                e = tree.edge_to_parent(x)
                n_a = state.loads[e] + 1  # deviator joins these edges
                coeffs[index[e]] = coeffs.get(index[e], 0.0) + 1.0 / n_a
                rhs += graph.weight(*e) / n_a
                x = tree.parent[x]
            # The two subpaths are edge-disjoint, so no coefficient sums
            # to zero and the row is exactly the sorted dict.
            if coeffs:
                cols = sorted(coeffs)
                indices.extend(cols)
                data.extend(coeffs[i] for i in cols)
                indptr.append(len(indices))
                bounds.append(rhs)

    lp.add_rows(indptr, indices, data, bounds)
    return lp, edges


def solve_sne_broadcast_lp3(
    state: TreeState,
    method: str = "highs",
    verify: bool = True,
    certify: bool = False,
) -> SNEResult:
    """Minimum subsidies enforcing a broadcast tree state, via LP (3)."""
    graph = state.game.graph
    backend = get_backend(method).name
    lp, edges = build_broadcast_lp3(state)
    res = lp.solve(method=method)
    if res.status is not LPStatus.OPTIMAL:
        cert = _certify_lp(lp, "lp3", None) if certify else None
        return _infeasible(graph, "lp3", backend=backend, certificate=cert)
    cert = _certify_lp(lp, "lp3", res.objective) if certify else None
    subsidies = SubsidyAssignment.from_vector(graph, edges, res.x)
    verified = (
        check_equilibrium(state, subsidies, tol=LP_TOL).is_equilibrium if verify else True
    )
    return SNEResult(
        subsidies,
        subsidies.cost,
        True,
        verified,
        "lp3",
        backend=backend,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# LP (1): exponential LP + separation oracle, via cutting planes
# ---------------------------------------------------------------------------


def solve_sne_cutting_plane_lp1(
    state: AnyState,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
    fast: bool = True,
    certify: bool = False,
) -> SNEResult:
    """Minimum subsidies via the exponential LP (1) + separation oracle.

    Works for *every* game family — broadcast trees, general states, and
    the rule-priced families (weighted demands, per-edge splits, directed
    arcs): the state's engine binding both prices the separation oracle
    and supplies the cut-row share coefficients
    (:meth:`~repro.games.engine._StateBinding.current_share_coeff` /
    ``joining_share_coeff``), so the LP never needs to know which sharing
    rule is in force.  Variables cover *all* graph edges (as in the
    paper's presentation); optimal solutions put nothing on non-target
    edges, which the tests assert.

    Each violated deviation contributes the LP (1) row::

        sum_{a in T_i} c_a (w_a - b_a)  -  sum_{a in T'} c'_a (w_a - b_a) <= 0

    with ``c_a = 1/n_a`` and ``c'_a = 1/(n_a + 1 - n_a^i)`` under fair
    sharing (``alpha_i(a)/L_a`` and ``alpha_i(a)/(L_a + alpha_i(a) -
    alpha_i(a) n_a^i)`` in general); edges on both paths carry equal
    coefficients and cancel exactly.

    ``fast`` (the default) runs the optimized subsystem: cut rows append
    into a sparse :class:`~repro.lp.incremental.IncrementalLP` and every
    re-solve warm-starts from the previous round, while the separation
    oracle batches its per-player searches (Lemma 2 certificates for
    broadcast, shared-target group searches otherwise).  ``fast=False``
    keeps the cold-rebuild reference path — dense LP rebuilt per round,
    one isolated search per player — which admits exactly the same cuts
    and returns identical results; ``benchmarks/bench_lp_warmstart.py``
    gates the speedup and the equality.
    """
    graph = state.game.graph
    engine = BestResponseEngine.for_graph(graph)
    binding = engine.bind(state)
    stats = engine.stats
    before = stats.snapshot()
    ig = engine.ig
    n_vars = engine.num_edges
    all_edges: List[Edge] = list(ig.edge_labels)
    weights = ig.edge_weights
    cur_path = binding.current_path_eids  # resolved lazily per violated player
    scan = binding.scan if fast else binding.scan_legacy

    lp: Union[IncrementalLP, LinearProgram]
    if fast:
        lp = IncrementalLP(n_vars, c=np.ones(n_vars), upper=weights.copy())
    else:
        lp = LinearProgram(n_vars=n_vars, c=np.ones(n_vars), upper=weights.copy())

    def oracle(x: np.ndarray):
        b = np.where(x > 1e-12, x, 0.0)
        wb = np.maximum(0.0, weights - b)
        cuts = []
        for rec in scan(wb, tol=LP_TOL, find_all=True):
            row = np.zeros(n_vars)
            rhs = 0.0
            for e in cur_path(rec.position):
                c = binding.current_share_coeff(rec.position, e)
                row[e] -= c
                rhs -= weights[e] * c
            for e in rec.edge_ids:
                c = binding.joining_share_coeff(rec.position, e)
                row[e] += c
                rhs += weights[e] * c
            cuts.append((row, float(rhs)))
        return cuts

    backend = get_backend(method).name
    out = solve_with_cutting_planes(lp, oracle, method=method, max_rounds=max_rounds)
    stats.cut_rounds += out.rounds
    if isinstance(lp, IncrementalLP):
        stats.warm_start_hits += lp.stats.warm_start_hits
    if not out.ok:
        return _infeasible(graph, "lp1", backend=backend)
    # LP (1) certification targets the *final accumulated relaxation* —
    # exactly the LP whose optimum the float answer is.  Its exact optimum
    # is a certified lower bound on the full (exponential) LP (1) optimum,
    # and the converged float solution is primal-feasible for it, so the
    # pair brackets the true optimum.
    cert = (
        _certify_lp(lp, "lp1-relaxation", out.result.objective) if certify else None
    )
    subsidies = SubsidyAssignment.from_vector(graph, all_edges, out.result.x)
    verified = (
        _verify_with_binding(engine, binding, subsidies, fast) if verify else True
    )
    return SNEResult(
        subsidies,
        subsidies.cost,
        True,
        verified,
        "lp1",
        rounds=out.rounds,
        cuts=out.cuts_added,
        profile=stats.delta(before),
        backend=backend,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# LP (2): polynomial-size reformulation with potential variables
# ---------------------------------------------------------------------------


def build_polynomial_lp2(
    state: AnyState, fast: bool = True
) -> Tuple[Union[IncrementalLP, LinearProgram], List[Edge]]:
    """Materialize LP (2) for a target state.

    Variables: ``b_a`` for every edge (in the returned edge order) plus
    ``pi_i(v)`` for every player and node.  Per player, one row per
    allowed arc, in ``graph.edges()`` order with the directions ``(u, v)``
    then ``(v, u)``, followed by the player's path row.

    With ``fast`` (the default) each player's arc rows are computed as
    numpy arrays, with the same float operations in the same order as a
    row-by-row build, and the whole LP is appended to a sparse
    :class:`~repro.lp.incremental.IncrementalLP` as one CSR block; its
    buffers are byte-identical to appending the rows one at a time.
    ``fast=False`` keeps the dense row-by-row reference build.
    """
    game = state.game
    graph = game.graph
    allows = getattr(game, "allows", None)
    if isinstance(state, TreeState):
        players = [
            (u, game.root, state.tree.path_to_root(u))
            for u in game.player_nodes()
        ]
        usage: Dict[Edge, float] = dict(state.loads)

        def alpha(i: int, e: Edge) -> float:
            return 1.0

    else:
        players = [
            (p.source, p.target, list(state.edge_paths[p.index]))
            for p in game.players
        ]
        load = getattr(state, "load", None)
        usage = dict(load) if load is not None else dict(state.usage)
        alpha = game.cost_sharing.weight_on

    all_edges = [canonical_edge(u, v) for u, v, _ in graph.edges()]
    e_index = {e: i for i, e in enumerate(all_edges)}
    m = len(all_edges)
    nodes = graph.nodes
    v_index = {v: i for i, v in enumerate(nodes)}
    n_nodes = len(nodes)
    n_players = len(players)
    n_vars = m + n_players * n_nodes

    def pi_var(i: int, v: Node) -> int:
        return m + i * n_nodes + v_index[v]

    c = np.zeros(n_vars)
    c[:m] = 1.0
    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    upper[:m] = [graph.weight(*e) for e in all_edges]
    for i, (s_i, _t_i, _path) in enumerate(players):
        upper[pi_var(i, s_i)] = 0.0  # pi_i(s_i) = 0 via bounds

    def path_row(
        i: int, t_i: Node, path: List[Edge]
    ) -> Tuple[List[Tuple[int, float]], float]:
        # pi_i(t_i) >= cost_i(T; b):
        #   -pi(t_i) - sum alpha b_a/L_a <= -sum alpha w_a/L_a
        entries = [(pi_var(i, t_i), -1.0)]
        rhs = 0.0
        for e in path:
            a_i = alpha(i, e)
            n_a = usage[e]
            entries.append((e_index[e], -a_i / n_a))
            rhs -= a_i * graph.weight(*e) / n_a
        return entries, rhs

    if not fast:
        lp = LinearProgram(n_vars=n_vars, c=c, lower=lower, upper=upper)
        for i, (s_i, t_i, path) in enumerate(players):
            own = set(path)
            # Edge relaxations: pi(v) <= pi(u) + alpha (w - b)/d per allowed arc.
            for u, v, w in graph.edges():
                e = canonical_edge(u, v)
                a_i = alpha(i, e)
                d = usage.get(e, 0) + a_i - (a_i if e in own else 0)
                for tail, head in ((u, v), (v, u)):
                    if allows is not None and not allows(tail, head):
                        continue
                    # pi(head) - pi(tail) + alpha b_e/d <= alpha w/d
                    lp.add_sparse_constraint(
                        [
                            (pi_var(i, head), 1.0),
                            (pi_var(i, tail), -1.0),
                            (e_index[e], a_i / d),
                        ],
                        a_i * w / d,
                    )
            lp.add_sparse_constraint(*path_row(i, t_i, path))
        return lp, all_edges

    # The arc table, built once: edge column, tail/head node offsets and
    # weight of every allowed arc, in the row-by-row build's order.
    arcs = [
        (e_index[canonical_edge(u, v)], v_index[tail], v_index[head], w)
        for u, v, w in graph.edges()
        for tail, head in ((u, v), (v, u))
        if allows is None or allows(tail, head)
    ]
    n_arcs = len(arcs)
    edge_col = np.array([arc[0] for arc in arcs], dtype=np.int64)
    tail_off = np.array([arc[1] for arc in arcs], dtype=np.int64)
    head_off = np.array([arc[2] for arc in arcs], dtype=np.int64)
    w_arc = np.array([arc[3] for arc in arcs], dtype=np.float64)
    usage_arc = np.array([usage.get(e, 0) for e in all_edges], dtype=np.float64)[edge_col]
    # Every edge column precedes every pi column, so an arc row's sorted
    # columns are b_e, then the lower and the higher of pi(head), pi(tail).
    head_first = head_off < tail_off
    lo_off = np.where(head_first, head_off, tail_off)
    hi_off = np.where(head_first, tail_off, head_off)
    lo_val = np.where(head_first, 1.0, -1.0)

    indices: List[np.ndarray] = []
    data: List[np.ndarray] = []
    row_nnz: List[np.ndarray] = []
    rhs: List[float] = []
    for i, (_s_i, t_i, path) in enumerate(players):
        if isinstance(state, TreeState):  # fair sharing: alpha = 1 everywhere
            a = np.ones(n_arcs)
        else:
            a = np.array([alpha(i, e) for e in all_edges], dtype=np.float64)[edge_col]
        own = np.zeros(m, dtype=bool)
        own[[e_index[e] for e in path]] = True
        d = usage_arc + a - np.where(own[edge_col], a, 0.0)
        if np.any(d == 0.0):
            raise ZeroDivisionError("float division by zero")
        coef = a / d
        base = m + i * n_nodes
        cols = np.stack([edge_col, base + lo_off, base + hi_off], axis=1)
        vals = np.stack([coef, lo_val, -lo_val], axis=1)
        keep = np.ones((n_arcs, 3), dtype=bool)
        keep[:, 0] = coef != 0.0  # a zero alpha drops b_e, as sparse_row does
        indices.append(cols[keep])
        data.append(vals[keep])
        row_nnz.append(keep.sum(axis=1))
        rhs.extend((a * w_arc / d).tolist())

        entries, path_rhs = path_row(i, t_i, path)
        path_cols, path_vals = sparse_row(entries, n_vars)
        indices.append(path_cols)
        data.append(path_vals)
        row_nnz.append(np.array([len(path_cols)]))
        rhs.append(path_rhs)

    inc = IncrementalLP(n_vars, c=c, lower=lower, upper=upper)
    if players:
        nnz = np.concatenate(row_nnz)
        indptr = np.zeros(len(nnz) + 1, dtype=np.int64)
        np.cumsum(nnz, out=indptr[1:])
        inc.add_rows(indptr, np.concatenate(indices), np.concatenate(data), rhs)
    return inc, all_edges


def solve_sne_polynomial_lp2(
    state: AnyState,
    method: str = "highs",
    verify: bool = True,
    fast: bool = True,
    certify: bool = False,
) -> SNEResult:
    """Minimum subsidies via the polynomial LP (2).

    Variables: ``b_a`` for every edge plus ``pi_i(v)`` for every player and
    node.  ``pi_i`` is a certified lower bound on the deviator-priced
    shortest-path distance from ``s_i``; requiring ``pi_i(t_i) >=
    cost_i(T; b)`` is then exactly the equilibrium condition.

    Family-aware like LP (1): rule-priced states (weighted demands,
    per-edge splits) contribute ``alpha_i(a)``-scaled coefficients, and
    directed games only get edge relaxations along their allowed arcs.

    LP (2) rows are 3-sparse in ``n_players * n_nodes + n_edges``
    variables, so the dense materialization is quadratically wasteful;
    with ``fast`` (the default) :func:`build_polynomial_lp2` assembles
    them as one sparse block instead.  ``fast=False`` keeps the dense
    reference build (identical rows, identical solution).
    """
    graph = state.game.graph
    lp, all_edges = build_polynomial_lp2(state, fast=fast)
    m = len(all_edges)
    engine = BestResponseEngine.for_graph(graph)
    stats = engine.stats
    before = stats.snapshot()

    backend = get_backend(method).name
    if isinstance(lp, IncrementalLP):
        res = lp.solve(method=method)
        stats.warm_start_hits += lp.stats.warm_start_hits
    else:
        res = solve_lp(lp, method=method)
    if res.status is not LPStatus.OPTIMAL:
        cert = _certify_lp(lp, "lp2", None) if certify else None
        return _infeasible(graph, "lp2", backend=backend, certificate=cert)
    cert = _certify_lp(lp, "lp2", res.objective) if certify else None
    subsidies = SubsidyAssignment.from_vector(graph, all_edges, res.x[:m])
    # The engine binding is only needed (and only built) for verification.
    verified = (
        _verify_with_binding(engine, engine.bind(state), subsidies, fast)
        if verify
        else True
    )
    return SNEResult(
        subsidies,
        subsidies.cost,
        True,
        verified,
        "lp2",
        profile=stats.delta(before),
        backend=backend,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


def solve_sne(
    state: AnyState,
    formulation: str = "auto",
    method: str = "highs",
    verify: bool = True,
    fast: bool = True,
) -> SNEResult:
    """Solve the optimization version of SNE for a target state.

    .. deprecated:: 1.1
        Prefer the unified facade: ``repro.api.solve(state, solver="sne-lp3")``
        (or ``"sne-poly"`` / ``"sne-cutting-plane"``), which returns a
        canonical :class:`repro.api.SolveReport`.  This function remains as a
        thin compatibility shim.

    ``formulation``: ``"lp3"`` (broadcast only), ``"lp2"``, ``"lp1"`` or
    ``"auto"`` (LP (3) for broadcast states, LP (1) otherwise).
    """
    if formulation == "auto":
        formulation = "lp3" if isinstance(state, TreeState) else "lp1"
    if formulation == "lp3":
        if not isinstance(state, TreeState):
            raise ValueError("LP (3) applies to broadcast tree states only")
        return solve_sne_broadcast_lp3(state, method=method, verify=verify)
    if formulation == "lp2":
        return solve_sne_polynomial_lp2(state, method=method, verify=verify, fast=fast)
    if formulation == "lp1":
        return solve_sne_cutting_plane_lp1(state, method=method, verify=verify, fast=fast)
    raise ValueError(f"unknown formulation {formulation!r}")
