"""STABLE NETWORK ENFORCEMENT via linear programming (Theorem 1, Lemma 2).

Three formulations, as in the paper, with LP (2) up to ``pi = d - y``:

* **LP (1)** — one constraint per player-deviation path (exponentially
  many), solved by constraint generation with the paper's shortest-path
  separation oracle (:func:`solve_sne_cutting_plane_lp1`).
* **LP (2)** — the polynomial-size reformulation with shortest-path
  potential variables ``pi_i(v)`` (:func:`solve_sne_polynomial_lp2`),
  written in ``y_i(v) = d_i(v) - pi_i(v)`` with ``d_i`` the player's
  distances at ``b = 0``.  It is the same LP (any feasible ``pi`` lies
  below ``d``), but the simplex then starts from the ``b = 0``
  potentials instead of raising every ``pi`` from 0, which saves most
  of its iterations (:func:`build_polynomial_lp2`).
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
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.graphs.core import IndexedGraph
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.lp import (
    ExactCertificate,
    IncrementalLP,
    LPStatus,
    certify_result,
    get_backend,
    solve_with_cutting_planes,
)
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
    lp: IncrementalLP,
    formulation: str,
    float_objective: Optional[float],
) -> ExactCertificate:
    """Exact-solve the dense twin of ``lp`` and self-verify the proof."""
    dense = lp.to_linear_program()
    subject: Dict[str, object] = {"formulation": formulation}
    if float_objective is not None:
        subject["float_objective"] = float(float_objective)
    return certify_result(dense, subject=subject)


def _verify_with_binding(
    engine: BestResponseEngine,
    binding: _StateBinding,
    subsidies: SubsidyAssignment,
) -> bool:
    """Equilibrium re-check through the solver's own binding, in float at
    ``LP_TOL``: the scan :func:`check_equilibrium` runs, on a binding the
    solver has already built.
    """
    wb = engine.net_weights(engine.subsidy_vector(subsidies))
    return not binding.scan(wb, tol=LP_TOL)


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

    The rows are a view of the engine binding's Lemma 2 certificate
    blocks (:meth:`~repro.games.engine._TreeBinding.lemma2_blocks`), the
    same incidences the solve's verification checks, so the walk runs
    once per state.  Each right-hand side is one row-wise ``cumsum`` of
    ``[w_uv, -w_a / n_a ..., +w_a / (n_a + 1) ...]`` in walk order, which
    adds the terms of a scalar walk in its order, and the rows come out
    in ``graph.nodes`` x adjacency insertion order, columns sorted.
    """
    game = state.game
    graph = game.graph
    edges: List[Edge] = state.edges
    engine = BestResponseEngine.for_graph(graph)
    binding = engine.bind(state)
    ig = engine.ig
    m = engine.num_edges
    w = engine.edge_weights
    n_vars = len(edges)
    tree_eids = np.array([ig.edge_id_of(e) for e in edges], dtype=np.int64).reshape(n_vars)
    lp = IncrementalLP(n_vars, c=np.ones(n_vars), upper=w[tree_eids])

    # Per certificate slot (current shares, joining shares, weights, the
    # 0.0 pad): the term it adds to a right-hand side, and its column and
    # coefficient.  Edges no player uses (n_a = 0) are never read.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.concatenate([-(w / binding.usage), w / (binding.usage + 1), w, [0.0]])
        coef = np.concatenate([-(1.0 / binding.usage), 1.0 / (binding.usage + 1)])
    col = np.full(2 * m, -1, dtype=np.int64)
    col[tree_eids] = col[m + tree_eids] = np.arange(n_vars)

    row_of = _lp3_row_order(graph, ig, binding._incidences)
    bounds = np.empty(len(row_of))
    rows, slots = [], []
    for lhs, rhs, incidence in binding.lemma2_blocks():
        r = row_of[incidence]
        walk = np.hstack([rhs[:, :1], lhs, rhs[:, 1:]])
        bounds[r] = np.cumsum(term[walk], axis=1)[:, -1]
        own = np.hstack([lhs, rhs[:, 1:]])
        used = own != 3 * m
        rows.append(np.broadcast_to(r[:, None], own.shape)[used])
        slots.append(own[used])
    # u != v, so one side of every incidence is nonempty: no row is empty.
    row = np.concatenate([np.empty(0, dtype=np.int64), *rows])
    slot = np.concatenate([np.empty(0, dtype=np.int64), *slots])
    # A row's columns are distinct (its two subpaths are edge-disjoint),
    # so the keys are too.
    order = np.argsort(row * n_vars + col[slot])
    slot = slot[order]
    indptr = np.zeros(len(row_of) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(row_of)), out=indptr[1:])
    lp.add_rows(indptr, col[slot], coef[slot], bounds)
    return lp, edges


def _lp3_row_order(
    graph: Graph, ig: IndexedGraph, incidences: List[Tuple[int, int, int]]
) -> np.ndarray:
    """LP (3) row of each certificate incidence.

    The binding lists incidences per player (``graph.nodes`` order) in
    CSR order, by neighbor id; LP (3) keeps each player's rows in the
    graph's adjacency insertion order.  Both orders key an arc
    ``(u, v)`` by ``id(u) * n + id(v)``.
    """
    n = ig.num_nodes
    id_of = ig.id_of
    nodes = graph.nodes
    heads = np.fromiter(
        map(id_of, chain.from_iterable(map(graph.adjacency, nodes))),
        dtype=np.int64,
        count=2 * ig.num_edges,
    )
    tails = np.repeat(
        np.fromiter(map(id_of, nodes), dtype=np.int64, count=len(nodes)),
        np.fromiter(map(graph.degree, nodes), dtype=np.int64, count=len(nodes)),
    )
    arcs = tails * n + heads
    by_key = np.argsort(arcs)
    keys = np.fromiter(
        (u * n + v for u, v, _e in incidences), dtype=np.int64, count=len(incidences)
    )
    inserted = by_key[np.searchsorted(arcs[by_key], keys)]
    row_of = np.empty(len(incidences), dtype=np.int64)
    row_of[np.argsort(inserted)] = np.arange(len(incidences))
    return row_of


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


class LP1Separation:
    """LP (1)'s separation oracle over one target state, for every solver.

    The state's engine binding both prices the oracle's shortest-path
    scan and supplies the cut-row share coefficients
    (:meth:`~repro.games.engine._StateBinding.current_share_coeff` /
    ``joining_share_coeff``), so nothing here needs to know which sharing
    rule is in force.

    :meth:`rows` is LP (1)'s one row builder: the exact solver's cuts, the
    greedy's pooled rows and the primal-dual's cuts all come from it.
    """

    def __init__(self, state: AnyState) -> None:
        self.graph = state.game.graph
        self.engine = BestResponseEngine.for_graph(self.graph)
        self.binding = self.engine.bind(state)
        self.stats = self.engine.stats
        self._before = self.stats.snapshot()
        self.weights = self.engine.ig.edge_weights

    def rows(self, b: np.ndarray) -> List[Tuple[object, np.ndarray, float]]:
        """Every player violated at subsidies ``b``, with its LP (1) row.

        Each violated deviation gives ``(record, row, rhs)`` for the row
        ``row . b <= rhs``, that is::

            sum_{a in T_i} c_a (w_a - b_a)  -  sum_{a in T'} c'_a (w_a - b_a) <= 0

        with ``c_a = 1/n_a`` and ``c'_a = 1/(n_a + 1 - n_a^i)`` under fair
        sharing (``alpha_i(a)/L_a`` and ``alpha_i(a)/(L_a + alpha_i(a) -
        alpha_i(a) n_a^i)`` in general); edges on both paths carry equal
        coefficients and cancel exactly.
        """
        weights = self.weights
        binding = self.binding
        out = []
        for rec in binding.scan(np.maximum(0.0, weights - b), tol=LP_TOL, find_all=True):
            row = np.zeros(len(weights))
            rhs = 0.0
            for e in binding.current_path_eids(rec.position):
                c = binding.current_share_coeff(rec.position, e)
                row[e] -= c
                rhs -= weights[e] * c
            for e in rec.edge_ids:
                c = binding.joining_share_coeff(rec.position, e)
                row[e] += c
                rhs += weights[e] * c
            out.append((rec, row, float(rhs)))
        return out

    def cuts(self, x: np.ndarray) -> List[Tuple[np.ndarray, float]]:
        """The cutting-plane oracle: the rows violated at the LP iterate ``x``."""
        return [(row, rhs) for _rec, row, rhs in self.rows(np.where(x > 1e-12, x, 0.0))]

    def relaxation(self) -> IncrementalLP:
        """LP (1) without rows: ``min sum b`` over ``0 <= b <= w``."""
        n = len(self.weights)
        return IncrementalLP(n, c=np.ones(n), upper=self.weights.copy())

    def count_rounds(self, lp: IncrementalLP, rounds: int) -> None:
        self.stats.cut_rounds += rounds
        self.stats.warm_start_hits += lp.stats.warm_start_hits

    def assignment(self, b: np.ndarray) -> SubsidyAssignment:
        return SubsidyAssignment.from_vector(self.graph, list(self.engine.ig.edge_labels), b)

    def verified(self, subsidies: SubsidyAssignment, verify: bool) -> bool:
        if not verify:
            return True
        return _verify_with_binding(self.engine, self.binding, subsidies)

    def profile(self) -> Dict[str, int]:
        """The engine's work counters since this oracle was bound."""
        return self.stats.delta(self._before)


def solve_sne_cutting_plane_lp1(
    state: AnyState,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
    certify: bool = False,
) -> SNEResult:
    """Minimum subsidies via the exponential LP (1) + separation oracle.

    Works for *every* game family — broadcast trees, general states, and
    the rule-priced families (weighted demands, per-edge splits, directed
    arcs): :class:`LP1Separation` builds each violated deviation's row
    from the state's engine binding.  Variables cover *all* graph edges
    (as in the paper's presentation); optimal solutions put nothing on
    non-target edges, which the tests assert.

    Cut rows append into a sparse
    :class:`~repro.lp.incremental.IncrementalLP` and every re-solve
    warm-starts from the previous round, while the separation oracle
    batches its per-player searches (Lemma 2 certificates for broadcast,
    shared-target group searches otherwise).
    """
    sep = LP1Separation(state)
    lp = sep.relaxation()
    backend = get_backend(method).name
    out = solve_with_cutting_planes(lp, sep.cuts, method=method, max_rounds=max_rounds)
    sep.count_rounds(lp, out.rounds)
    if not out.ok:
        return _infeasible(sep.graph, "lp1", backend=backend)
    # LP (1) certification targets the *final accumulated relaxation* —
    # exactly the LP whose optimum the float answer is.  Its exact optimum
    # is a certified lower bound on the full (exponential) LP (1) optimum,
    # and the converged float solution is primal-feasible for it, so the
    # pair brackets the true optimum.
    cert = (
        _certify_lp(lp, "lp1-relaxation", out.result.objective) if certify else None
    )
    subsidies = sep.assignment(out.result.x)
    return SNEResult(
        subsidies,
        subsidies.cost,
        True,
        sep.verified(subsidies, verify),
        "lp1",
        rounds=out.rounds,
        cuts=out.cuts_added,
        profile=sep.profile(),
        backend=backend,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# LP (2): polynomial-size reformulation with potential variables
# ---------------------------------------------------------------------------


def _deviator_distances(
    n_nodes: int,
    sources: np.ndarray,
    tail: np.ndarray,
    head: np.ndarray,
    cost: np.ndarray,
) -> np.ndarray:
    """Every player's shortest-path distances at ``b = 0``, as (players, nodes).

    ``cost[i, k]`` prices arc ``tail[k] -> head[k]`` for player ``i`` (the
    deviator pricing of LP (2)'s arc rows).  One Dijkstra runs over the
    block-diagonal graph of players x nodes: the blocks share no arc, so
    block ``i`` holds player ``i``'s distances from ``sources[i]``, and
    ``inf`` where the player cannot reach.  A distance is exactly the
    float64 sum ``d(tail) + cost`` over the last arc of its path.
    """
    n_players, n_arcs = cost.shape
    if not n_players:
        return np.empty((0, n_nodes))
    # Imported here: csgraph is not otherwise loaded by ``import repro``.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    order = np.argsort(tail, kind="stable")
    starts = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n_nodes), out=starts[1:])
    block = np.arange(n_players, dtype=np.int64)[:, None]
    indptr = np.append((block * n_arcs + starts[:-1]).ravel(), n_players * n_arcs)
    indices = (block * n_nodes + head[order]).ravel()
    size = n_players * n_nodes
    graph = sp.csr_matrix((cost[:, order].ravel(), indices, indptr), shape=(size, size))
    dist = dijkstra(graph, indices=block.ravel() * n_nodes + sources, min_only=True)
    return dist.reshape(n_players, n_nodes)


def build_polynomial_lp2(state: AnyState) -> Tuple[IncrementalLP, List[Edge]]:
    """Materialize LP (2) for a target state, in shifted potentials.

    Variables: ``b_a`` for every edge (in the returned edge order) plus one
    potential column per player and node.  Per player, one row per
    allowed arc, in ``graph.edges()`` order with the directions ``(u, v)``
    then ``(v, u)``, followed by the player's path row.

    A potential column holds ``y_i(v) = d_i(v) - pi_i(v)`` with bounds
    ``0 <= y_i(v) <= d_i(v)``, where ``d_i`` is player ``i``'s distance
    under deviator pricing at ``b = 0`` (:func:`_deviator_distances`);
    nodes the player cannot reach keep ``pi_i(v) >= 0``.  This is the
    same LP: every feasible ``pi`` has ``pi <= dist_b <= d``, since
    subsidies only shorten paths.  What moves is the simplex start: at
    ``y = 0`` the potentials already are the ``b = 0`` distances, so the
    arc row of ``tail -> head`` has right-hand side ``(cost + d(tail)) -
    d(head) >= 0``, exactly 0 along each player's shortest-path tree, and
    only the path rows of players who can improve start infeasible.

    The arc rows of all players are computed as one (players x arcs)
    numpy block, with the same float operations in the same order as a
    row-by-row build, and the whole LP is appended to a sparse
    :class:`~repro.lp.incremental.IncrementalLP` as one CSR block; its
    buffers are byte-identical to appending the rows one at a time.
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
    else:
        players = [
            (p.source, p.target, list(state.edge_paths[p.index]))
            for p in game.players
        ]
        load = getattr(state, "load", None)
        usage = dict(load) if load is not None else dict(state.usage)
        alpha = game.cost_sharing.weight_on

    graph_edges = list(graph.edges())
    all_edges = [canonical_edge(u, v) for u, v, _ in graph_edges]
    e_index = {e: i for i, e in enumerate(all_edges)}
    m = len(all_edges)
    nodes = graph.nodes
    v_index = {v: i for i, v in enumerate(nodes)}
    n_nodes = len(nodes)
    n_players = len(players)
    n_vars = m + n_players * n_nodes

    c = np.zeros(n_vars)
    c[:m] = 1.0
    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    upper[:m] = [w for _u, _v, w in graph_edges]

    # The arc table, built once: edge column, tail/head node offsets and
    # weight of every allowed arc, in the row-by-row build's order.
    arcs = [
        (e_index[canonical_edge(u, v)], v_index[tail], v_index[head], w)
        for u, v, w in graph_edges
        for tail, head in ((u, v), (v, u))
        if allows is None or allows(tail, head)
    ]
    n_arcs = len(arcs)
    edge_col = np.array([arc[0] for arc in arcs], dtype=np.int64)
    tail_off = np.array([arc[1] for arc in arcs], dtype=np.int64)
    head_off = np.array([arc[2] for arc in arcs], dtype=np.int64)
    sources = np.array([v_index[s] for s, _t, _path in players], dtype=np.int64)
    t_off = np.array([v_index[t] for _s, t, _path in players], dtype=np.int64)

    # Each arc row prices the arc for its player at b = 0: coefficient
    # alpha/d on b_e and cost alpha w/d, with d the load a deviator sees.
    if isinstance(state, TreeState):  # fair sharing: alpha = 1 everywhere
        alpha_e = np.ones((n_players, m))
    else:
        alpha_e = np.array(
            [[alpha(i, e) for e in all_edges] for i in range(n_players)],
            dtype=np.float64,
        ).reshape(n_players, m)
    usage_e = np.array([usage.get(e, 0) for e in all_edges], dtype=np.float64)
    path_len = np.array([len(path) for _s, _t, path in players], dtype=np.int64)
    path_e = np.array(
        [e_index[e] for _s, _t, path in players for e in path], dtype=np.int64
    )
    path_p = np.repeat(np.arange(n_players), path_len)
    own = np.zeros((n_players, m), dtype=bool)
    own[path_p, path_e] = True
    a = alpha_e[:, edge_col]
    d = usage_e[edge_col] + a - np.where(own[:, edge_col], a, 0.0)
    if np.any(d == 0.0):
        raise ZeroDivisionError("float division by zero")
    coef = a / d
    cost = a * np.array([arc[3] for arc in arcs], dtype=np.float64) / d

    # pi_i(v) = shift + sign * x_i(v): x = y = d - pi where player i
    # reaches v, x = pi where it does not.  0 <= y <= d also pins
    # pi_i(s_i) = 0, as d_i(s_i) = 0.
    dist = _deviator_distances(n_nodes, sources, tail_off, head_off, cost)
    upper[m:] = dist.ravel()
    reach = np.isfinite(dist)
    shift = np.where(reach, dist, 0.0)
    sign = np.where(reach, -1.0, 1.0)
    # pi(head) - pi(tail) + coef b_e <= cost becomes
    #   sign[head] x(head) - sign[tail] x(tail) + coef b_e
    #     <= cost + shift[tail] - shift[head]
    arc_rhs = cost + shift[:, tail_off] - shift[:, head_off]
    target_val = -sign[np.arange(n_players), t_off]
    target_shift = shift[np.arange(n_players), t_off]

    inc = IncrementalLP(n_vars, c=c, lower=lower, upper=upper)
    if not players:
        return inc, all_edges

    # Arc rows.  Every edge column precedes every potential column, so a
    # row's sorted columns are b_e, then the lower and the higher of the
    # head's and the tail's potential.
    base = m + np.arange(n_players, dtype=np.int64)[:, None] * n_nodes
    head_first = head_off < tail_off
    head_val = sign[:, head_off]
    tail_val = -sign[:, tail_off]
    cols = np.empty((n_players, n_arcs, 3), dtype=np.int64)
    cols[:, :, 0] = edge_col
    cols[:, :, 1] = base + np.where(head_first, head_off, tail_off)
    cols[:, :, 2] = base + np.where(head_first, tail_off, head_off)
    vals = np.empty((n_players, n_arcs, 3))
    vals[:, :, 0] = coef
    vals[:, :, 1] = np.where(head_first, head_val, tail_val)
    vals[:, :, 2] = np.where(head_first, tail_val, head_val)
    keep = np.ones((n_players, n_arcs, 3), dtype=bool)
    keep[:, :, 0] = coef != 0.0  # a zero alpha drops b_e, as sparse_row does

    # Path rows: the path's -alpha/L_a in ascending column order (zero
    # alphas dropped), then the target's potential.  The right-hand side
    # subtracts alpha w_a/L_a along the path from 0.0, term by term in
    # path order: a sequential cumsum over rows padded with zeros.
    a_path = alpha_e[path_p, path_e]
    share = a_path / usage_e[path_e]
    step = np.arange(len(path_e)) - np.repeat(np.cumsum(path_len) - path_len, path_len)
    terms = np.zeros((n_players, int(path_len.max()) + 1))
    terms[path_p, step + 1] = -(a_path * upper[path_e] / usage_e[path_e])
    path_rhs = np.cumsum(terms, axis=1)[:, -1] + target_shift
    by_col = np.lexsort((path_e, path_p))
    by_col = by_col[share[by_col] != 0.0]
    kept = np.bincount(path_p[by_col], minlength=n_players)

    row_nnz = np.empty((n_players, n_arcs + 1), dtype=np.int64)
    row_nnz[:, :n_arcs] = keep.sum(axis=2)
    row_nnz[:, n_arcs] = kept + 1
    indptr = np.zeros(row_nnz.size + 1, dtype=np.int64)
    np.cumsum(row_nnz.ravel(), out=indptr[1:])
    starts = indptr[:-1].reshape(n_players, n_arcs + 1)
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    at = (starts[:, :n_arcs, None] + np.cumsum(keep, axis=2) - 1)[keep]
    indices[at] = cols[keep]
    data[at] = vals[keep]
    owner = path_p[by_col]
    at = starts[owner, n_arcs] + np.arange(len(by_col)) - (np.cumsum(kept) - kept)[owner]
    indices[at] = path_e[by_col]
    data[at] = -share[by_col]
    last = starts[:, n_arcs] + kept
    indices[last] = base[:, 0] + t_off
    data[last] = target_val
    rhs = np.empty((n_players, n_arcs + 1))
    rhs[:, :n_arcs] = arc_rhs
    rhs[:, n_arcs] = path_rhs
    inc.add_rows(indptr, indices, data, rhs.ravel())
    return inc, all_edges


def solve_sne_polynomial_lp2(
    state: AnyState,
    method: str = "highs",
    verify: bool = True,
    certify: bool = False,
) -> SNEResult:
    """Minimum subsidies via the polynomial LP (2).

    Variables: ``b_a`` for every edge plus ``pi_i(v)`` for every player and
    node (held as ``y_i(v) = d_i(v) - pi_i(v)``, see
    :func:`build_polynomial_lp2`).  ``pi_i`` is a certified lower bound on
    the deviator-priced shortest-path distance from ``s_i``; requiring
    ``pi_i(t_i) >= cost_i(T; b)`` is then exactly the equilibrium
    condition.

    Family-aware like LP (1): rule-priced states (weighted demands,
    per-edge splits) contribute ``alpha_i(a)``-scaled coefficients, and
    directed games only get edge relaxations along their allowed arcs.

    LP (2) rows are 3-sparse in ``n_players * n_nodes + n_edges``
    variables, so :func:`build_polynomial_lp2` assembles them as one
    sparse block.
    """
    graph = state.game.graph
    lp, all_edges = build_polynomial_lp2(state)
    m = len(all_edges)
    engine = BestResponseEngine.for_graph(graph)
    stats = engine.stats
    before = stats.snapshot()

    backend = get_backend(method).name
    res = lp.solve(method=method)
    stats.warm_start_hits += lp.stats.warm_start_hits
    if res.status is not LPStatus.OPTIMAL:
        cert = _certify_lp(lp, "lp2", None) if certify else None
        return _infeasible(graph, "lp2", backend=backend, certificate=cert)
    cert = _certify_lp(lp, "lp2", res.objective) if certify else None
    subsidies = SubsidyAssignment.from_vector(graph, all_edges, res.x[:m])
    # The engine binding is only needed (and only built) for verification.
    verified = (
        _verify_with_binding(engine, engine.bind(state), subsidies) if verify else True
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
        return solve_sne_polynomial_lp2(state, method=method, verify=verify)
    if formulation == "lp1":
        return solve_sne_cutting_plane_lp1(state, method=method, verify=verify)
    raise ValueError(f"unknown formulation {formulation!r}")
