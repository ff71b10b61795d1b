"""Approximate & anytime SNE solvers with certified optimality gaps.

The exact LP(1)/LP(2)/LP(3) pipeline answers the paper's question to
optimality; on label-level broadcast instances ``sne-lp3`` solves a
10^4-node grid in about 2 s, but its cost and memory grow with every
materialized incidence row.  This module is the scale tier beside it:
heuristics that always return a *feasible* subsidy assignment together
with a **certified lower bound** on the optimum, so every run carries a
proved optimality gap ``ub - lb``, up to 10^5–10^6 nodes:

* :func:`solve_sne_greedy` — generic greedy over any game family: per
  round, every violated player's own path is fully subsidized (a fully
  subsidized path has cost 0 and deviation costs are nonnegative, so each
  round permanently settles its violated players — at most ``n_players``
  rounds).  Violated LP(1) rows are pooled; the certificate is either the
  pooled-row LP relaxation optimum or the closed-form Lagrangian bound.
* :func:`solve_sne_primal_dual` — the exact LP(1) cutting-plane loop run
  *anytime*: each round's LP objective is a monotone certified lower
  bound (the LP over any subset of the exponentially many rows is a
  relaxation), upper bounds come from greedy completion of the current
  iterate, and the loop stops on ``deadline`` / ``target_gap`` or —
  without either — converges to the same optimum (and byte-identical
  subsidies) as ``sne-cutting-plane``.
* :func:`solve_sne_greedy_indexed` — the memory-lean broadcast path for
  10^5–10^6-node instances: no per-player dicts, no ``Graph``, just the
  :class:`~repro.graphs.core.IndexedGraph` CSR arrays and vectorized
  Lemma 2 incidence slacks over an
  :class:`~repro.graphs.indexed_tree.IndexedTree`.

The two label-level solvers share LP(1)'s separation path with the exact
solver instead of copying it: every row they see comes from
:meth:`~repro.subsidies.sne_lp.LP1Separation.rows` (the row builder of
``sne-cutting-plane``'s oracle), the primal-dual's rounds are
:func:`~repro.lp.cutting_plane.cutting_plane_rounds` (the loop
:func:`~repro.lp.cutting_plane.solve_with_cutting_planes` consumes), and
the greedy and the primal-dual's completions run one greedy loop,
``_greedy_rounds``.  All three solvers stop through one rule,
``_StopRule``: after each round, ``target_gap`` first, then ``deadline``.

Certificate soundness rests on two facts.  (1) Every pooled row is a
valid constraint of the full LP(1)/LP(3), so the LP over any row subset
is a relaxation and its optimum — or any Lagrangian value of it — lower
bounds the true minimum subsidy.  (2) Fully subsidizing every established
target edge is always feasible (own costs drop to 0 and deviation costs
stay nonnegative), so ``wgt(T)`` caps every upper bound and deadline
bailouts always have a feasible fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.core import IndexedGraph
from repro.graphs.indexed_tree import IndexedTree
from repro.graphs.mst import kruskal_mst_ids
from repro.lp import LinearProgram, LPStatus, cutting_plane_rounds, get_backend, solve_lp
from repro.subsidies.assignment import SubsidyAssignment
from repro.subsidies.sne_lp import AnyState, LP1Separation, SNEResult
from repro.utils.tolerances import LP_TOL

#: pooled-row LPs are solved exactly below this edge count; above it the
#: closed-form Lagrangian bound is used (deterministic in the instance).
LP_BOUND_MAX_EDGES = 2000

#: gaps below ``1e-9 * max(1, ub)`` count as proved optimal.
_OPT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass
class GapCertificate:
    """A certified bracket ``lower_bound <= OPT <= upper_bound``.

    ``kind`` names the lower-bound construction: ``"lp-relaxation"``
    (pooled violated rows solved exactly), ``"lagrangian"`` (closed-form
    uniform-multiplier bound over the pooled rows) or ``"exact"`` (the
    cutting-plane loop converged, so the LP optimum itself is the bound).
    """

    kind: str
    lower_bound: float
    upper_bound: float

    @property
    def gap(self) -> float:
        return max(0.0, self.upper_bound - self.lower_bound)

    @property
    def relative_gap(self) -> float:
        return self.gap / self.upper_bound if self.upper_bound > 0 else 0.0

    @property
    def proves_optimal(self) -> bool:
        return self.gap <= _OPT_TOL * max(1.0, self.upper_bound)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
        }


@dataclass
class AnytimeLog:
    """The improving ``(round, upper_bound, lower_bound)`` trajectory.

    Iterates carry no timestamps on purpose: reports must stay
    byte-stable across runs (the serve daemon's canonical-bytes
    contract), and wall-clock provenance already lives in
    ``wall_clock_seconds``.
    """

    iterates: List[Tuple[int, float, float]] = field(default_factory=list)
    #: why the loop ended: "converged" | "deadline" | "target-gap" | "max-rounds"
    stopped: str = "converged"

    def record(self, round_idx: int, ub: float, lb: float) -> None:
        self.iterates.append((round_idx, float(ub), float(lb)))

    def as_dict(self) -> Dict[str, object]:
        return {
            "iterates": [[r, ub, lb] for r, ub, lb in self.iterates],
            "stopped": self.stopped,
        }


@dataclass
class _StopRule:
    """The one deadline/target-gap stopping rule of every anytime loop.

    After each round, :meth:`after_round` logs the round's bracket (when
    the rule holds an :class:`AnytimeLog`) and names the stop the round
    triggers: ``"target-gap"`` once ``(ub - lb) / ub <= target_gap``, else
    ``"deadline"`` once the wall clock passes ``deadline_at``.  The lower
    bound is a callable, evaluated only when the log or the gap test
    needs it.
    """

    deadline_at: Optional[float] = None
    target_gap: Optional[float] = None
    log: Optional[AnytimeLog] = None

    @classmethod
    def start(
        cls, anytime: bool, deadline: Optional[float], target_gap: Optional[float]
    ) -> "_StopRule":
        """A rule whose ``deadline`` (seconds) runs from now."""
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        return cls(deadline_at, target_gap, AnytimeLog() if anytime else None)

    def after_round(
        self, round_idx: int, ub: float, lower_bound: Callable[[], float]
    ) -> Optional[str]:
        gap_check = self.target_gap is not None and ub > 0
        if self.log is not None or gap_check:
            lb = lower_bound()
            if self.log is not None:
                self.log.record(round_idx, ub, lb)
            if gap_check and (ub - lb) / ub <= self.target_gap:
                return "target-gap"
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            return "deadline"
        return None

    def finish(
        self, stopped: str, round_idx: int, ub: float, lb: float
    ) -> Optional[AnytimeLog]:
        """Close the log with the final bracket and the reason the loop ended."""
        if self.log is not None:
            self.log.stopped = stopped
            self.log.record(round_idx, ub, lb)
        return self.log


@dataclass
class ApproxSNEResult(SNEResult):
    """An :class:`~repro.subsidies.sne_lp.SNEResult` plus its certificate."""

    certificate: Optional[GapCertificate] = None
    anytime: Optional[AnytimeLog] = None
    #: the certificate's gap closed to (numerical) zero
    optimal: bool = False


@dataclass
class IndexedApproxResult:
    """Array-level outcome of the memory-lean broadcast greedy.

    ``subsidy_vector`` is indexed by edge id of the input
    :class:`~repro.graphs.core.IndexedGraph`; nothing label-keyed is
    materialized (that is the point of this path).
    """

    subsidy_vector: np.ndarray
    cost: float
    feasible: bool
    verified: bool
    method: str
    rounds: int
    certificate: GapCertificate
    tree_eids: np.ndarray
    num_incidences: int
    anytime: Optional[AnytimeLog] = None

    @property
    def optimal(self) -> bool:
        return self.certificate.proves_optimal


# ---------------------------------------------------------------------------
# Certified lower bounds over pooled rows
# ---------------------------------------------------------------------------


def lagrangian_lower_bound(
    weights: np.ndarray, g: np.ndarray, total_deficit: float
) -> Tuple[float, float]:
    """Closed-form Lagrangian lower bound over pooled rows, no LP solve.

    The pool holds rows ``a_j . b >= c_j`` (valid for every feasible
    subsidy vector) with ``c_j > 0``; ``g = sum_j a_j`` and
    ``total_deficit = sum_j c_j``.  Relaxing all rows with one uniform
    multiplier ``lam >= 0`` gives, for ``0 <= b <= w``::

        L(lam) = lam * sum_j c_j + sum_e w_e * min(0, 1 - lam * g_e)

    which is concave piecewise-linear in ``lam`` with breakpoints at
    ``1/g_e`` (``g_e > 0``).  The exact maximizer is found by a sorted
    slope scan in O(m log m); any value of ``L`` certifies
    ``OPT >= L(lam)``.  Returns ``(bound, lam)``.
    """
    if total_deficit <= 0.0:
        return 0.0, 0.0
    pos = g > 0.0
    if not bool(pos.any()):
        # Cannot happen when the pool comes from a feasible instance
        # (b = w satisfies every row, forcing g . w >= total_deficit > 0);
        # stay conservative rather than claim an unbounded dual.
        return 0.0, 0.0
    lam_bp = 1.0 / g[pos]
    wg = weights[pos] * g[pos]
    order = np.argsort(lam_bp)
    lam_sorted = lam_bp[order]
    slopes = total_deficit - np.cumsum(wg[order])
    nonpos = slopes <= 0.0
    k = int(np.argmax(nonpos)) if bool(nonpos.any()) else len(lam_sorted) - 1
    lam = float(lam_sorted[k])
    value = lam * total_deficit + float(
        np.minimum(0.0, weights * (1.0 - lam * g)).sum()
    )
    return max(0.0, value), lam


def _pooled_lp_lower_bound(
    weights: np.ndarray, rows: List[Tuple[np.ndarray, float]], method: str
) -> Optional[float]:
    """Exact optimum of the pooled-row relaxation (``row . b <= rhs`` form)."""
    n = len(weights)
    lp = LinearProgram(n_vars=n, c=np.ones(n), upper=weights.copy())
    for row, rhs in rows:
        lp.add_constraint(row, rhs)
    res = solve_lp(lp, method=method)
    if res.status is not LPStatus.OPTIMAL or res.objective is None:
        return None
    return max(0.0, float(res.objective))


def _resolve_bound(bound: str, num_edges: int) -> str:
    if bound == "auto":
        return "lp" if num_edges <= LP_BOUND_MAX_EDGES else "lagrangian"
    if bound not in ("lp", "lagrangian"):
        raise ValueError(f"unknown bound {bound!r} (use auto|lp|lagrangian)")
    return bound


# ---------------------------------------------------------------------------
# Shared generic machinery (engine-binding based, all game families)
# ---------------------------------------------------------------------------


def _full_target(state: AnyState, sep: LP1Separation) -> np.ndarray:
    """Every established target edge fully subsidized (always feasible)."""
    eids = [sep.engine.ig.edge_id_of(e) for e in state.established_edges()]
    b = np.zeros(len(sep.weights))
    b[eids] = sep.weights[eids]
    return b


class _RowPool:
    """Violated LP(1) rows accumulated across rounds, for the certificate.

    Rows arrive in the oracle's ``row . b <= rhs`` orientation; the pool
    keeps them verbatim (for the LP bound) and accumulates ``g`` /
    ``total_deficit`` of the equivalent ``(-row) . b >= -rhs`` form for
    rows with positive deficit (the only ones the Lagrangian uses).
    """

    def __init__(self, n_vars: int) -> None:
        self.rows: List[Tuple[np.ndarray, float]] = []
        self.g = np.zeros(n_vars)
        self.total_deficit = 0.0

    def add(self, row: np.ndarray, rhs: float) -> None:
        self.rows.append((row, rhs))
        if rhs < 0.0:
            self.g -= row
            self.total_deficit -= rhs

    def lower_bound(
        self, weights: np.ndarray, bound: str, method: str
    ) -> Tuple[float, str]:
        if not self.rows:
            return 0.0, bound if bound != "lp" else "lp-relaxation"
        if bound == "lp":
            lb = _pooled_lp_lower_bound(weights, self.rows, method)
            if lb is not None:
                return lb, "lp-relaxation"
        lb, _lam = lagrangian_lower_bound(weights, self.g, self.total_deficit)
        return lb, "lagrangian"


def _greedy_rounds(
    sep: LP1Separation,
    b: np.ndarray,
    pool: Optional[_RowPool],
    stop: _StopRule,
    ub: float,
) -> Tuple[np.ndarray, int, str]:
    """Fully subsidize every violated player's own path until none remain.

    Mutates and returns ``b``.  Returns ``(b, rounds, stopped)``; the
    violated rows go to ``pool`` when one is given, and ``stop`` (with
    ``ub`` as the round's upper bound) may end the loop early, in which
    case ``b`` is *not* feasible yet (callers fall back to the full-target
    assignment).  Termination: a fully subsidized own path costs 0 and
    deviations are nonnegative, so each round's violated players stay
    satisfied forever — at most ``n_players`` rounds.
    """
    weights = sep.weights
    cur_path = sep.binding.current_path_eids
    rounds = 0
    while True:
        found = sep.rows(b)
        if not found:
            return b, rounds, "converged"
        rounds += 1
        for rec, row, rhs in found:
            if pool is not None:
                pool.add(row, rhs)
            for e in cur_path(rec.position):
                b[e] = weights[e]
        # Without a pool (the primal-dual's completions) the rule has no log
        # and no target gap, so it never asks for the lower bound.
        stopped = stop.after_round(
            rounds,
            ub,
            lambda: lagrangian_lower_bound(weights, pool.g, pool.total_deficit)[0],
        )
        if stopped is not None:
            return b, rounds, stopped


# ---------------------------------------------------------------------------
# Greedy (all game families)
# ---------------------------------------------------------------------------


def solve_sne_greedy(
    state: AnyState,
    method: str = "highs",
    verify: bool = True,
    bound: str = "auto",
    anytime: bool = False,
    deadline: Optional[float] = None,
    target_gap: Optional[float] = None,
) -> ApproxSNEResult:
    """Greedy full-path subsidies with a certified gap, any game family.

    Per round, every violated player (from the engine binding's exact
    scan) gets its own path fully subsidized.  The violated LP(1) rows seen along the way are pooled
    and turned into a certified lower bound (``bound``: ``"lp"`` solves
    the pooled relaxation exactly, ``"lagrangian"`` uses the closed-form
    dual value, ``"auto"`` picks by instance size).

    ``deadline`` (seconds of wall clock) aborts the scan loop and falls
    back to fully subsidizing every established target edge — always
    feasible, cost ``wgt(T)``.  ``target_gap`` stops early once the
    certified relative gap of the *fallback* bracket reaches the target.
    ``anytime`` records the ``(round, ub, lb)`` trajectory.
    """
    sep = LP1Separation(state)
    backend = get_backend(method).name
    weights = sep.weights
    full_target = _full_target(state, sep)
    ub_fallback = float(full_target.sum())
    stop = _StopRule.start(anytime, deadline, target_gap)
    pool = _RowPool(len(weights))
    bound_mode = _resolve_bound(bound, len(weights))

    b, rounds, stopped = _greedy_rounds(
        sep, np.zeros(len(weights)), pool, stop, ub_fallback
    )
    fell_back = stopped != "converged"
    subsidies = sep.assignment(full_target if fell_back else b)
    cost = subsidies.cost
    lb, kind = pool.lower_bound(weights, bound_mode, method)
    lb = min(lb, cost)
    certificate = GapCertificate(kind, lb, cost)
    return ApproxSNEResult(
        subsidies=subsidies,
        cost=cost,
        feasible=True,
        verified=sep.verified(subsidies, verify),
        method="greedy",
        rounds=max(rounds, 1),
        cuts=len(pool.rows),
        profile=sep.profile(),
        backend=backend,
        certificate=certificate,
        anytime=stop.finish(stopped, rounds + int(fell_back), cost, lb),
        optimal=certificate.proves_optimal,
    )


# ---------------------------------------------------------------------------
# Primal-dual anytime (all game families)
# ---------------------------------------------------------------------------


def solve_sne_primal_dual(
    state: AnyState,
    method: str = "highs",
    max_rounds: int = 200,
    verify: bool = True,
    anytime: bool = False,
    deadline: Optional[float] = None,
    target_gap: Optional[float] = None,
) -> ApproxSNEResult:
    """LP(1) cutting planes run anytime: monotone certified lower bounds.

    The loop is the exact solver's loop
    (:func:`~repro.lp.cutting_plane.cutting_plane_rounds` over the same
    relaxation and the same
    :class:`~repro.subsidies.sne_lp.LP1Separation` cuts): run to
    convergence it returns the same optimum — and byte-identical
    subsidies — as ``sne-cutting-plane``, with certificate kind
    ``"exact"`` and gap 0.  Each round's LP objective is a certified
    lower bound (LP over a row subset is a relaxation of LP(1)), monotone
    because rows only accumulate.  Upper bounds come from greedy
    completion of the current LP iterate (computed per round when
    ``anytime``, else only at an early stop), seeded with the
    always-feasible full-target assignment.  ``deadline`` /
    ``target_gap`` stop early with the best feasible vector found.
    """
    sep = LP1Separation(state)
    backend = get_backend(method).name
    weights = sep.weights
    lp = sep.relaxation()
    best_ub_vec = _full_target(state, sep)
    best_ub = float(best_ub_vec.sum())
    stop = _StopRule.start(anytime, deadline, target_gap)
    completion = _StopRule(stop.deadline_at)

    def complete(x: np.ndarray) -> None:
        """Lower ``best_ub`` to the greedy completion of ``x``, if it finishes."""
        nonlocal best_ub, best_ub_vec
        b0 = np.minimum(np.where(x > 1e-12, x, 0.0), weights)
        done, _r, stopped = _greedy_rounds(sep, b0, None, completion, best_ub)
        if stopped == "converged" and float(done.sum()) < best_ub:
            best_ub, best_ub_vec = float(done.sum()), done

    lb = 0.0
    rounds = 0
    cuts_added = 0
    stopped = "max-rounds"
    last_x: Optional[np.ndarray] = None
    for rounds, res, violated in cutting_plane_rounds(lp, sep.cuts, method, max_rounds):
        if violated is None:
            sep.count_rounds(lp, rounds)
            return ApproxSNEResult(
                subsidies=SubsidyAssignment.zero(sep.graph),
                cost=float("inf"),
                feasible=False,
                verified=False,
                method="primal-dual",
                rounds=rounds,
                cuts=cuts_added,
                profile=sep.profile(),
                backend=backend,
                certificate=GapCertificate("exact", float("inf"), float("inf")),
                anytime=stop.log,
            )
        lb = max(lb, float(res.objective))
        last_x = res.x
        if not violated:
            stopped = "converged"
            break
        if anytime:
            complete(res.x)
        halt = stop.after_round(rounds, best_ub, lambda: lb)
        if halt is not None:
            stopped = halt
            break
        cuts_added += len(violated)
    sep.count_rounds(lp, rounds)

    if stopped == "converged":
        subsidies = sep.assignment(last_x)
        kind = "exact"
    else:
        if (stopped == "max-rounds" or not anytime) and last_x is not None:
            # One completion attempt from the last iterate before falling
            # back to the full-target assignment.
            complete(last_x)
        subsidies = sep.assignment(best_ub_vec)
        kind = "lp-relaxation"
    cost = subsidies.cost
    certificate = GapCertificate(kind, min(lb, cost), cost)
    return ApproxSNEResult(
        subsidies=subsidies,
        cost=cost,
        feasible=True,
        verified=sep.verified(subsidies, verify),
        method="primal-dual",
        rounds=rounds,
        cuts=cuts_added,
        profile=sep.profile(),
        backend=backend,
        certificate=certificate,
        anytime=stop.finish(stopped, rounds, cost, certificate.lower_bound),
        optimal=certificate.proves_optimal,
    )


# ---------------------------------------------------------------------------
# Memory-lean indexed greedy (broadcast, 10^5-10^6 nodes)
# ---------------------------------------------------------------------------


def solve_sne_greedy_indexed(
    ig: IndexedGraph,
    root: int,
    tree_eids: Optional[np.ndarray] = None,
    multiplicity: Optional[np.ndarray] = None,
    tol: float = LP_TOL,
    anytime: bool = False,
    deadline: Optional[float] = None,
    target_gap: Optional[float] = None,
    max_rounds: int = 10_000,
) -> IndexedApproxResult:
    """Certified greedy SNE on a broadcast instance, pure arrays end to end.

    The target is the rooted spanning tree over ``tree_eids`` (default:
    the Kruskal MST at the edge-id level).  Per round the Lemma 2
    incidence slacks are evaluated for *all* non-tree incidences at once
    — two prefix-sum passes and one batch LCA, no per-player structures —
    and every violated incidence's own subpath ``u -> lca`` is fully
    subsidized via the diff-counting subtree pass.  Violated rows
    accumulate into the closed-form Lagrangian lower bound
    (:func:`lagrangian_lower_bound`), so the returned
    :class:`GapCertificate` is certified without ever building an LP.

    Memory: O(n + m) flat float64/int arrays; nothing label- or
    player-keyed.  A stop at ``deadline``, ``target_gap`` or with
    violations left after ``max_rounds`` rounds falls back to fully
    subsidizing every established tree edge (always feasible); the anytime
    log names the stop.
    """
    w = ig.edge_weights
    m = ig.num_edges
    n = ig.num_nodes
    if tree_eids is None:
        tree_eids = kruskal_mst_ids(ig)
    tree = IndexedTree(ig, root, tree_eids)

    if multiplicity is None:
        mult = np.ones(n)
        mult[root] = 0.0
    else:
        mult = np.asarray(multiplicity, dtype=np.float64)
    loads = tree.edge_loads(mult)
    inv_own = np.zeros(m)
    used = loads > 0
    inv_own[used] = 1.0 / loads[used]
    inv_dev = np.zeros(m)
    inv_dev[tree.is_tree_edge] = 1.0 / (loads[tree.is_tree_edge] + 1.0)

    # All incidences (u, v) once: u deviates along a non-tree edge to v
    # and follows v's tree path; the shared suffix above lca(u, v)
    # cancels (Lemma 2).
    nontree = np.flatnonzero(~tree.is_tree_edge)
    nu, nv = ig.edge_u[nontree], ig.edge_v[nontree]
    U = np.concatenate([nu, nv]).astype(np.int64)
    V = np.concatenate([nv, nu]).astype(np.int64)
    Wc = np.concatenate([w[nontree], w[nontree]])
    keep = (U != root) & (mult[U] > 0)
    # lca is symmetric: solve each non-tree edge once and serve both rows
    # from it; L covers one half of U/V/Wc, so p[L] is gathered once per
    # pass and applied to either half.
    L = tree.lca(nu, nv)
    halves = (slice(0, len(L)), slice(len(L), None))
    del nu, nv

    def _lca_rows(mask: np.ndarray) -> np.ndarray:
        """lca of every incidence selected by ``mask`` (over both halves)."""
        return np.concatenate([L[mask[half]] for half in halves])

    def _slacks(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """``Wc + (p2[V] - p2[L]) - (p1[U] - p1[L])`` per incidence."""
        pl1, pl2 = p1[L], p2[L]
        out = np.empty(len(U))
        for half in halves:
            out[half] = Wc[half] + (p2[V[half]] - pl2) - (p1[U[half]] - pl1)
        return out

    # Row constants at b = 0 (rows are fixed linear constraints; their
    # deficits don't move as subsidies grow).
    p1_0 = tree.prefix_sum_edges(w * inv_own)
    p2_0 = tree.prefix_sum_edges(w * inv_dev)
    deficit0 = Wc
    if len(U):
        pl1, pl2 = p1_0[L], p2_0[L]
        deficit0 = np.empty(len(U))
        for half in halves:
            deficit0[half] = (
                (p1_0[U[half]] - pl1) - (p2_0[V[half]] - pl2) - Wc[half]
            )
        del pl1, pl2

    established = tree_eids[loads[tree_eids] > 0]
    ub_fallback = float(w[established].sum())

    stop = _StopRule.start(anytime, deadline, target_gap)
    b = np.zeros(m)
    g = np.zeros(m)
    total_deficit = 0.0
    pooled = np.zeros(len(U), dtype=bool)
    pe = tree.parent_eid
    rounds = 0
    stopped = "converged"

    def _mark_paths(tops: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """Nodes x whose parent edge lies on >=1 path top -> stop (counts)."""
        marks = np.bincount(tops, minlength=n) - np.bincount(stops, minlength=n)
        return tree.subtree_counts(marks)

    # Every pass re-evaluates all incidence slacks at the current subsidies
    # (the vectorized analogue of the exact checker's broadcast scan), so a
    # loop that finds no violation has verified its answer.
    p1, p2 = p1_0, p2_0  # b = 0 in round 1
    while True:
        if rounds:
            wn = w - b
            p1 = tree.prefix_sum_edges(wn * inv_own)
            p2 = tree.prefix_sum_edges(wn * inv_dev)
        slack = _slacks(p1, p2) if len(U) else Wc
        viol = keep & (slack < -tol) if len(U) else np.zeros(0, dtype=bool)
        if not bool(viol.any()):
            break
        if rounds >= max_rounds:
            stopped = "max-rounds"
            break
        rounds += 1
        # Pool each violated row once for the Lagrangian certificate.
        new = viol & ~pooled & (deficit0 > 0)
        if bool(new.any()):
            l_new = _lca_rows(new)
            cnt_own = _mark_paths(U[new], l_new)
            cnt_dev = _mark_paths(V[new], l_new)
            nz = np.flatnonzero(cnt_own | cnt_dev)
            nz = nz[nz != root]
            eids = pe[nz]
            g[eids] += cnt_own[nz] * inv_own[eids] - cnt_dev[nz] * inv_dev[eids]
            total_deficit += float(deficit0[new].sum())
        pooled |= viol
        # Greedy step: fully subsidize every violated own subpath.
        cnt = _mark_paths(U[viol], _lca_rows(viol))
        hit = np.flatnonzero(cnt > 0)
        hit = hit[hit != root]
        b[pe[hit]] = w[pe[hit]]
        halt = stop.after_round(
            rounds, ub_fallback, lambda: lagrangian_lower_bound(w, g, total_deficit)[0]
        )
        if halt is not None:
            stopped = halt
            break

    fell_back = stopped != "converged"
    if fell_back:
        # Full-target subsidies are feasible by construction.
        b = np.zeros(m)
        b[established] = w[established]

    cost = float(b.sum())
    lb, _lam = lagrangian_lower_bound(w, g, total_deficit)
    lb = min(lb, cost)
    certificate = GapCertificate("lagrangian", lb, cost)
    return IndexedApproxResult(
        subsidy_vector=b,
        cost=cost,
        feasible=True,
        verified=True,
        method="greedy-indexed",
        rounds=max(rounds, 1),
        certificate=certificate,
        tree_eids=tree_eids,
        num_incidences=int(keep.sum()),
        anytime=stop.finish(stopped, rounds + int(fell_back), cost, lb),
    )
