"""Vectorized best-response engine over the indexed graph core.

The paper's algorithms (the Theorem 1 separation oracle, equilibrium
verification, best-response dynamics, the SND heuristics) all reduce to the
same primitive: price every edge for a deviating player at
``(w_a - b_a) / (n_a + 1 - n_a^i)`` and run a shortest-path query.
Instead of a pricing closure and a hashable-keyed Dijkstra per query
(the dict-based :func:`repro.games.equilibrium.check_equilibrium_legacy`
reference), this engine interns the game graph once
(:meth:`BestResponseEngine.for_graph` caches per graph mutation version),
keeps ``w``, ``b`` and the usage counts ``n_a`` in flat arrays indexed by
edge id, and prices deviations with two vector operations plus an
``O(|T_i|)`` fix-up for the deviator's own edges.

Scans are *batched*: every query in a round shares one join-priced
per-arc cost list (own edges patched in place, ``O(|T_i|)`` per query)
and one reusable Dijkstra workspace, and certificate passes skip whole
searches whose outcome is already decided — the Lemma 2 incidence check
for broadcast trees (no searches at all once the constraints hold) and
shared reverse-search lower bounds for shared-target player groups.
:class:`OracleStats` counts searches run, batch skips,
cutting-plane rounds and LP warm starts per engine.

Layers on top:

* :func:`repro.games.equilibrium.check_equilibrium` binds a state and scans
  players through :meth:`_StateBinding.scan`;
* ``repro.subsidies.sne_lp`` reuses one binding across all cutting-plane
  rounds, re-pricing per round from the LP iterate, and reports the
  engine's :class:`OracleStats` delta as the solve's ``profile``;
* :class:`EngineProfile` is the mutable strategy profile behind
  best-response dynamics — usage counts and the shared arc-cost list are
  updated incrementally per move instead of revalidating a full ``State``
  object.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.games.base import FairSharing
from repro.games.broadcast import TreeState
from repro.games.game import NetworkDesignGame, State, Subsidies
from repro.graphs.core import DijkstraWorkspace, IndexedGraph, dijkstra_indexed
from repro.graphs.graph import Graph
from repro.utils.tolerances import EQ_TOL, is_improvement

#: relative slack protecting batched lower-bound certificates against the
#: (summation-order) float noise between a shared and a per-player search;
#: orders of magnitude below the equilibrium tolerances, so a borderline
#: player simply falls through to the exact per-player query
_CERT_SLACK = 1e-12

#: incidences per Lemma 2 certificate chunk: a chunk's slots are built the
#: first time a pass reaches it
_CERT_CHUNK = 1024

#: slots a certificate block may hold regardless of how unequal its rows
#: are: below this, one numpy call more costs more than the padding
_CERT_BLOCK = 4096

#: any bindable target state (weighted / directed states carry a
#: ``binding_kind = "rule"`` marker and dispatch to :class:`_RuleBinding`)
AnyState = Union[State, TreeState]


def _padded_rows(rows: List[List[int]], pad: int) -> np.ndarray:
    """``rows`` as one int32 matrix, each row padded with ``pad`` (width >= 1)."""
    lengths = np.array([len(row) for row in rows])
    width = max(1, int(lengths.max()))
    out = np.full((len(rows), width), pad, dtype=np.int32)
    out[np.arange(width) < lengths[:, None]] = [e for row in rows for e in row]
    return out


def _walk_path_back(
    pred: List[int], pred_edge: List[int], source_id: int, target_id: int
) -> Tuple[List[int], List[int]]:
    """Path source -> target (node ids, edge ids) from Dijkstra predecessors."""
    rev_nodes = [target_id]
    rev_edges: List[int] = []
    x = target_id
    while x != source_id:
        rev_edges.append(pred_edge[x])
        x = pred[x]
        rev_nodes.append(x)
    rev_nodes.reverse()
    rev_edges.reverse()
    return rev_nodes, rev_edges


class BestResponse(NamedTuple):
    """One best-response query result, in engine (int id) coordinates."""

    player: object  # player index (general game) or node label (broadcast)
    position: int  # index into the binding's player order
    current_cost: float
    deviation_cost: float
    node_ids: List[int]  # deviation path, source -> target
    edge_ids: List[int]


class OracleStats:
    """Monotone counters for the engine's oracle work.

    One instance lives on each :class:`BestResponseEngine` *per thread*
    (engines are cached per graph and shared, e.g. by ``solve_many``'s
    thread executor — thread-local counters keep concurrent solves from
    corrupting each other's deltas); solvers snapshot it before and after
    a solve and report the delta — see the ``profile`` entry in
    :class:`~repro.api.report.SolveReport` metadata.  ``cut_rounds`` and
    ``warm_start_hits`` are filled in by the LP layer's callers (the
    engine itself only counts searches and batch skips).
    """

    __slots__ = ("dijkstra_calls", "players_batched", "cut_rounds", "warm_start_hits")

    _FIELDS = ("dijkstra_calls", "players_batched", "cut_rounds", "warm_start_hits")

    def __init__(self) -> None:
        self.dijkstra_calls = 0
        self.players_batched = 0
        self.cut_rounds = 0
        self.warm_start_hits = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}

    def snapshot(self) -> Tuple[int, ...]:
        """Current counter values (pair with :meth:`delta`)."""
        return tuple(getattr(self, name) for name in self._FIELDS)

    def delta(self, since: Tuple[int, ...]) -> dict:
        """Counter increments since a :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before
            for name, before in zip(self._FIELDS, since)
        }


class BestResponseEngine:
    """Shared per-graph machinery for vectorized best-response queries."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.ig: IndexedGraph = graph.to_indexed()
        self.num_edges = self.ig.num_edges
        self.edge_weights = self.ig.edge_weights
        self._htab: Optional[np.ndarray] = None
        self._stats_local = threading.local()

    @property
    def stats(self) -> OracleStats:
        """Oracle-work counters for the calling thread.

        Thread-local so concurrent solves sharing this (per-graph cached)
        engine keep independent, internally consistent snapshot/delta
        windows.
        """
        stats = getattr(self._stats_local, "stats", None)
        if stats is None:
            stats = self._stats_local.stats = OracleStats()
        return stats

    @classmethod
    def for_graph(cls, graph: Graph) -> "BestResponseEngine":
        """Engine for ``graph``, cached on the graph keyed by its version."""
        cached = getattr(graph, "_engine_cache", None)
        if cached is not None and cached[0] == graph._version:
            return cached[1]
        engine = cls(graph)
        graph._engine_cache = (graph._version, engine)
        return engine

    # -- pricing -----------------------------------------------------------

    def subsidy_vector(self, subsidies: Optional[Subsidies]) -> np.ndarray:
        """Per-edge-id subsidy array from any edge mapping.

        Lookups go through ``subsidies.get(canonical_edge)`` per edge — the
        exact protocol the dict-based layers used — so assignments that
        ignore non-canonical keys keep ignoring them.
        """
        b = np.zeros(self.num_edges)
        if subsidies:
            get = subsidies.get
            for i, e in enumerate(self.ig.edge_labels):
                val = get(e, 0.0)
                if val:
                    b[i] = val
        return b

    def net_weights(self, b: np.ndarray) -> np.ndarray:
        """``max(0, w_a - b_a)`` per edge id; rejects NaN costs up front."""
        wb = np.maximum(0.0, self.edge_weights - b)
        if np.isnan(wb).any():
            raise ValueError("NaN in subsidized edge costs")
        return wb

    def harmonic_table(self, kmax: int) -> np.ndarray:
        """``H_0..H_kmax`` as an array (cached; Rosenthal potential kernel)."""
        tab = self._htab
        if tab is None or len(tab) <= kmax:
            tab = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, kmax + 1.0))])
            self._htab = tab
        return tab

    # -- state bindings ----------------------------------------------------

    def bind(self, state: AnyState) -> "_StateBinding":
        """Bind a target state: convert its usage/paths into id arrays once.

        Dispatch covers every game family: broadcast ``TreeState``,
        general ``State``, and any state carrying the ``binding_kind =
        "rule"`` marker (weighted demands, per-edge splits, directed arcs)
        — the latter run through the :class:`~repro.games.base.
        CostSharingRule`-priced :class:`_RuleBinding`.

        States are immutable once validated, so the binding is cached on
        the state (keyed by this engine): repeated checks of one target —
        the LP verification loop, the SND candidate scoring — pay for id
        translation once.
        """
        cached = getattr(state, "_binding_cache", None)
        if cached is not None and cached[0] is self:
            return cached[1]
        if isinstance(state, TreeState):
            binding: _StateBinding = _TreeBinding(self, state)
        elif getattr(state, "binding_kind", "general") == "rule":
            binding = _RuleBinding(self, state)
        else:
            binding = _GeneralBinding(self, state)
        state._binding_cache = (self, binding)
        return binding


class _StateBinding:
    """A target state in engine coordinates (players, usage, own paths)."""

    engine: BestResponseEngine
    player_keys: List[object]
    usage: np.ndarray  # per-edge-id usage counts n_a(T)

    def current_path_eids(self, position: int) -> List[int]:
        """Edge ids of the player's current path (own edges)."""
        raise NotImplementedError

    # -- share coefficients (the LP-row protocol) --------------------------
    #
    # A player's share of edge ``a`` is linear in the net weight:
    # ``share = coeff * (w_a - b_a)``.  These two methods are all the
    # LP (1) cutting-plane oracle needs to emit rows for *any* family —
    # fair (1/n_a), demand-proportional (d_i/L_a) or per-edge splits.

    def current_share_coeff(self, position: int, eid: int) -> float:
        """``d share_i(a) / d (w_a - b_a)`` on the player's own path.

        Fair-sharing default: ``1 / n_a``; rule bindings override.
        """
        return 1.0 / self.usage[eid]

    def joining_share_coeff(self, position: int, eid: int) -> float:
        """The same derivative for an edge her deviation path would use.

        Fair-sharing default: ``1 / (n_a + 1 - n_a^i)``.
        """
        extra = 0 if eid in self._own_eids(position) else 1
        return 1.0 / (self.usage[eid] + extra)

    def _own_eids(self, position: int) -> set:
        """Own-path edge ids as a set (cached per position)."""
        cache = getattr(self, "_own_eid_cache", None)
        if cache is None:
            cache = self._own_eid_cache = {}
        own = cache.get(position)
        if own is None:
            own = cache[position] = set(self.current_path_eids(position))
        return own

    def _join_certificates(
        self,
        shared_target: int,
        arc_base: List[float],
        queries: List[Tuple[int, float]],
        tol: float,
        ws: DijkstraWorkspace,
    ) -> List[bool]:
        """Batch-certify players sharing ``shared_target`` with ONE search.

        ``arc_base`` prices every arc for a *joining* player, which is a
        per-edge lower bound on any player's deviation pricing (her own
        edges only ever cost more: the join denominator includes her).  One
        reverse Dijkstra from the shared target therefore lower-bounds every
        group member's exact deviation cost at once; a member whose bound
        already fails the improvement test provably has no improving
        deviation and skips her per-player search entirely.  This is how
        broadcast/multicast scans collapse from one Dijkstra per player to
        one per group.

        ``queries`` holds ``(source_id, current_cost)`` per member; returns
        one certificate flag each (True = provably not improving).  The
        search prunes at the group's largest current cost — members whose
        bound gets pruned to ``inf`` are certified a fortiori.
        """
        engine = self.engine
        max_cur = max(cur for _uid, cur in queries)
        # A hair above max_cur so boundary-cost paths are never pruned away
        # from under the certificate comparison below.
        bound = max_cur + 1e-9 * max(1.0, max_cur)
        dist, _, _ = dijkstra_indexed(
            engine.ig, shared_target, arc_costs=arc_base, bound=bound, workspace=ws
        )
        stats = engine.stats
        stats.dijkstra_calls += 1
        out: List[bool] = []
        for uid, cur in queries:
            d = dist[uid]
            # Safety slack: the shared search sums the same float edge
            # prices in a different order than the per-player search would.
            lower = d - _CERT_SLACK * max(1.0, cur)
            certified = not is_improvement(lower, cur, tol)
            if certified:
                stats.players_batched += 1
            out.append(certified)
        return out

    def scan(
        self,
        wb: np.ndarray,
        tol: float = EQ_TOL,
        find_all: bool = False,
        improving_only: bool = True,
    ) -> List[BestResponse]:
        """Best responses under net weights ``wb``.

        With ``improving_only`` (the default) only improving deviations are
        returned and zero-cost players are skipped (their cost cannot
        improve); ``find_all=False`` stops at the first improving deviation.

        Queries are *batched*: players provably without an improving
        deviation (a Lemma 2 certificate for broadcast trees, a shared
        reverse-search lower bound for shared-target groups) skip their
        per-player search, and the remaining exact queries share one
        join-priced arc-cost list plus one Dijkstra workspace.  Batching
        only ever removes searches whose outcome is already decided, so
        the records are those of one isolated search per player.
        """
        raise NotImplementedError


class _TreeBinding(_StateBinding):
    """Broadcast tree state: players are nodes, everyone targets the root."""

    def __init__(self, engine: BestResponseEngine, state: TreeState) -> None:
        self.engine = engine
        self.state = state
        ig = engine.ig
        game = state.game
        n = ig.num_nodes
        self.root_id = ig.id_of(game.root)

        parent_nid = [-1] * n
        parent_eid = [-1] * n
        edge_id_of = ig.edge_id
        id_of = ig.id_of
        for v_label, p_label in state.tree.parent.items():
            vid = id_of(v_label)
            parent_nid[vid] = id_of(p_label)
            parent_eid[vid] = edge_id_of(v_label, p_label)
        self.parent_nid = parent_nid
        self.parent_eid = parent_eid
        self.bfs_ids = [id_of(u) for u in state.tree.bfs_order]

        usage = np.zeros(engine.num_edges, dtype=np.int64)
        eid_of_edge = ig.edge_id_of
        for e, load in state.loads.items():
            usage[eid_of_edge(e)] = load
        self.usage = usage
        self._denom_join = (usage + 1).astype(np.float64)

        self.player_keys = list(game.player_nodes())
        self.player_ids = [id_of(u) for u in self.player_keys]

        #: per-position own-path edge ids and their CSR arc slots, static
        #: for the life of the binding (state paths never change)
        self._own_path_cache: Dict[int, List[int]] = {}
        self._own_patch_cache: Dict[int, List[Tuple[int, int]]] = {}

        # Lemma 2 certificate precomputation: node depths (for LCA walks)
        # and every (player node, neighbor, non-tree edge) incidence — the
        # exact row set build_broadcast_lp3 materializes.
        depth = [0] * n
        for uid in self.bfs_ids[1:]:
            depth[uid] = depth[parent_nid[uid]] + 1
        self.depth = depth
        tree_eids = set(parent_eid[uid] for uid in self.bfs_ids[1:])
        incidences: List[Tuple[int, int, int]] = []
        indptr = ig._indptr_list
        nbrs = ig._neighbors_list
        adj_e = ig._adj_edge_list
        for uid in self.player_ids:
            for k in range(indptr[uid], indptr[uid + 1]):
                e = adj_e[k]
                if e not in tree_eids:
                    incidences.append((uid, nbrs[k], e))
        self._incidences = incidences
        #: certificate slots per chunk of incidences (see _lemma2_certified)
        self._cert_chunks: List[List[Tuple[np.ndarray, np.ndarray]]] = []

    def current_path_eids(self, position: int) -> List[int]:
        eids = self._own_path_cache.get(position)
        if eids is None:
            eids = []
            x = self.player_ids[position]
            while x != self.root_id:
                eids.append(self.parent_eid[x])
                x = self.parent_nid[x]
            self._own_path_cache[position] = eids
        return list(eids)

    def _own_patch_slots(self, position: int) -> List[Tuple[int, int]]:
        """Static ``(arc slot, edge id)`` pairs of the player's own path."""
        pairs = self._own_patch_cache.get(position)
        if pairs is None:
            slots = self.engine.ig.arc_slots_of_edge
            pairs = [
                (k, e)
                for e in self.current_path_eids(position)
                for k in slots[e]
            ]
            self._own_patch_cache[position] = pairs
        return pairs

    def _lemma2_certified(self, wb: np.ndarray) -> bool:
        """True when *no* player has an improving deviation, Dijkstra-free.

        Evaluates the Lemma 2 incidence constraints — the exact rows
        ``build_broadcast_lp3`` materializes — at the current net weights:
        for a player at ``u`` and a non-tree edge ``(u, v)``, compare the
        shares of ``u``'s tree path down to ``lca(u, v)`` against paying
        ``(u, v)`` and joining ``v``'s tree path (the common suffix above
        the LCA cancels).  By Lemma 2 these single-incidence constraints
        imply every path constraint of LP (1), so all of them holding with
        nonnegative slack certifies the whole state as an equilibrium in
        ``O(incidences * depth)`` arithmetic — this is what collapses the
        broadcast separation oracle's verification rounds from one
        shortest-path search per player to none at all.

        Each side is a ``cumsum`` along its row of :meth:`_lemma2_blocks`,
        so it adds the same terms in the same order as a walk from ``u``
        and ``v`` up to the LCA, and every comparison is bit-for-bit the
        walk's.

        The comparison uses zero slack where the equilibrium checker
        allows ``tol``: the certificate only fires when every constraint
        holds outright, so a borderline scan falls through to the exact
        per-player searches and tolerance semantics never change.
        """
        m = self.engine.num_edges
        # value slots: [0, m) current shares w/n, [m, 2m) joining shares
        # w/(n + 1), [2m, 3m) net weights, 3m the padding 0.0.  Shares of
        # edges no player uses (n = 0) are never read.
        vals = np.empty(3 * m + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(wb, self.usage, out=vals[:m])
        np.divide(wb, self._denom_join, out=vals[m : 2 * m])
        vals[2 * m : 3 * m] = wb
        vals[3 * m] = 0.0
        # Chunks are built on first use, so a pass that meets a violation
        # early never walks the incidences after it.
        for lhs_slots, rhs_slots, _rows in self.lemma2_blocks():
            lhs = np.cumsum(vals[lhs_slots], axis=1)[:, -1]
            rhs = np.cumsum(vals[rhs_slots], axis=1)[:, -1]
            # _CERT_SLACK absorbs float noise on *tight* constraints (the
            # LP optimum sits exactly on several of them); even composed
            # across every incidence of a deviation path it stays orders
            # of magnitude below the checker's improvement tolerance.
            scale = np.maximum(np.maximum(lhs, 1.0), np.abs(rhs))
            if (lhs > rhs + _CERT_SLACK * scale).any():
                return False
        return True

    def lemma2_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every certificate block (see :meth:`_lemma2_blocks`), in chunk order.

        A chunk of ``_CERT_CHUNK`` incidences is walked the first time an
        iteration reaches it and kept.  LP (3) reads its rows off these
        blocks (:func:`repro.subsidies.sne_lp.build_broadcast_lp3`), so a
        solve walks each incidence once for its row and its verification.
        """
        incidences = self._incidences
        chunks = self._cert_chunks
        for k, start in enumerate(range(0, len(incidences), _CERT_CHUNK)):
            if k == len(chunks):
                chunk = incidences[start : start + _CERT_CHUNK]
                chunks.append(self._lemma2_blocks(chunk, start))
            yield from chunks[k]

    def _lemma2_blocks(
        self, incidences: List[Tuple[int, int, int]], first: int = 0
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Value slots of the two sides of ``incidences``, in blocks.

        In a block ``(lhs_slots, rhs_slots, rows)``, row ``r`` of
        ``lhs_slots`` lists the current shares of ``u``'s tree path from
        ``u`` up to ``lca(u, v)``, and row ``r`` of ``rhs_slots`` the net
        weight of ``(u, v)`` and then the joining shares of ``v``'s path,
        each in walk order and padded with the 0.0 slot; ``rows[r]`` is
        the incidence's index in :attr:`_incidences` (``incidences``
        starts at index ``first``).  Incidences are sorted by path length
        and cut into blocks whose rows at most double in length (or that
        stay within ``_CERT_BLOCK`` slots), so the int32 slots take at
        most about twice the walks' total length.
        """
        m = self.engine.num_edges
        depth = self.depth
        parent_nid = self.parent_nid
        parent_eid = self.parent_eid
        sides: List[Tuple[List[int], List[int]]] = []
        for uid, vid, e_uv in incidences:
            x, y = uid, vid
            lhs = []
            rhs = [2 * m + e_uv]
            while depth[x] > depth[y]:
                lhs.append(parent_eid[x])
                x = parent_nid[x]
            while depth[y] > depth[x]:
                rhs.append(m + parent_eid[y])
                y = parent_nid[y]
            while x != y:
                lhs.append(parent_eid[x])
                x = parent_nid[x]
                rhs.append(m + parent_eid[y])
                y = parent_nid[y]
            sides.append((lhs, rhs))
        sizes = [len(lhs) + len(rhs) for lhs, rhs in sides]
        order = sorted(range(len(sides)), key=sizes.__getitem__)
        lengths = [sizes[i] for i in order]
        blocks = []
        start = 0
        while start < len(order):
            stop = start + 1
            while stop < len(order) and (
                lengths[stop] <= 2 * lengths[start]
                or (stop + 1 - start) * lengths[stop] <= _CERT_BLOCK
            ):
                stop += 1
            chunk = order[start:stop]
            blocks.append(
                (
                    _padded_rows([sides[i][0] for i in chunk], 3 * m),
                    _padded_rows([sides[i][1] for i in chunk], 3 * m),
                    np.array(chunk, dtype=np.int64) + first,
                )
            )
            start = stop
        return blocks

    def _costs_to_root(self, wb: np.ndarray) -> List[float]:
        """Player cost at every node, accumulated root-down (O(n))."""
        wb_l = wb.tolist()
        usage_l = self.usage.tolist()
        parent_nid = self.parent_nid
        parent_eid = self.parent_eid
        cost = [0.0] * len(parent_nid)
        for uid in self.bfs_ids[1:]:
            e = parent_eid[uid]
            n_a = usage_l[e]
            share = wb_l[e] / n_a if n_a > 0 else 0.0
            cost[uid] = cost[parent_nid[uid]] + share
        return cost

    def scan(
        self,
        wb: np.ndarray,
        tol: float = EQ_TOL,
        find_all: bool = False,
        improving_only: bool = True,
    ) -> List[BestResponse]:
        engine = self.engine
        ig = engine.ig
        root = self.root_id
        wb_l = wb.tolist()
        usage_l = self.usage.tolist()
        cost_at = self._costs_to_root(wb)
        base = wb / self._denom_join  # every edge priced for a joining player
        # One shared join-priced per-arc cost list for the whole scan;
        # each query patches its own edges in place and restores them
        # (O(|T_i|) per player instead of an O(m) cost-array copy).
        arc_base = base[ig.adj_edge].tolist()
        ws = DijkstraWorkspace(ig.num_nodes)
        stats = engine.stats

        actives: List[Tuple[int, object, int, float]] = []
        for pos, (key, uid) in enumerate(zip(self.player_keys, self.player_ids)):
            cur = cost_at[uid]
            if improving_only and cur <= tol:
                continue
            actives.append((pos, key, uid, cur))

        if improving_only and actives and self._lemma2_certified(wb):
            # Lemma 2: every incidence constraint holds, so no player has
            # any improving deviation — the whole scan needs no searches.
            stats.players_batched += len(actives)
            return []

        out: List[BestResponse] = []
        for pos, key, uid, cur in actives:
            # Own edges keep their current denominator n_a; the slot pairs
            # are precomputed once per binding.
            patches: List[Tuple[int, float]] = []
            for k, e in self._own_patch_slots(pos):
                patches.append((k, arc_base[k]))
                arc_base[k] = wb_l[e] / usage_l[e]
            # Improving deviations cost < cur, so cur is a sound search bound.
            bound = cur if improving_only else float("inf")
            dist, pred, pred_edge = dijkstra_indexed(
                ig, uid, target=root, bound=bound, arc_costs=arc_base, workspace=ws
            )
            stats.dijkstra_calls += 1
            for k, v in patches:
                arc_base[k] = v
            dcost = dist[root]
            if improving_only and not is_improvement(dcost, cur, tol):
                continue
            node_ids, edge_ids = _walk_path_back(pred, pred_edge, uid, root)
            out.append(BestResponse(key, pos, cur, dcost, node_ids, edge_ids))
            if improving_only and not find_all:
                break
        return out



class _GeneralBinding(_StateBinding):
    """General game state: one (source, target) pair and path per player."""

    def __init__(self, engine: BestResponseEngine, state: State) -> None:
        self.engine = engine
        self.state = state
        ig = engine.ig
        game = state.game
        id_of = ig.id_of
        eid_of_edge = ig.edge_id_of

        usage = np.zeros(engine.num_edges, dtype=np.int64)
        for e, count in state.usage.items():
            usage[eid_of_edge(e)] = count
        self.usage = usage
        self._denom_join = (usage + 1).astype(np.float64)

        self.player_keys = list(range(game.n_players))
        self.sources = [id_of(p.source) for p in game.players]
        self.targets = [id_of(p.target) for p in game.players]
        self.paths = [
            [eid_of_edge(e) for e in state.edge_paths[i]]
            for i in range(game.n_players)
        ]

    def current_path_eids(self, position: int) -> List[int]:
        return list(self.paths[position])

    def scan(
        self,
        wb: np.ndarray,
        tol: float = EQ_TOL,
        find_all: bool = False,
        improving_only: bool = True,
    ) -> List[BestResponse]:
        engine = self.engine
        ig = engine.ig
        wb_l = wb.tolist()
        usage_l = self.usage.tolist()
        base = wb / self._denom_join
        # Shared join-priced arc costs; per-player own edges are patched in
        # and restored around each query (see _TreeBinding.scan).
        arc_base = base[ig.adj_edge].tolist()
        slots = ig.arc_slots_of_edge
        ws = DijkstraWorkspace(ig.num_nodes)
        stats = engine.stats

        curs: List[float] = []
        for pos in self.player_keys:
            cur = 0.0
            for e in self.paths[pos]:  # sequential sum, matching the dict order
                cur += wb_l[e] / usage_l[e]
            curs.append(cur)

        certified = [False] * len(curs)
        if improving_only:
            # Players sharing a target (multicast terminals, repeated
            # commodity pairs) share one reverse certificate search.
            groups: dict = {}
            for pos in self.player_keys:
                if curs[pos] <= tol:
                    continue
                groups.setdefault(self.targets[pos], []).append(pos)
            for t, members in groups.items():
                if len(members) < 2:
                    continue
                flags = self._join_certificates(
                    t, arc_base, [(self.sources[p], curs[p]) for p in members], tol, ws
                )
                for p, flag in zip(members, flags):
                    certified[p] = flag

        out: List[BestResponse] = []
        for pos in self.player_keys:
            cur = curs[pos]
            if improving_only and cur <= tol:
                continue
            if certified[pos]:
                continue
            own = self.paths[pos]
            patches: List[Tuple[int, float]] = []
            for e in own:
                val = wb_l[e] / usage_l[e]
                for k in slots[e]:
                    patches.append((k, arc_base[k]))
                    arc_base[k] = val
            s, t = self.sources[pos], self.targets[pos]
            # Improving deviations cost < cur, so cur is a sound search bound
            # (the player's own path always stays reachable below it).
            bound = cur if improving_only else float("inf")
            dist, pred, pred_edge = dijkstra_indexed(
                ig, s, target=t, bound=bound, arc_costs=arc_base, workspace=ws
            )
            stats.dijkstra_calls += 1
            for k, v in patches:
                arc_base[k] = v
            dcost = dist[t]
            if improving_only:
                if not is_improvement(dcost, cur, tol):
                    continue
            elif dcost == float("inf"):
                raise ValueError(f"player {pos} cannot reach her target")
            node_ids, edge_ids = _walk_path_back(pred, pred_edge, s, t)
            out.append(BestResponse(pos, pos, cur, dcost, node_ids, edge_ids))
            if improving_only and not find_all:
                break
        return out



class _RuleBinding(_StateBinding):
    """A path state priced through a pluggable cost-sharing rule.

    Handles every family outside the fair/unit fast paths: weighted
    demands (:class:`~repro.games.base.ProportionalSharing`), arbitrary
    per-edge splits (:class:`~repro.games.base.PerEdgeSplit`) and directed
    traversal constraints (games exposing ``engine_arc_open``).  Loads are
    float contribution sums ``L_a = sum_j alpha_j(a)``; a deviator with
    contribution vector ``alpha_i`` prices edge ``a`` at ``alpha_i(a) *
    wb_a / (L_a + alpha_i(a) - [own] * alpha_i(a))`` — two vector
    operations plus the ``O(|T_i|)`` own-edge fix-up, exactly like the
    fair bindings.
    """

    def __init__(self, engine: BestResponseEngine, state: object) -> None:
        self.engine = engine
        self.state = state
        game = state.game
        ig = engine.ig
        id_of = ig.id_of
        eid_of_edge = ig.edge_id_of

        rule = getattr(game, "cost_sharing", None)
        self.rule = rule if rule is not None else FairSharing()
        loads_map = getattr(state, "load", None)
        if loads_map is None:
            loads_map = state.usage
        load = np.zeros(engine.num_edges)
        for e, value in loads_map.items():
            load[eid_of_edge(e)] = value
        self.load = load
        self.usage = load  # the binding contract's per-edge load array

        n = game.n_players
        self.player_keys = list(range(n))
        self.sources = [id_of(p.source) for p in game.players]
        self.targets = [id_of(p.target) for p in game.players]
        self.paths = [
            [eid_of_edge(e) for e in state.edge_paths[i]] for i in range(n)
        ]
        #: per-player contribution vectors (scalars broadcast)
        self.alphas = [self.rule.weights_for(i, engine) for i in range(n)]
        #: scalar contributions resolved once (None = genuine per-edge vector)
        self._scalar_alphas = [
            float(a) if np.isscalar(a) else None for a in self.alphas
        ]
        arc_open_fn = getattr(game, "engine_arc_open", None)
        self.arc_open: Optional[np.ndarray] = (
            arc_open_fn(ig) if arc_open_fn is not None else None
        )
        self._arc_open_list = (
            self.arc_open.tolist() if self.arc_open is not None else None
        )
        #: CSR arc slots of each edge id (own-edge patching in `scan`)
        self._slots_of_edge = ig.arc_slots_of_edge

    def current_path_eids(self, position: int) -> List[int]:
        return list(self.paths[position])

    def _alpha_on(self, position: int, eid: int) -> float:
        a = self.alphas[position]
        return float(a) if np.isscalar(a) else float(a[eid])

    def current_share_coeff(self, position: int, eid: int) -> float:
        return self._alpha_on(position, eid) / self.load[eid]

    def joining_share_coeff(self, position: int, eid: int) -> float:
        a = self._alpha_on(position, eid)
        extra = 0.0 if eid in self._own_eids(position) else a
        return a / (self.load[eid] + extra)

    def scan(
        self,
        wb: np.ndarray,
        tol: float = EQ_TOL,
        find_all: bool = False,
        improving_only: bool = True,
    ) -> List[BestResponse]:
        engine = self.engine
        ig = engine.ig
        load = self.load
        wb_l = wb.tolist()
        load_l = load.tolist()
        adj_edge = ig.adj_edge
        mask = self.arc_open
        mask_l = self._arc_open_list
        slots_of_edge = self._slots_of_edge
        ws = DijkstraWorkspace(ig.num_nodes)
        stats = engine.stats
        # Players sharing one scalar contribution (all of them, under
        # proportional sharing with repeated demands) share one join-priced
        # per-arc cost list per scan; each query patches its own edges in
        # place and restores them — O(|T_i|) per player instead of O(m).
        arc_base_cache: dict = {}

        def arc_base_for(a_s: float) -> List[float]:
            arc_costs = arc_base_cache.get(a_s)
            if arc_costs is None:
                # every edge priced for a joining player of weight a_s,
                # expanded to CSR arc slots (closed directions -> inf)
                expanded = ((a_s * wb) / (load + a_s))[adj_edge]
                if mask is not None:
                    expanded = np.where(mask, expanded, np.inf)
                arc_costs = arc_base_cache[a_s] = expanded.tolist()
            return arc_costs

        curs: List[float] = []
        for pos in self.player_keys:
            a = self.alphas[pos]
            a_s = self._scalar_alphas[pos]
            own = self.paths[pos]
            cur = 0.0
            if a_s is not None:
                for e in own:  # sequential sum, matching the dict-based order
                    cur += a_s * wb_l[e] / load_l[e]
            else:
                for e in own:
                    cur += a[e] * wb_l[e] / load_l[e]
            curs.append(cur)

        certified = [False] * len(curs)
        if improving_only and mask is None:
            # Scalar-contribution players sharing (weight, target) share one
            # reverse certificate search on their join-priced arc list.
            # Directed games keep per-player searches: the reverse of an
            # open arc need not be open.
            groups: dict = {}
            for pos in self.player_keys:
                a_s = self._scalar_alphas[pos]
                if a_s is None or curs[pos] <= tol:
                    continue
                groups.setdefault((a_s, self.targets[pos]), []).append(pos)
            for (a_s, t), members in groups.items():
                if len(members) < 2:
                    continue
                flags = self._join_certificates(
                    t,
                    arc_base_for(a_s),
                    [(self.sources[p], curs[p]) for p in members],
                    tol,
                    ws,
                )
                for p, flag in zip(members, flags):
                    certified[p] = flag

        out: List[BestResponse] = []
        for pos in self.player_keys:
            cur = curs[pos]
            if improving_only and cur <= tol:
                continue
            if certified[pos]:
                continue
            a = self.alphas[pos]
            a_s = self._scalar_alphas[pos]
            own = self.paths[pos]
            s, t = self.sources[pos], self.targets[pos]
            # Improving deviations cost < cur, so cur is a sound search bound.
            bound = cur if improving_only else float("inf")
            if a_s is not None:
                arc_costs = arc_base_for(a_s)
                patches = []
                for e in own:  # own edges keep their current denominator L_a
                    val = a_s * wb_l[e] / load_l[e]
                    for k in slots_of_edge[e]:
                        if mask_l is None or mask_l[k]:
                            patches.append((k, arc_costs[k]))
                            arc_costs[k] = val
                dist, pred, pred_edge = dijkstra_indexed(
                    ig, s, target=t, bound=bound, arc_costs=arc_costs, workspace=ws
                )
                for k, v in patches:
                    arc_costs[k] = v
            else:
                costs = (a * wb) / (load + a)
                for e in own:
                    costs[e] = a[e] * wb_l[e] / load_l[e]
                dist, pred, pred_edge = dijkstra_indexed(
                    ig, s, costs, target=t, bound=bound, arc_open=mask, workspace=ws
                )
            stats.dijkstra_calls += 1
            dcost = dist[t]
            if improving_only:
                if not is_improvement(dcost, cur, tol):
                    continue
            elif dcost == float("inf"):
                raise ValueError(f"player {pos} cannot reach her target")
            node_ids, edge_ids = _walk_path_back(pred, pred_edge, s, t)
            out.append(BestResponse(pos, pos, cur, dcost, node_ids, edge_ids))
            if improving_only and not find_all:
                break
        return out



class EngineProfile:
    """Mutable strategy profile for best-response dynamics.

    Holds the usage counts and per-player paths in id space; a move updates
    the counts incrementally along the old and new paths instead of
    rebuilding (and revalidating) a ``State``.  ``to_state`` materializes a
    validated :class:`~repro.games.game.State` at the end of a run.

    The per-arc join-priced cost list is maintained *incrementally* too: a
    move re-prices only the arcs of the edges whose usage changed, and each
    best-response query patches the mover's own edges in place around a
    workspace-backed Dijkstra — so a dynamics step costs ``O(|old| + |new|)``
    bookkeeping plus the search, never an ``O(m)`` reset.  Oracle-work
    counters are shared with the engine via :attr:`stats`.
    """

    def __init__(self, engine: BestResponseEngine, state: State, wb: np.ndarray) -> None:
        rule = getattr(state.game, "cost_sharing", None)
        if rule is not None and not isinstance(rule, FairSharing):
            # Weighted/per-edge-split games have no exact Rosenthal
            # potential, so sequential best-response descent has no
            # termination guarantee; directed games (fair rule + arc
            # masks) are fine.
            raise TypeError(
                "best-response dynamics require fair-sharing states; got a "
                f"state priced by {type(rule).__name__}"
            )
        self.engine = engine
        self.game: NetworkDesignGame = state.game
        ig = engine.ig
        eid_of_edge = ig.edge_id_of
        id_of = ig.id_of

        self.wb = wb
        self._wb_l = wb.tolist()
        usage = np.zeros(engine.num_edges, dtype=np.int64)
        for e, count in state.usage.items():
            usage[eid_of_edge(e)] = count
        self.usage = usage
        self._usage_l = usage.tolist()
        self.node_paths: List[List[int]] = [
            [id_of(u) for u in nodes] for nodes in state.node_paths
        ]
        self.eid_paths: List[List[int]] = [
            [eid_of_edge(e) for e in state.edge_paths[i]]
            for i in range(self.game.n_players)
        ]
        self.sources = [id_of(p.source) for p in self.game.players]
        self.targets = [id_of(p.target) for p in self.game.players]
        self._H = engine.harmonic_table(self.game.n_players)
        # Directed games: dynamics must search along allowed arcs only.
        arc_open_fn = getattr(self.game, "engine_arc_open", None)
        self.arc_open: Optional[np.ndarray] = (
            arc_open_fn(ig) if arc_open_fn is not None else None
        )
        self._mask_l = self.arc_open.tolist() if self.arc_open is not None else None
        # Join-priced per-arc cost list, kept current across moves; closed
        # directions are inf and never rewritten.
        expanded = (wb / (usage + 1.0))[ig.adj_edge]
        if self.arc_open is not None:
            expanded = np.where(self.arc_open, expanded, np.inf)
        self._arc_base: List[float] = expanded.tolist()
        self._slots = ig.arc_slots_of_edge
        self._ws = DijkstraWorkspace(ig.num_nodes)

    @property
    def stats(self) -> OracleStats:
        """The engine's shared oracle counters (searches run, batch skips)."""
        return self.engine.stats

    # -- queries -----------------------------------------------------------

    def player_cost(self, position: int) -> float:
        wb_l = self._wb_l
        usage_l = self._usage_l
        total = 0.0
        for e in self.eid_paths[position]:
            total += wb_l[e] / usage_l[e]
        return total

    def potential(self) -> float:
        """Rosenthal potential ``sum_a (w_a - b_a) H_{n_a}`` (vectorized)."""
        return float(self.wb @ self._H[self.usage])

    def best_response(self, position: int, bounded: bool = False) -> BestResponse:
        """Best response of one player against the current profile.

        Always returns a record (callers compare costs), like the legacy
        per-player oracle; zero-cost players short-circuit to "stay put".
        With ``bounded=True`` the search prunes at the player's current cost
        — exact whenever an improving deviation exists, ``inf`` deviation
        cost otherwise — which is all a dynamics step needs.
        """
        cur = self.player_cost(position)
        if cur <= 0.0:  # nonnegative costs: staying is already optimal
            return BestResponse(
                position,
                position,
                cur,
                cur,
                list(self.node_paths[position]),
                list(self.eid_paths[position]),
            )
        own = self.eid_paths[position]
        wb_l = self._wb_l
        usage_l = self._usage_l
        arc_base = self._arc_base
        slots = self._slots
        mask_l = self._mask_l
        patches: List[Tuple[int, float]] = []
        for e in own:
            val = wb_l[e] / usage_l[e]
            for k in slots[e]:
                if mask_l is None or mask_l[k]:
                    patches.append((k, arc_base[k]))
                    arc_base[k] = val
        s, t = self.sources[position], self.targets[position]
        dist, pred, pred_edge = dijkstra_indexed(
            self.engine.ig,
            s,
            target=t,
            bound=cur if bounded else float("inf"),
            arc_costs=arc_base,
            workspace=self._ws,
        )
        self.engine.stats.dijkstra_calls += 1
        for k, v in patches:
            arc_base[k] = v
        dcost = dist[t]
        if dcost == float("inf"):
            if bounded:  # no deviation beats the current path
                return BestResponse(
                    position,
                    position,
                    cur,
                    dcost,
                    list(self.node_paths[position]),
                    list(self.eid_paths[position]),
                )
            raise ValueError(f"player {position} cannot reach her target")
        node_ids, edge_ids = _walk_path_back(pred, pred_edge, s, t)
        return BestResponse(position, position, cur, dcost, node_ids, edge_ids)

    # -- mutation ----------------------------------------------------------

    def apply(self, position: int, node_ids: List[int], edge_ids: List[int]) -> None:
        """Switch one player's path, updating usage counts incrementally.

        Only the arcs of edges whose usage changed are re-priced in the
        shared cost list — the rest of the graph is untouched.
        """
        usage = self.usage
        usage_l = self._usage_l
        wb_l = self._wb_l
        arc_base = self._arc_base
        slots = self._slots
        mask_l = self._mask_l
        changed = set()
        for e in self.eid_paths[position]:
            usage[e] -= 1
            usage_l[e] -= 1
            changed.add(e)
        for e in edge_ids:
            usage[e] += 1
            usage_l[e] += 1
            changed.add(e)
        for e in changed:
            val = wb_l[e] / (usage_l[e] + 1.0)
            for k in slots[e]:
                if mask_l is None or mask_l[k]:
                    arc_base[k] = val
        self.node_paths[position] = list(node_ids)
        self.eid_paths[position] = list(edge_ids)

    # -- materialization ---------------------------------------------------

    def to_state(self) -> State:
        """Validated state for the current profile (family-aware)."""
        labels = self.engine.ig.labels
        return self.game.state(
            [[labels[i] for i in path] for path in self.node_paths]
        )
