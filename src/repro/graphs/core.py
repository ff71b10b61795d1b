"""Indexed graph core: interned labels, CSR adjacency, array algorithms.

The hashable-node :class:`~repro.graphs.graph.Graph` is the friendly front
door (the hardness gadgets key nodes by tuples and strings), but every hot
path — best-response Dijkstra, MST scoring, spanning-tree search — spends
most of its time hashing labels and walking dict-of-dicts.  This module is
the layer-zero substrate those paths run on instead:

* :class:`IndexedGraph` — an immutable snapshot of a ``Graph`` with node
  labels interned to contiguous int ids and the adjacency stored CSR-style
  (``indptr`` / ``neighbors`` / ``weights`` as numpy arrays).  Edges get
  contiguous ids too, so per-edge quantities (usage counts, subsidies,
  deviation prices) live in flat arrays indexed by edge id.
* :func:`dijkstra_indexed` — single-source shortest paths over int ids with
  preallocated distance/predecessor arrays and pluggable per-edge costs.
* :class:`IntUnionFind` — array-backed union-find over ``0..n-1``.

``Graph.to_indexed()`` caches the snapshot keyed by the graph's mutation
counter, so repeated interning of the same graph is free.

Label interning order is the deterministic ``_sort_key`` order (type name,
then repr), which makes id comparisons reproduce the legacy heterogeneous
tie-breaks exactly: sorting edges by ``(weight, id_u, id_v)`` yields the
same Kruskal MST the dict implementation picked.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Edge, Graph, Node, _sort_key, canonical_edge
from repro.utils.validation import check_edge_weight


class IntUnionFind:
    """Union-find over the integers ``0..n-1`` (list-backed, path halving)."""

    __slots__ = ("_parent", "_rank", "n_components")

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._rank = [0] * n
        self.n_components = n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self.n_components -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)


class IndexedGraph:
    """Immutable int-indexed CSR snapshot of an undirected weighted graph.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the original hashable label of node id ``i``
        (ids are assigned in deterministic ``_sort_key`` order).
    indptr, neighbors, weights, adj_edge:
        CSR adjacency: the directed arcs out of node ``u`` occupy slots
        ``indptr[u]:indptr[u+1]``; ``neighbors[k]`` is the head node id,
        ``weights[k]`` the edge weight and ``adj_edge[k]`` the undirected
        edge id of arc ``k``.  Arcs are sorted by (tail, head).
    edge_u, edge_v, edge_weights:
        Per-edge arrays in ``Graph.edges()`` order; ``(edge_u[e],
        edge_v[e])`` are the ids of the canonical endpoints.
    edge_labels:
        ``edge_labels[e]`` is the canonical ``(u, v)`` label pair of edge
        ``e`` — the exact keys the dict-based layers use.
    """

    __slots__ = (
        "labels",
        "indptr",
        "neighbors",
        "weights",
        "adj_edge",
        "edge_u",
        "edge_v",
        "edge_weights",
        "_edge_labels",
        "_id_of",
        "_edge_id",
        "_indptr_l",
        "_neighbors_l",
        "_adj_edge_l",
        "_weights_l",
        "_arc_slots",
    )

    def __init__(self, nodes: Sequence[Node], edges: Iterable[Tuple[Node, Node, float]]):
        labels = sorted(nodes, key=_sort_key)
        id_of: Dict[Node, int] = {u: i for i, u in enumerate(labels)}
        if len(id_of) != len(labels):
            raise ValueError("duplicate node labels")
        n = len(labels)

        edge_labels: List[Edge] = []
        eu: List[int] = []
        ev: List[int] = []
        ew: List[float] = []
        edge_id: Dict[Edge, int] = {}
        for u, v, w in edges:
            e = canonical_edge(u, v)
            if e in edge_id:
                raise ValueError(f"duplicate edge {e!r}")
            edge_id[e] = len(edge_labels)
            edge_labels.append(e)
            eu.append(id_of[e[0]])
            ev.append(id_of[e[1]])
            ew.append(float(w))
        m = len(edge_labels)

        self.labels: Sequence[Node] = labels
        self._id_of = id_of
        self._edge_labels: Optional[List[Edge]] = edge_labels
        self._edge_id: Optional[Dict[Edge, int]] = edge_id
        self.edge_u = np.asarray(eu, dtype=np.int64).reshape(m)
        self.edge_v = np.asarray(ev, dtype=np.int64).reshape(m)
        self.edge_weights = np.asarray(ew, dtype=np.float64).reshape(m)
        self._build_csr(n)

    def _build_csr(
        self, n: int, idx_dtype=np.int64, reject_duplicates: bool = False
    ) -> None:
        """CSR over both arc directions, grouped by tail then head.

        One stable argsort of the arc keys ``tail * n + head`` gives the
        ``lexsort((heads, tails))`` order (ties keep arc order) at about
        half the cost.  With ``reject_duplicates`` equal adjacent keys, the
        two arcs of a repeated edge, raise ``ValueError``.
        """
        m = len(self.edge_weights)
        tails = np.concatenate([self.edge_u, self.edge_v]).astype(np.int64)
        heads = np.concatenate([self.edge_v, self.edge_u]).astype(idx_dtype)
        eids = np.concatenate(
            [np.arange(m, dtype=idx_dtype), np.arange(m, dtype=idx_dtype)]
        )
        keys = tails * np.int64(n)
        keys += heads
        order = np.argsort(keys, kind="stable")
        if reject_duplicates:
            keys = keys[order]
            if bool((keys[1:] == keys[:-1]).any()):
                raise ValueError("duplicate edge")
        del keys
        self.neighbors = heads[order]
        self.adj_edge = eids[order]
        self.weights = self.edge_weights[self.adj_edge]
        indptr = np.zeros(n + 1, dtype=idx_dtype)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        self.indptr = indptr

        # Plain-list mirrors for the Python-level inner loops (list indexing
        # is several times faster than numpy scalar indexing) are built
        # lazily: the array-native scale tier never touches them, which
        # keeps million-node snapshots at a few int32/float64 arrays.
        self._indptr_l: Optional[List[int]] = None
        self._neighbors_l: Optional[List[int]] = None
        self._adj_edge_l: Optional[List[int]] = None
        self._weights_l: Optional[List[float]] = None
        self._arc_slots: Optional[List[List[int]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "IndexedGraph":
        """Snapshot a :class:`Graph` (prefer the cached ``Graph.to_indexed``)."""
        return cls(graph.nodes, graph.edges())

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_weights: np.ndarray,
        validate: bool = True,
    ) -> "IndexedGraph":
        """Array-native constructor for the memory-lean scale tier.

        Node labels are the identity ``range(num_nodes)`` (no dicts, no
        interning — ids *are* labels), the CSR index arrays are int32 when
        they fit, and the label-level side structures (``edge_labels``,
        ``id_of`` maps, plain-list mirrors) stay lazy.  A million-node
        instance therefore costs a handful of flat arrays rather than the
        dict-of-dicts a :class:`Graph` round trip would materialize.

        Note the identity labeling differs from ``Graph.to_indexed()``'s
        repr-order interning (where ``10`` sorts before ``2``); edge and
        node *ids* of the two constructions are not comparable, only the
        label-level ``(u, v, w)`` triples are.

        ``validate=True`` rejects what ``Graph.add_edge`` rejects (NaN or
        negative weights, with the same messages, and self-loops) plus
        out-of-range endpoints and duplicate edges.
        """
        n = int(num_nodes)
        eu = np.ascontiguousarray(edge_u, dtype=np.int64)
        ev = np.ascontiguousarray(edge_v, dtype=np.int64)
        ew = np.ascontiguousarray(edge_weights, dtype=np.float64)
        m = len(ew)
        if len(eu) != m or len(ev) != m:
            raise ValueError("edge_u/edge_v/edge_weights length mismatch")
        if validate and m:
            bad = np.isnan(ew) | (ew < 0)
            if bool(bad.any()):
                # Same message as ``Graph.add_edge`` for the first bad weight.
                check_edge_weight(ew[int(bad.argmax())])
            if int(eu.min()) < 0 or int(ev.min()) < 0 or max(
                int(eu.max()), int(ev.max())
            ) >= n:
                raise ValueError("edge endpoint out of range")
            if bool((eu == ev).any()):
                raise ValueError("self-loop edge")
        idx_dtype = np.int32 if max(n + 1, 2 * m) < 2**31 else np.int64

        self = cls.__new__(cls)
        self.labels = range(n)
        self._id_of = None
        self._edge_labels = None
        self._edge_id = None
        self.edge_u = eu.astype(idx_dtype)
        self.edge_v = ev.astype(idx_dtype)
        self.edge_weights = ew
        # Duplicate edges are found in the CSR's sorted arc keys.
        self._build_csr(n, idx_dtype=idx_dtype, reject_duplicates=validate)
        return self

    # -- size --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edge_weights)

    # -- lazy label-level structures ---------------------------------------

    @property
    def edge_labels(self) -> List[Edge]:
        """``edge_labels[e]``: canonical ``(u, v)`` label pair of edge ``e``."""
        labels = self._edge_labels
        if labels is None:
            node = self.labels
            labels = [
                canonical_edge(node[int(u)], node[int(v)])
                for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist())
            ]
            self._edge_labels = labels
        return labels

    @property
    def _edge_index(self) -> Dict[Edge, int]:
        idx = self._edge_id
        if idx is None:
            idx = {e: i for i, e in enumerate(self.edge_labels)}
            self._edge_id = idx
        return idx

    @property
    def _indptr_list(self) -> List[int]:
        mirror = self._indptr_l
        if mirror is None:
            mirror = self._indptr_l = self.indptr.tolist()
        return mirror

    @property
    def _neighbors_list(self) -> List[int]:
        mirror = self._neighbors_l
        if mirror is None:
            mirror = self._neighbors_l = self.neighbors.tolist()
        return mirror

    @property
    def _adj_edge_list(self) -> List[int]:
        mirror = self._adj_edge_l
        if mirror is None:
            mirror = self._adj_edge_l = self.adj_edge.tolist()
        return mirror

    @property
    def _weights_list(self) -> List[float]:
        mirror = self._weights_l
        if mirror is None:
            mirror = self._weights_l = self.weights.tolist()
        return mirror

    # -- label <-> id ------------------------------------------------------

    def id_of(self, label: Node) -> int:
        """Int id of a node label (KeyError when absent)."""
        id_of = self._id_of
        if id_of is None:  # identity labels from ``from_arrays``
            if isinstance(label, int) and 0 <= label < len(self.labels):
                return label
            raise KeyError(label)
        return id_of[label]

    def label_of(self, node_id: int) -> Node:
        """Original hashable label of a node id."""
        return self.labels[node_id]

    def has_label(self, label: Node) -> bool:
        try:
            self.id_of(label)
        except KeyError:
            return False
        return True

    def edge_id(self, u: Node, v: Node) -> int:
        """Edge id of the undirected edge {u, v} (KeyError when absent)."""
        return self._edge_index[canonical_edge(u, v)]

    def edge_id_of(self, edge: Edge) -> int:
        """Edge id of an already-canonical edge key."""
        return self._edge_index[edge]

    def edge_of(self, eid: int) -> Edge:
        """Canonical label pair of an edge id."""
        return self.edge_labels[eid]

    def path_edge_ids(self, node_labels: Sequence[Node]) -> List[int]:
        """Edge ids along a node-label walk."""
        eid = self._edge_index
        return [
            eid[canonical_edge(a, b)] for a, b in zip(node_labels, node_labels[1:])
        ]

    # -- conversion --------------------------------------------------------

    def to_graph(self) -> Graph:
        """Materialize back into a mutable hashable-node :class:`Graph`."""
        g = Graph()
        for u in self.labels:
            g.add_node(u)
        for (u, v), w in zip(self.edge_labels, self.edge_weights):
            g.add_edge(u, v, float(w))
        return g

    def degree(self, node_id: int) -> int:
        return int(self.indptr[node_id + 1] - self.indptr[node_id])

    @property
    def arc_slots_of_edge(self) -> List[List[int]]:
        """CSR arc slots of each edge id (both directions), lazily built.

        ``arc_slots_of_edge[e]`` lists the slots ``k`` with
        ``adj_edge[k] == e`` — exactly the positions a caller must patch to
        re-price edge ``e`` in a shared per-arc cost list.  The engine's
        per-player own-edge overrides use this to pay ``O(|T_i|)`` per
        query instead of copying an ``O(m)`` cost array each time.
        """
        slots = self._arc_slots
        if slots is None:
            slots = [[] for _ in range(self.num_edges)]
            for k, e in enumerate(self._adj_edge_list):
                slots[e].append(k)
            self._arc_slots = slots
        return slots

    def arc_open_mask(self, arcs: Iterable[Tuple[Node, Node]]) -> np.ndarray:
        """Boolean mask over CSR arc slots opening only the given directions.

        ``arcs`` are ``(tail, head)`` label pairs; each must be a direction
        of an existing undirected edge (KeyError otherwise).  The mask is
        aligned with :attr:`neighbors`/:attr:`adj_edge` and feeds
        :func:`dijkstra_indexed`'s ``arc_open`` parameter — the substrate
        for directed game families on the shared undirected CSR.
        """
        mask = np.zeros(len(self.neighbors), dtype=bool)
        indptr = self._indptr_list
        neighbors = self._neighbors_list
        id_of = self.id_of
        for u_label, v_label in arcs:
            u, v = id_of(u_label), id_of(v_label)
            lo, hi = indptr[u], indptr[u + 1]
            k = bisect_left(neighbors, v, lo, hi)  # heads sorted within a tail
            if k >= hi or neighbors[k] != v:
                raise KeyError(f"no edge under arc {(u_label, v_label)!r}")
            mask[k] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGraph(n={self.num_nodes}, m={self.num_edges})"


class DijkstraWorkspace:
    """Reusable scratch state for :func:`dijkstra_indexed`.

    A search allocates three length-``n`` lists and a heap; oracles that run
    hundreds of queries per scan pay that over and over.  A workspace keeps
    the flat arrays (and the heap list, whose capacity persists) alive
    across queries and resets lazily: every node the previous query touched
    is recorded and only those entries are restored, so a bounded search
    that settled ``k`` nodes costs ``O(k)`` to clean up, not ``O(n)``.

    The lists returned by a workspace-backed search are the scratch buffers
    themselves — read what you need (distances, the predecessor walk)
    before the next query on the same workspace overwrites them.  A
    workspace is single-threaded by design; concurrent scans must use
    separate workspaces (the engine creates one per scan).
    """

    __slots__ = ("n", "dist", "pred", "pred_edge", "heap", "_touched")

    def __init__(self, n: int) -> None:
        self.n = n
        self.dist: List[float] = [float("inf")] * n
        self.pred: List[int] = [-1] * n
        self.pred_edge: List[int] = [-1] * n
        self.heap: List[Tuple[float, int]] = []
        self._touched: List[int] = []

    def _begin(self) -> Tuple[List[float], List[int], List[int], List[Tuple[float, int]], List[int]]:
        """Reset the entries touched by the previous query; hand out buffers."""
        dist, pred, pred_edge = self.dist, self.pred, self.pred_edge
        INF = float("inf")
        for v in self._touched:
            dist[v] = INF
            pred[v] = -1
            pred_edge[v] = -1
        self._touched = touched = []
        self.heap.clear()
        return dist, pred, pred_edge, self.heap, touched


def dijkstra_indexed(
    ig: IndexedGraph,
    source: int,
    edge_costs: Optional[np.ndarray] = None,
    target: int = -1,
    validate: bool = False,
    bound: float = float("inf"),
    arc_open: Optional[np.ndarray] = None,
    arc_costs: Optional[List[float]] = None,
    workspace: Optional[DijkstraWorkspace] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Dijkstra over int node ids with per-edge-id costs.

    Parameters
    ----------
    edge_costs:
        Array of length ``num_edges`` giving the cost of each undirected
        edge; ``None`` uses the stored weights.  Costs must be nonnegative
        (set ``validate=True`` to check).
    arc_open:
        Optional boolean mask over CSR arc slots (see
        :meth:`IndexedGraph.arc_open_mask`); closed directions are never
        relaxed, which is how directed game families search on the shared
        undirected CSR.
    arc_costs:
        Optional pre-expanded per-arc-slot cost *list* (length
        ``2 * num_edges``, aligned with :attr:`IndexedGraph.adj_edge`),
        taking precedence over ``edge_costs``/``arc_open``.  Callers that
        run many queries over a shared pricing (the rule-priced engine
        binding) patch this list in place per query instead of paying an
        O(m) array conversion each time; closed directions are encoded as
        ``inf`` entries.
    target:
        Stop as soon as this node id is settled (``-1``: settle everything).
    bound:
        Prune tentative distances ``>= bound``.  Distances below the bound
        are still exact minima; nodes whose every path costs at least the
        bound stay at ``inf``.  Best-response oracles pass the deviating
        player's current cost here — a costlier prefix can never yield an
        improving deviation.
    workspace:
        Optional :class:`DijkstraWorkspace` whose preallocated arrays back
        the search.  The returned lists are then the workspace buffers,
        valid until its next query; repeated queries skip the per-call
        allocations and pay only an ``O(touched)`` lazy reset.

    Returns
    -------
    ``(dist, pred, pred_edge)`` lists of length ``num_nodes``: tentative
    distance (``inf`` when unreached), predecessor node id and predecessor
    edge id (``-1`` when unreached / at the source).  As in the dict-based
    implementation, entries of frontier nodes hold their best tentative
    values when the search exits early at ``target``.
    """
    if arc_costs is not None:
        costs = arc_costs
    elif edge_costs is None:
        if arc_open is None:
            costs = ig._weights_list
        else:
            costs = np.where(arc_open, ig.weights, np.inf).tolist()
    else:
        if validate and edge_costs.size:
            lo = np.min(edge_costs)
            if not lo >= 0.0:  # catches NaN too
                raise ValueError(f"negative/NaN edge cost: {lo}")
        arc_costs = edge_costs[ig.adj_edge]
        if arc_open is not None:
            arc_costs = np.where(arc_open, arc_costs, np.inf)
        costs = arc_costs.tolist()

    n = ig.num_nodes
    INF = float("inf")
    touched: Optional[List[int]] = None
    if workspace is None:
        dist = [INF] * n
        pred = [-1] * n
        pred_edge = [-1] * n
        heap: List[Tuple[float, int]] = []
    else:
        if workspace.n != n:
            raise ValueError(
                f"workspace sized for {workspace.n} nodes, graph has {n}"
            )
        dist, pred, pred_edge, heap, touched = workspace._begin()
    indptr = ig._indptr_list
    neighbors = ig._neighbors_list
    adj_edge = ig._adj_edge_list

    dist[source] = 0.0
    heap.append((0.0, source))
    if touched is not None:
        touched.append(source)
        touched_append = touched.append
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        if u == target:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = neighbors[k]
            nd = d + costs[k]
            if nd < dist[v] and nd < bound:
                if touched is not None and pred[v] < 0 and v != source:
                    touched_append(v)
                dist[v] = nd
                pred[v] = u
                pred_edge[v] = adj_edge[k]
                push(heap, (nd, v))
    return dist, pred, pred_edge


def bfs_hops_indexed(ig: IndexedGraph, source: int) -> List[int]:
    """Unweighted hop counts from ``source`` (-1 for unreachable nodes).

    The unit-weight cross-check for :func:`dijkstra_indexed` in the tests,
    and a cheap reachability primitive.
    """
    n = ig.num_nodes
    hops = [-1] * n
    hops[source] = 0
    indptr = ig._indptr_list
    neighbors = ig._neighbors_list
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt: List[int] = []
        for u in frontier:
            for k in range(indptr[u], indptr[u + 1]):
                v = neighbors[k]
                if hops[v] < 0:
                    hops[v] = level
                    nxt.append(v)
        frontier = nxt
    return hops
