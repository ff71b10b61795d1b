"""Minimum spanning trees: Kruskal and Prim, plus validators.

Broadcast games make MSTs the optimal designs (Section 2 of the paper), so
these routines sit under every SNE/SND experiment.  Ties are broken
deterministically (by canonical edge key) so repeated runs pick the same MST.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.graphs.core import IntUnionFind
from repro.graphs.graph import Edge, Graph, Node, canonical_edge, _sort_key
from repro.graphs.unionfind import UnionFind


def _edge_order_key(item: Tuple[Node, Node, float]):
    u, v, w = item
    return (w, _sort_key(u), _sort_key(v))


def kruskal_mst(graph: Graph) -> List[Edge]:
    """Minimum spanning tree via Kruskal's algorithm.

    Returns the tree's edges in canonical form.  Raises ``ValueError`` when
    the graph is disconnected (a broadcast game needs all players reachable).

    Runs over the indexed snapshot: node ids are interned in ``_sort_key``
    order, so the ``(weight, id_u, id_v)`` lexsort reproduces the legacy
    deterministic tie-break ``(weight, _sort_key(u), _sort_key(v))`` exactly
    while sorting ints instead of calling ``repr`` per comparison.
    """
    ig = graph.to_indexed()
    n = ig.num_nodes
    if n == 0:
        return []
    order = np.lexsort((ig.edge_v, ig.edge_u, ig.edge_weights))
    eu = ig.edge_u.tolist()
    ev = ig.edge_v.tolist()
    edge_labels = ig.edge_labels
    uf = IntUnionFind(n)
    tree: List[Edge] = []
    for i in order.tolist():
        if uf.union(eu[i], ev[i]):
            tree.append(edge_labels[i])
            if len(tree) == n - 1:
                break
    if len(tree) != n - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return tree


def kruskal_mst_ids(ig) -> np.ndarray:
    """Kruskal at the edge-id level over an :class:`IndexedGraph`.

    Returns the tree's edge ids as an int64 array (in discovery order).
    Tie-break is ``(weight, id_u, id_v)`` — identical to :func:`kruskal_mst`
    for ``Graph.to_indexed()`` snapshots (ids are interned in ``_sort_key``
    order there) and plain numeric order for ``IndexedGraph.from_arrays``
    graphs.  Never materializes edge labels, so it is the MST entry point
    for the memory-lean scale tier.

    The tie-broken order is turned into distinct ranks ``1..m`` (exact in
    float64 below 2^53) and handed to scipy's compiled
    ``minimum_spanning_tree``.  With distinct weights the MST is unique,
    so it is exactly the tree Kruskal picks, and its edges sorted by rank
    are Kruskal's discovery order.  Parallel edges are not supported
    (``from_arrays`` rejects them when validating): the sparse matrix
    would merge them.  :func:`kruskal_mst` stays a Python loop: the
    csgraph call's fixed cost dominates on label-level graphs.

    Dense graphs (``m > 2n``) are filtered first: the spanning forest of
    the ``2n`` lightest edges already joins the endpoints of most heavier
    edges, and such an edge is the heaviest on a cycle, so it is in no MST.
    The second csgraph call sees only that forest and the heavier edges
    that join two of its components; the unique tree is unchanged.
    """
    # Imported here: csgraph is not otherwise loaded by ``import repro``.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    n = ig.num_nodes
    m = ig.num_edges
    if n <= 1:
        return np.empty(0, dtype=np.int64)
    eu, ev, w = ig.edge_u, ig.edge_v, ig.edge_weights
    order = np.argsort(w)
    if not bool((np.diff(w[order]) > 0).all()):
        # Ties (or NaN): only the full ``(weight, u, v)`` key fixes the order.
        order = np.lexsort((ev, eu, w))
    rank = np.empty(m, dtype=np.float64)
    rank[order] = np.arange(1, m + 1, dtype=np.float64)

    def forest(keep):
        return minimum_spanning_tree(
            sp.csr_matrix((rank[keep], (eu[keep], ev[keep])), shape=(n, n)),
            overwrite=True,
        )

    keep = slice(None)
    if m > 2 * n:
        light = forest(order[: 2 * n])
        _, comp = connected_components(light, directed=False)
        keep = comp[eu] != comp[ev]
        keep &= rank > 2 * n
        keep[order[light.data.astype(np.int64) - 1]] = True
    tree = forest(keep)
    if tree.nnz != n - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return order[np.sort(tree.data).astype(np.int64) - 1]


def prim_mst(graph: Graph, start: Node | None = None) -> List[Edge]:
    """Minimum spanning tree via Prim's algorithm with a binary heap."""
    if graph.num_nodes == 0:
        return []
    nodes = graph.nodes
    root = start if start is not None else nodes[0]
    visited: Set[Node] = {root}
    tree: List[Edge] = []
    counter = 0  # heap tiebreaker so heterogeneous nodes never get compared
    heap: List[Tuple[float, int, Node, Node]] = []
    for v, w in graph.adjacency(root).items():
        heapq.heappush(heap, (w, counter, root, v))
        counter += 1
    while heap and len(visited) < graph.num_nodes:
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.append(canonical_edge(u, v))
        for x, wx in graph.adjacency(v).items():
            if x not in visited:
                heapq.heappush(heap, (wx, counter, v, x))
                counter += 1
    if len(visited) != graph.num_nodes:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return tree


def minimum_spanning_tree(graph: Graph) -> Graph:
    """MST as a :class:`Graph` (all original nodes, tree edges only)."""
    return graph.edge_subgraph(kruskal_mst(graph))


def is_spanning_tree(graph: Graph, edges: Iterable[Edge]) -> bool:
    """Check that ``edges`` form a spanning tree of ``graph``."""
    edge_list = [canonical_edge(u, v) for u, v in edges]
    if len(set(edge_list)) != len(edge_list):
        return False
    if len(edge_list) != graph.num_nodes - 1:
        return False
    uf = UnionFind(graph.nodes)
    for u, v in edge_list:
        if not graph.has_edge(u, v):
            return False
        if not uf.union(u, v):
            return False  # cycle
    return uf.n_components == 1


def is_minimum_spanning_tree(graph: Graph, edges: Iterable[Edge], tol: float = 1e-9) -> bool:
    """Check that ``edges`` form a spanning tree of minimum total weight."""
    edge_list = list(edges)
    if not is_spanning_tree(graph, edge_list):
        return False
    best = graph.subset_weight(kruskal_mst(graph))
    return graph.subset_weight(edge_list) <= best + tol * max(1.0, abs(best))
