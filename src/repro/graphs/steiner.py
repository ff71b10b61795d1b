"""Exact minimum Steiner trees via the Dreyfus-Wagner dynamic program.

Multicast games (the paper's Section 6 direction) have optimal designs
that are Steiner trees over the terminal set, the way broadcast games have
MSTs.  Dreyfus-Wagner runs in ``O(3^k n + 2^k n^2 + n^3)`` for ``k``
terminals, as numpy layers over the subsets.  Measured per call on grid
graphs (2-vCPU x86-64 host, Python 3.11, numpy 2.4), terminals counted
besides the root:

=====  ===========  ===========  ===========
n      7 terminals  9 terminals  11 terminals
=====  ===========  ===========  ===========
16     0.9 ms       3.3 ms       22 ms
24     1.3 ms       4.4 ms       24 ms
48     3.7 ms       11 ms        58 ms
=====  ===========  ===========  ===========

Each two more terminals cost about 5-10x: 13 terminals take 0.24-0.56 s
at these sizes.  When the terminals cover every node the Steiner tree is
a spanning tree, so the MST answers directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.graphs.mst import kruskal_mst


def steiner_tree(graph: Graph, terminals: Sequence[Node]) -> Tuple[List[Edge], float]:
    """Exact minimum Steiner tree connecting ``terminals``.

    Returns ``(edges, weight)``.  Any number of terminals that covers
    every node is fine: the MST (Kruskal's tree, the one broadcast games
    target) is then a minimum Steiner tree.  Otherwise the DP's cost
    grows as ``3^k`` (see the module docstring for measured times).
    Raises ``KeyError`` for a terminal not in the graph and
    ``ValueError`` when the terminals are not all in one component.
    """
    terms = list(dict.fromkeys(terminals))
    for t in terms:
        if t not in graph:
            raise KeyError(f"terminal {t!r} not in graph")
    if len(terms) <= 1:
        return [], 0.0
    comp = next(c for c in graph.connected_components() if terms[0] in c)
    unreachable = [t for t in terms if t not in comp]
    if unreachable:
        raise ValueError(f"terminals {unreachable!r} are unreachable from {terms[0]!r}")
    if len(terms) == graph.num_nodes:
        tree = kruskal_mst(graph)
        return sorted(tree), graph.subset_weight(tree)
    return _dreyfus_wagner(graph, terms)


#: elements a DP layer's temporaries may hold before the layer is cut
#: into chunks of masks (one mask's walk step still takes ``n^2``, the
#: size of the all-pairs matrix itself)
_LAYER_ELEMENTS = 1 << 22

#: provenance codes of a DP entry
_NONE, _LEAF, _MERGE, _WALK = 0, 1, 2, 3


@lru_cache(maxsize=8)
def _split_layers(k: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """``(masks, subs)`` per popcount ``p = 2..k`` over ``k`` terminals.

    ``masks`` lists the layer's masks in increasing order and row ``i``
    of ``subs`` the splits of ``masks[i]`` in the scalar loop's order:
    proper submasks in decreasing order, each pair ``{sub, mask ^ sub}``
    once, at its larger member.  Numbering a mask's ``p`` bits from the
    bottom, these are the deposits of ``j = 2^p - 2`` down to
    ``2^(p-1)`` (top bit set), and depositing keeps the order.  The
    tables hold about ``3^k / 2`` entries and are shared by every call
    with ``k`` terminals, so they are read-only.
    """
    masks_all = np.arange(1 << k, dtype=np.int64)
    bits_all = (masks_all[:, None] >> np.arange(k)) & 1
    popcount = bits_all.sum(axis=1)
    layers = []
    for p in range(2, k + 1):
        masks = masks_all[popcount == p]
        positions = np.nonzero(bits_all[masks])[1].reshape(len(masks), p)
        j = np.arange((1 << p) - 2, (1 << (p - 1)) - 1, -1)
        jbits = (j[:, None] >> np.arange(p)) & 1
        subs = (jbits[None, :, :] << positions[:, None, :]).sum(axis=2)
        masks.flags.writeable = subs.flags.writeable = False
        layers.append((masks, subs))
    return tuple(layers)


def _tree_path(labels: Sequence[Node], pred: List[int], source: int, target: int) -> List[Edge]:
    """Edges of the shortest-path-tree path source -> target, in path order."""
    path: List[Edge] = []
    v = target
    while v != source:
        u = pred[v]
        path.append(canonical_edge(labels[u], labels[v]))
        v = u
    path.reverse()
    return path


def _dreyfus_wagner(graph: Graph, terms: List[Node]) -> Tuple[List[Edge], float]:
    """The Dreyfus-Wagner DP over at least two distinct terminals.

    ``dp[mask, v]`` is the weight of a minimum tree spanning the
    terminals ``rest[i]`` for ``i`` in ``mask`` plus node ``v``.  Masks
    are processed in layers by popcount, each as two array steps:

    * merge: ``min`` over splits of ``dp[sub, v] + dp[mask ^ sub, v]``;
    * walk: ``min`` over ``u`` of ``merged[u] + d(u, v)``, taken only
      when strictly smaller than ``merged[v]``.

    Both minima take the first index among equal values, in the scalar
    loop's split and node order, so every choice (and every tie between
    the augmented cube's many equal-cost paths) is the one a loop of
    strict ``<`` comparisons makes.
    """
    # All-pairs shortest paths from each node: one indexed Dijkstra per
    # node over the CSR snapshot (its predecessor tie-breaks fix the paths).
    from repro.graphs.core import dijkstra_indexed

    ig = graph.to_indexed()
    labels = ig.labels
    n = len(labels)
    preds: List[List[int]] = []
    dist_rows: List[List[float]] = []
    for i in range(n):
        dist_i, pred_i, _ = dijkstra_indexed(ig, i)
        dist_rows.append(dist_i)
        preds.append(pred_i)
    dist = np.array(dist_rows, dtype=np.float64)

    ids = [ig.id_of(t) for t in terms]
    if len(ids) == 2:
        a, b = ids
        return _tree_path(labels, preds[a], a, b), float(dist[a, b])

    base, rest = ids[0], ids[1:]
    k = len(rest)
    full = (1 << k) - 1
    dp = np.full((full + 1, n), np.inf)
    kind = np.zeros((full + 1, n), dtype=np.int8)
    # leaf: the terminal's node id; merge: the submask; walk: the node u
    arg = np.zeros((full + 1, n), dtype=np.int64)
    for i, t in enumerate(rest):
        dp[1 << i] = dist[t]
        kind[1 << i] = _LEAF
        arg[1 << i] = t

    for masks, subs in _split_layers(k):
        step = max(1, _LAYER_ELEMENTS // (n * max(subs.shape[1], n)))
        for lo in range(0, len(masks), step):
            chunk, sub = masks[lo : lo + step], subs[lo : lo + step]
            cost = dp[sub] + dp[chunk[:, None] ^ sub]  # (masks, splits, n)
            split = cost.argmin(axis=1)
            merged = cost.min(axis=1)
            walk = merged[:, :, None] + dist  # (masks, u, v)
            via = walk.argmin(axis=1)
            walked = walk.min(axis=1)
            better = walked < merged
            dp[chunk] = np.where(better, walked, merged)
            kind[chunk] = np.where(
                better, _WALK, np.where(merged < np.inf, _MERGE, _NONE)
            )
            arg[chunk] = np.where(better, via, sub[np.arange(len(chunk))[:, None], split])

    # Backtrack into an edge set.
    edges: Set[Edge] = set()

    def backtrack(mask: int, v: int) -> None:
        how = kind[mask, v]
        a = int(arg[mask, v])
        if how == _LEAF:
            edges.update(_tree_path(labels, preds[a], a, v))
        elif how == _WALK:
            edges.update(_tree_path(labels, preds[a], a, v))
            backtrack(mask, a)
        elif how == _MERGE:
            backtrack(a, v)
            backtrack(mask ^ a, v)

    backtrack(full, base)
    # The DP weight counts shared shortest-path edges once per use; the
    # extracted edge *set* can only be lighter.  Prune to a spanning
    # structure: take an MST of the induced subgraph restricted to the
    # component containing the terminals, then trim non-terminal leaves.
    pruned = _prune_to_terminals(graph, edges, set(terms))
    weight = graph.subset_weight(pruned)
    bound = float(dp[full, base])
    if not weight <= bound + 1e-9 * max(1.0, abs(bound)):
        raise RuntimeError(
            f"Steiner tree weight {weight!r} exceeds the DP optimum {bound!r}"
        )
    return sorted(pruned), weight


def _prune_to_terminals(graph: Graph, edges: Set[Edge], terminals: Set[Node]) -> Set[Edge]:
    """Drop cycles (via a Kruskal pass) and strip non-terminal leaves."""
    from repro.graphs.unionfind import UnionFind

    sub = Graph()
    for t in terminals:
        sub.add_node(t)
    for u, v in edges:
        sub.add_edge(u, v, graph.weight(u, v))
    # Keep only the component containing the terminals.
    comps = sub.connected_components()
    comp = next(c for c in comps if terminals <= c)
    tree_edges = set()
    uf = UnionFind(comp)
    for u, v in sorted(edges, key=lambda e: graph.weight(*e)):
        if u in comp and v in comp and uf.union(u, v):
            tree_edges.add(canonical_edge(u, v))
    # Trim non-terminal leaves.
    changed = True
    while changed:
        changed = False
        degree: Dict[Node, int] = {}
        for u, v in tree_edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for e in list(tree_edges):
            u, v = e
            if (degree[u] == 1 and u not in terminals) or (
                degree[v] == 1 and v not in terminals
            ):
                tree_edges.remove(e)
                changed = True
    return tree_edges


def steiner_tree_brute_force(
    graph: Graph, terminals: Sequence[Node]
) -> Tuple[List[Edge], float]:
    """Exponential reference: try every subset of non-terminal nodes as
    Steiner points and span each candidate set with an MST.  Used only to
    cross-check Dreyfus-Wagner in tests."""
    terms = set(terminals)
    others = [u for u in graph.nodes if u not in terms]
    best_edges: List[Edge] = []
    best_w = float("inf")
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            keep = terms | set(extra)
            sub = Graph()
            for u in keep:
                sub.add_node(u)
            for u, v, w in graph.edges():
                if u in keep and v in keep:
                    sub.add_edge(u, v, w)
            if not sub.is_connected():
                continue
            try:
                tree = kruskal_mst(sub)
            except ValueError:
                continue
            pruned = _prune_to_terminals(graph, set(tree), terms)
            w = graph.subset_weight(pruned)
            if w < best_w:
                best_w = w
                best_edges = sorted(pruned)
    return best_edges, best_w
