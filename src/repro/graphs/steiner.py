"""Exact minimum Steiner trees via the Dreyfus-Wagner dynamic program.

Multicast games (the paper's Section 6 direction) have optimal designs
that are Steiner trees over the terminal set, the way broadcast games have
MSTs.  Dreyfus-Wagner runs in ``O(3^k n + 2^k n^2 + n^3)`` for ``k``
terminals — exact and fast for the experiment-sized instances here.  When
the terminals cover every node the Steiner tree is a spanning tree, so
the MST answers directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.graphs.mst import kruskal_mst
from repro.graphs.shortest_paths import reconstruct_path


def steiner_tree(graph: Graph, terminals: Sequence[Node]) -> Tuple[List[Edge], float]:
    """Exact minimum Steiner tree connecting ``terminals``.

    Returns ``(edges, weight)``.  Handles up to ~12 terminals comfortably,
    and any number that covers every node: the MST (Kruskal's tree, the
    one broadcast games target) is then a minimum Steiner tree.
    """
    terms = list(dict.fromkeys(terminals))
    for t in terms:
        if t not in graph:
            raise KeyError(f"terminal {t!r} not in graph")
    if len(terms) <= 1:
        return [], 0.0
    if len(terms) == graph.num_nodes:
        tree = kruskal_mst(graph)
        return sorted(tree), graph.subset_weight(tree)
    return _dreyfus_wagner(graph, terms)


def _dreyfus_wagner(graph: Graph, terms: List[Node]) -> Tuple[List[Edge], float]:
    """The Dreyfus-Wagner DP over at least two distinct terminals."""
    # All-pairs shortest paths from each node: one indexed Dijkstra per
    # node over the CSR snapshot, re-keyed to labels for the DP below.
    from repro.graphs.core import dijkstra_indexed

    ig = graph.to_indexed()
    nodes = ig.labels
    INF0 = float("inf")
    sp_dist: Dict[Node, Dict[Node, float]] = {}
    sp_parent: Dict[Node, Dict[Node, Node]] = {}
    for v in nodes:
        dist_arr, pred_arr, _ = dijkstra_indexed(ig, ig.id_of(v))
        sp_dist[v] = {nodes[i]: d for i, d in enumerate(dist_arr) if d != INF0}
        sp_parent[v] = {nodes[i]: nodes[p] for i, p in enumerate(pred_arr) if p >= 0}

    if len(terms) == 2:
        a, b = terms
        path = reconstruct_path(sp_parent[a], a, b)
        return path, sp_dist[a][b]

    base, rest = terms[0], terms[1:]
    k = len(rest)
    full = (1 << k) - 1

    INF = float("inf")
    # dp[mask][v] = weight of a min tree spanning {rest[i] : i in mask} + {v}.
    dp: List[Dict[Node, float]] = [dict() for _ in range(full + 1)]
    choice: List[Dict[Node, Tuple]] = [dict() for _ in range(full + 1)]
    for i, t in enumerate(rest):
        m = 1 << i
        for v in nodes:
            dp[m][v] = sp_dist[t].get(v, INF)
            choice[m][v] = ("leaf", t)

    masks = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
    for mask in masks:
        if bin(mask).count("1") < 2:
            continue
        merged: Dict[Node, float] = {}
        merged_choice: Dict[Node, Tuple] = {}
        sub = (mask - 1) & mask
        seen: Set[int] = set()
        while sub > 0:
            other = mask ^ sub
            if other and sub not in seen and other not in seen:
                seen.add(sub)
                seen.add(other)
                for v in nodes:
                    cost = dp[sub].get(v, INF) + dp[other].get(v, INF)
                    if cost < merged.get(v, INF):
                        merged[v] = cost
                        merged_choice[v] = ("merge", sub, other)
            sub = (sub - 1) & mask
        # Relax through shortest paths: dp[mask][v] = min_u merged[u] + d(u,v).
        best: Dict[Node, float] = dict(merged)
        best_choice: Dict[Node, Tuple] = dict(merged_choice)
        for u in nodes:
            mu = merged.get(u, INF)
            if mu == INF:
                continue
            for v, duv in sp_dist[u].items():
                cost = mu + duv
                if cost < best.get(v, INF):
                    best[v] = cost
                    best_choice[v] = ("walk", u)
        dp[mask] = best
        choice[mask].update(best_choice)
        # Preserve merge provenance for nodes whose best came from a merge.
        for v, ch in merged_choice.items():
            if best[v] == merged[v]:
                choice[mask][v] = ch

    # Backtrack into an edge set.
    edges: Set[Edge] = set()

    def emit_path(u: Node, v: Node) -> None:
        for e in reconstruct_path(sp_parent[u], u, v):
            edges.add(e)

    def backtrack(mask: int, v: Node) -> None:
        ch = choice[mask].get(v)
        if ch is None:
            return
        kind = ch[0]
        if kind == "leaf":
            emit_path(ch[1], v)
        elif kind == "walk":
            u = ch[1]
            emit_path(u, v)
            backtrack(mask, u)
        else:
            _, sub, other = ch
            backtrack(sub, v)
            backtrack(other, v)

    backtrack(full, base)
    # The DP weight counts shared shortest-path edges once per use; the
    # extracted edge *set* can only be lighter.  Prune to a spanning
    # structure: take an MST of the induced subgraph restricted to the
    # component containing the terminals, then trim non-terminal leaves.
    pruned = _prune_to_terminals(graph, edges, set(terms))
    weight = graph.subset_weight(pruned)
    assert weight <= dp[full][base] + 1e-9 * max(1.0, abs(dp[full][base]))
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
