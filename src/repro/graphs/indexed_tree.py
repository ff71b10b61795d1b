"""Array-native rooted trees: vectorized BFS, level passes, batch LCA.

:class:`~repro.graphs.tree.RootedTree` is the dict-based contract the exact
solvers verify against, but its per-node dicts and cached label paths cost
hundreds of bytes per node — a non-starter at the 10^5–10^6-node scale tier.
:class:`IndexedTree` is the flat-array mirror: parent / parent-edge / depth
arrays over int node ids, per-level frontiers, and the three primitives the
approximate subsidy solvers are built from:

* level-descending ``subtree_accumulate`` (numpy ``add.at`` per level) —
  subtree loads and violated-path diff-counting in O(depth) vectorized
  passes;
* level-ascending ``prefix_sum_edges`` — root-path prefix sums of any
  per-edge quantity (the Lemma 2 own/deviation share sums);
* binary-lifting ``lca`` over whole query arrays at once.

Everything is built by a vectorized level BFS over the CSR arrays (the
``np.repeat`` + cumsum concatenated-ranges trick); in a tree every unvisited
head appears exactly once per level, so no dedup pass is needed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.core import IndexedGraph


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(starts.astype(np.int64), counts)
    offs = np.arange(total, dtype=np.int64)
    offs -= np.repeat(np.cumsum(counts, dtype=np.int64) - counts, counts)
    return reps + offs


class IndexedTree:
    """Rooted spanning tree of an :class:`IndexedGraph` as flat arrays.

    Attributes
    ----------
    root:
        Root node id.
    parent, parent_eid, depth:
        Length-``n`` int arrays: parent node id, edge id of the edge to the
        parent (``-1`` at the root) and hop depth.
    levels:
        ``levels[d]`` is the array of node ids at depth ``d`` (``levels[0]``
        is ``[root]``).
    tree_eids, is_tree_edge:
        The ``n - 1`` tree edge ids and the boolean mask over all edge ids.
    """

    __slots__ = (
        "ig",
        "root",
        "parent",
        "parent_eid",
        "depth",
        "levels",
        "tree_eids",
        "is_tree_edge",
        "_up",
    )

    def __init__(self, ig: IndexedGraph, root: int, tree_eids: np.ndarray) -> None:
        n = ig.num_nodes
        tree_eids = np.asarray(tree_eids, dtype=np.int64)
        if len(tree_eids) != max(0, n - 1):
            raise ValueError(
                f"{len(tree_eids)} tree edges for {n} nodes (need n - 1)"
            )
        is_tree = np.zeros(ig.num_edges, dtype=bool)
        is_tree[tree_eids] = True

        parent = np.full(n, -1, dtype=np.int64)
        parent_eid = np.full(n, -1, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        parent[root] = root

        indptr = self_indptr = ig.indptr.astype(np.int64)
        neighbors = ig.neighbors
        adj_edge = ig.adj_edge
        tree_arc = is_tree[adj_edge]

        levels: List[np.ndarray] = [np.array([root], dtype=np.int64)]
        frontier = levels[0]
        d = 0
        visited = 1
        while True:
            starts = self_indptr[frontier]
            counts = indptr[frontier + 1] - starts
            slots = _concat_ranges(starts, counts)
            tails = np.repeat(frontier, counts)
            keep = tree_arc[slots]
            slots, tails = slots[keep], tails[keep]
            heads = neighbors[slots].astype(np.int64)
            fresh = ~seen[heads]
            heads, slots, tails = heads[fresh], slots[fresh], tails[fresh]
            if len(heads) == 0:
                break
            d += 1
            # In a tree each unvisited head is reached by exactly one arc of
            # the frontier, so `heads` has no duplicates — plain assignment.
            seen[heads] = True
            parent[heads] = tails
            parent_eid[heads] = adj_edge[slots]
            depth[heads] = d
            levels.append(heads)
            frontier = heads
            visited += len(heads)
        if visited != n:
            raise ValueError("tree edges do not span the graph from the root")

        self.ig = ig
        self.root = int(root)
        self.parent = parent
        self.parent_eid = parent_eid
        self.depth = depth
        self.levels = levels
        self.tree_eids = tree_eids
        self.is_tree_edge = is_tree
        self._up: Optional[np.ndarray] = None

    # -- size ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    # -- level passes --------------------------------------------------------

    def subtree_accumulate(self, values: np.ndarray) -> np.ndarray:
        """Per-node sums of ``values`` over each node's subtree.

        One ``np.add.at`` pass per level, deepest first: children fold into
        parents level by level, so the whole tree costs O(height) vectorized
        passes over disjoint node sets.
        """
        acc = np.array(values, dtype=np.float64, copy=True)
        parent = self.parent
        for nodes in reversed(self.levels[1:]):
            np.add.at(acc, parent[nodes], acc[nodes])
        return acc

    def subtree_counts(self, marks: np.ndarray) -> np.ndarray:
        """Integer variant of :meth:`subtree_accumulate` (diff-counting)."""
        acc = np.array(marks, dtype=np.int64, copy=True)
        parent = self.parent
        for nodes in reversed(self.levels[1:]):
            np.add.at(acc, parent[nodes], acc[nodes])
        return acc

    def prefix_sum_edges(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-node sums of ``edge_values`` along the path node → root.

        ``edge_values`` is indexed by edge id; the root's prefix is 0 and
        each node adds its parent edge's value to its parent's prefix —
        one vectorized pass per level, top down.
        """
        n = self.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        parent = self.parent
        parent_eid = self.parent_eid
        for nodes in self.levels[1:]:
            acc[nodes] = acc[parent[nodes]] + edge_values[parent_eid[nodes]]
        return acc

    def edge_loads(self, node_multiplicity: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-edge-id usage counts: players below each tree edge.

        ``node_multiplicity[v]`` is the number of players homed at node
        ``v`` (default: 1 everywhere except the root).  Non-tree edges get
        load 0.
        """
        n = self.num_nodes
        if node_multiplicity is None:
            mult = np.ones(n, dtype=np.float64)
            mult[self.root] = 0.0
        else:
            mult = np.asarray(node_multiplicity, dtype=np.float64)
        sub = self.subtree_accumulate(mult)
        loads = np.zeros(self.ig.num_edges, dtype=np.float64)
        nonroot = np.concatenate(self.levels[1:]) if self.height else np.empty(0, dtype=np.int64)
        loads[self.parent_eid[nonroot]] = sub[nonroot]
        return loads

    # -- LCA -----------------------------------------------------------------

    def _lift_table(self) -> np.ndarray:
        up = self._up
        if up is None:
            height = max(1, self.height)
            k = max(1, int(height).bit_length())
            up = np.empty((k, self.num_nodes), dtype=np.int64)
            up[0] = self.parent  # root's parent is itself
            for j in range(1, k):
                up[j] = up[j - 1][up[j - 1]]
            self._up = up
        return up

    def lca(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batch lowest common ancestors via binary lifting (vectorized).

        Every step is a whole-array gather plus an ``np.where`` select, so
        no boolean-mask gathers or scatters run per lifting level.
        """
        up = self._lift_table()
        depth = self.depth
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        du, dv = depth[u], depth[v]
        # Lift the deeper endpoint up to the shallower one's depth.
        swap = du < dv
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        diff = np.abs(du - dv)
        del du, dv, swap
        for j in range(int(diff.max()).bit_length() if len(diff) else 0):
            u = np.where((diff >> j) & 1 == 1, up[j][u], u)
        del diff
        for j in range(up.shape[0] - 1, -1, -1):
            upj = up[j]
            au, av = upj[u], upj[v]
            differs = au != av
            u = np.where(differs, au, u)
            v = np.where(differs, av, v)
        return np.where(u == v, u, self.parent[u])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedTree(n={self.num_nodes}, height={self.height}, "
            f"root={self.root})"
        )
