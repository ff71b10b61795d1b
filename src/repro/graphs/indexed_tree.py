"""Array-native rooted trees: csgraph BFS, preorder intervals, O(1) LCA.

:class:`~repro.graphs.tree.RootedTree` is the dict-based contract the exact
solvers verify against, but its per-node dicts and cached label paths cost
hundreds of bytes per node — a non-starter at the 10^5–10^6-node scale tier.
:class:`IndexedTree` is the flat-array mirror: parent / parent-edge / depth
arrays over int node ids, per-level frontiers, preorder intervals, and the
primitives the approximate subsidy solvers are built from:

* level-descending ``subtree_accumulate`` (numpy ``add.at`` per level) and
  level-ascending ``prefix_sum_edges`` — float subtree loads and root-path
  prefix sums (the Lemma 2 own/deviation share sums).  They stay per level
  because their float summation order is part of the solver's output;
* ``subtree_counts`` — integer subtree sums (violated-path diff-counting)
  as one cumsum over the preorder: integer sums do not depend on order;
* ``lca`` — a sparse-table range minimum over the preorder, O(1) per query.

Every integer quantity comes from whole-array passes.  The levels are
``scipy.sparse.csgraph.breadth_first_order`` over the tree arcs, masked out
of the CSR in adjacency order, which is exactly a level-by-level BFS that
visits each frontier's arcs in order.  In BFS order each node's children
are contiguous, and so are its descendants at any fixed depth below it, so
depths, subtree sizes and preorder positions follow by pointer jumping
(O(log height) passes) with no loop over levels.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graphs.core import IndexedGraph


class IndexedTree:
    """Rooted spanning tree of an :class:`IndexedGraph` as flat arrays.

    Attributes
    ----------
    root:
        Root node id.
    parent, parent_eid, depth:
        Length-``n`` int arrays: parent node id (the root is its own
        parent), edge id of the edge to the parent (``-1`` at the root) and
        hop depth.
    levels:
        ``levels[d]`` is the array of node ids at depth ``d`` (``levels[0]``
        is ``[root]``), each in BFS order.
    pos, end:
        Preorder intervals: node ``v``'s subtree is the preorder positions
        ``pos[v] <= k < end[v]``.  Children are visited in BFS order.
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
        "pos",
        "end",
        "tree_eids",
        "is_tree_edge",
        "_preorder",
        "_rmq",
    )

    def __init__(self, ig: IndexedGraph, root: int, tree_eids: np.ndarray) -> None:
        # Imported here: csgraph is not otherwise loaded by ``import repro``.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import breadth_first_order

        n = ig.num_nodes
        tree_eids = np.asarray(tree_eids, dtype=np.int64)
        if len(tree_eids) != max(0, n - 1):
            raise ValueError(
                f"{len(tree_eids)} tree edges for {n} nodes (need n - 1)"
            )
        is_tree = np.zeros(ig.num_edges, dtype=bool)
        is_tree[tree_eids] = True

        # The tree arcs keep their CSR adjacency order, so csgraph's queue
        # visits each frontier node's children in the order a level BFS over
        # the full CSR would.
        eu, ev = ig.edge_u[tree_eids], ig.edge_v[tree_eids]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n), out=indptr[1:])
        slots = np.flatnonzero(is_tree[ig.adj_edge])
        arcs = sp.csr_matrix((np.ones(len(slots)), ig.neighbors[slots], indptr), shape=(n, n))
        order, pred = breadth_first_order(
            arcs, root, directed=True, return_predecessors=True
        )
        if len(order) != n:
            raise ValueError("tree edges do not span the graph from the root")
        order = order.astype(np.int64)
        parent = pred.astype(np.int64)
        parent[root] = root
        child = np.where(parent[ev] == eu, ev, eu)
        parent_eid = np.full(n, -1, dtype=np.int64)
        parent_eid[child] = tree_eids

        # Work in BFS-index space: node order[i] has BFS index i, and the
        # parents' BFS indices ``up`` never decrease along it.
        bfs = np.empty(n, dtype=np.int64)
        bfs[order] = np.arange(n, dtype=np.int64)
        up = bfs[parent[order]]
        # first[x]: the first BFS index whose parent's index is >= x.  It
        # maps the start of node x's descendants at one depth to the start
        # at the next depth (x = n is the fixed point past the last level).
        first = np.ones(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(up[1:], minlength=n), out=first[1:])
        first[1:] += 1
        # Subtree sizes: sum over k of first^k(x + 1) - first^k(x), the
        # descendants k levels down, summed by doubling the map.
        span = np.arange(n + 1, dtype=np.int64)
        jump = first
        while jump[0] != n:
            span += span[jump]
            jump = jump[jump]
        size = span[1:] - span[:-1]
        # Preorder: a node follows its parent, then its earlier siblings'
        # subtrees (siblings are contiguous in BFS order).
        before = np.cumsum(size) - size
        pos_b = np.zeros(n, dtype=np.int64)
        pos_b[1:] = 1 + before[1:] - before[first[up[1:]]]
        # Root-path sums of the offsets and of the hop counts by pointer
        # jumping; the last BFS node is a deepest one, so once it points at
        # the root every node does.
        depth_b = np.ones(n, dtype=np.int64)
        depth_b[0] = 0
        while up[-1] != 0:
            depth_b += depth_b[up]
            pos_b += pos_b[up]
            up = up[up]

        depth = np.empty(n, dtype=np.int64)
        depth[order] = depth_b
        pos = np.empty(n, dtype=np.int64)
        pos[order] = pos_b
        cuts = np.cumsum(np.bincount(depth_b))[:-1]

        self.ig = ig
        self.root = int(root)
        self.parent = parent
        self.parent_eid = parent_eid
        self.depth = depth
        self.levels: List[np.ndarray] = np.split(order, cuts)
        self.pos = pos
        self.end = pos + size[bfs]
        self.tree_eids = tree_eids
        self.is_tree_edge = is_tree
        self._preorder = np.empty(n, dtype=np.int64)
        self._preorder[pos] = np.arange(n, dtype=np.int64)
        self._rmq: Optional[np.ndarray] = None

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
        """Integer variant of :meth:`subtree_accumulate` (diff-counting).

        One int64 cumsum over the preorder: each subtree is the interval
        ``pos[v] <= k < end[v]``.  Integer sums do not depend on the
        summation order, so this equals the per-level pass exactly.
        """
        acc = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.asarray(marks, dtype=np.int64)[self._preorder], out=acc[1:])
        return acc[self.end] - acc[self.pos]

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
        nonroot = self.parent_eid >= 0
        loads[self.parent_eid[nonroot]] = sub[nonroot]
        return loads

    # -- LCA -----------------------------------------------------------------

    def _rmq_table(self) -> np.ndarray:
        """Sparse table of range minima of the parents' preorder positions.

        Row ``j`` holds, at column ``k``, the minimum over the ``2^j``
        preorder positions from ``k`` on (columns past ``n - 2^j`` unused).
        """
        table = self._rmq
        if table is None:
            n = self.num_nodes
            rows = max(1, (n - 1).bit_length())
            table = np.empty((rows, n), dtype=np.int32 if n < 2**31 else np.int64)
            table[0] = self.pos[self.parent[self._preorder]]
            for j in range(1, rows):
                half, width = 1 << (j - 1), n + 1 - (1 << j)
                prev = table[j - 1]
                np.minimum(prev[:width], prev[half : half + width], out=table[j, :width])
            self._rmq = table
        return table

    def lca(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batch lowest common ancestors, O(1) per query.

        For ``pos[u] < pos[v]`` every node at preorder positions
        ``(pos[u], pos[v]]`` lies below the LCA, and the LCA's children among
        them are the shallowest.  So the LCA sits at the smallest parent
        position over that range: two sparse-table lookups and a minimum.
        """
        table = self._rmq_table()
        n = self.num_nodes
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        pu, pv = self.pos[u], self.pos[v]
        lo = np.minimum(pu, pv)
        hi = np.maximum(pu, pv)
        same = lo == hi
        lo += ~same  # the range (lo, hi]; u == v looks up [hi, hi], then ignored
        row = np.frexp(hi - lo + 1)[1].astype(np.int64) - 1  # floor(log2(length))
        flat = table.reshape(-1)
        base = row * n
        at = np.minimum(flat[base + lo], flat[base + hi + 1 - (1 << row)])
        return np.where(same, u, self._preorder[at])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedTree(n={self.num_nodes}, height={self.height}, "
            f"root={self.root})"
        )
