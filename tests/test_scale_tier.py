"""Scale tier: indexed scenario builders, IndexedTree, approximate solvers.

Covers the anytime/approximate subsidy stack end to end:

* the array view (``build_scenario_indexed``) and the label view
  (``build_scenario``) of each family's kernel hold the same label-level
  ``(u, v, w)`` triples;
* the power-law replay over bulk ``PCG64`` output equals the scalar
  preferential-attachment loop, arrays and generator state alike;
* the CSR arc order is the ``lexsort`` order of ``(tail, head)``;
* :class:`~repro.graphs.indexed_tree.IndexedTree` agrees with the
  dict-based :class:`~repro.graphs.tree.RootedTree` on depths, LCAs,
  subtree loads and root-path prefix sums, and with the level BFS and
  per-level ``add.at`` fold it replaced;
* the greedy/primal-dual solvers emit *valid* gap certificates
  (``lower_bound <= exact optimum <= budget``) on every game family, with
  primal-dual convergence to the exact LP subsidies;
* anytime stopping (deadline / target gap / max rounds) always returns a
  feasible, verified assignment;
* the CLI / serve surfaces: ``--anytime`` knobs, peak-RSS metadata,
  ``engine_*`` / ``anytime_*`` daemon counters.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.cli import main
from repro.games import BroadcastGame, check_equilibrium
from repro.games.directed import DirectedNetworkDesignGame
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.core import IndexedGraph, IntUnionFind
from repro.graphs.generators import random_tree_plus_chords
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.indexed_tree import IndexedTree
from repro.graphs.mst import kruskal_mst, kruskal_mst_ids
from repro.graphs.tree import RootedTree
from repro.scenarios import build_scenario, build_scenario_indexed
from repro.scenarios.families import _attach_loop, _attach_replay, _power_law_arrays
from repro.subsidies import (
    SubsidyAssignment,
    lagrangian_lower_bound,
    solve_sne_cutting_plane_lp1,
    solve_sne_greedy,
    solve_sne_greedy_indexed,
    solve_sne_primal_dual,
)
from repro.utils.resources import peak_rss_bytes
from repro.utils.rng import ensure_rng


# ---------------------------------------------------------------------------
# the RNG contract the vectorized builders rely on
# ---------------------------------------------------------------------------


class TestUniformVectorizationContract:
    def test_batched_uniform_equals_scalar_draws(self):
        a = ensure_rng(42).uniform(0.75, 1.25, size=64)
        rng = ensure_rng(42)
        b = np.array([float(rng.uniform(0.75, 1.25)) for _ in range(64)])
        assert a.tolist() == b.tolist()


# ---------------------------------------------------------------------------
# array view == label view of each family's kernel
# ---------------------------------------------------------------------------


def _label_triples_graph(g):
    return {(canonical_edge(u, v), w) for u, v, w in g.edges()}


def _label_triples_indexed(ig):
    return {
        (canonical_edge(u, v), w)
        for u, v, w in zip(
            ig.edge_u.tolist(), ig.edge_v.tolist(), ig.edge_weights.tolist()
        )
    }


SCENARIO_CASES = [
    ("grid", dict(n=17, seed=3)),
    ("grid", dict(n=17, seed=3, jitter=0.0)),
    ("hypercube", dict(n=40, seed=5)),
    ("augmented-cube", dict(n=33, seed=9)),
    ("power-law", dict(n=30, seed=11, m=3)),
    ("power-law", dict(n=24, seed=4)),
    ("isp-like", dict(n=25, seed=2, hubs=5)),
    ("isp-like", dict(n=40, seed=8)),
    ("lower-bound-cycle", dict(n=12, seed=0)),
    ("lower-bound-cycle", dict(n=13, seed=0, shape="wheel")),
]


class TestIndexedBuildersMatchLegacy:
    @pytest.mark.parametrize("name,kwargs", SCENARIO_CASES)
    def test_same_label_triples(self, name, kwargs):
        game = build_scenario(name, **kwargs)
        inst = build_scenario_indexed(name, **kwargs)
        assert _label_triples_graph(game.graph) == _label_triples_indexed(inst.ig)
        assert game.graph.num_nodes == inst.num_nodes
        assert inst.root == 0 and inst.name == name

    def test_weights_bitwise_identical(self):
        game = build_scenario("isp-like", n=120, seed=7)
        inst = build_scenario_indexed("isp-like", n=120, seed=7)
        assert sorted(w for _, _, w in game.graph.edges()) == sorted(
            inst.ig.edge_weights.tolist()
        )

    def test_rejects_non_broadcast_games(self):
        with pytest.raises(ValueError, match="broadcast"):
            build_scenario_indexed("grid", n=9, game="weighted")
        with pytest.raises(ValueError, match="not supported at scale"):
            build_scenario_indexed("grid", n=9, terminals="half")

    def test_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_scenario_indexed("grid", n=9, radius=0.5)

    def test_large_instance_is_lean(self):
        inst = build_scenario_indexed("grid", n=50_000, seed=1)
        assert inst.num_nodes == 50_000
        # identity labels, int32 CSR, no label dicts materialized
        assert isinstance(inst.ig.labels, range)
        assert inst.ig.neighbors.dtype == np.int32
        assert inst.ig._edge_labels is None and inst.ig._id_of is None


# ---------------------------------------------------------------------------
# power-law: the PCG64 replay == the scalar preferential-attachment loop
# ---------------------------------------------------------------------------


def _attach_pair(n, seed, m, jitter, carry):
    """Run the scalar loop and the replay on twin generators."""
    m = max(1, min(m, n - 1)) if n > 1 else 1
    a, b = ensure_rng(seed), ensure_rng(seed)
    if carry:
        # An odd number of 32-bit draws leaves PCG64's high half pending.
        a.integers(1000, size=carry)
        b.integers(1000, size=carry)
    return a, _attach_loop(n, a, m, jitter), b, _attach_replay(n, b, m, jitter)


def _assert_same_draws(a, ref, b, got):
    for x, y in zip(ref, got):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()
    assert a.integers(12345) == b.integers(12345)
    assert a.uniform(0.5, 1.5) == b.uniform(0.5, 1.5)


def _edge_digest(eu, ev, ew):
    h = hashlib.sha256()
    for arr, dtype in ((eu, "<i8"), (ev, "<i8"), (ew, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def _game_digest(game):
    g = game.graph
    if hasattr(game, "terminals"):
        draws = list(game.terminals)
    else:
        draws = [(p.source, p.target, getattr(p, "demand", None)) for p in game.players]
    return hashlib.sha256(repr((list(g.nodes), list(g.edges()), draws)).encode()).hexdigest()


class TestPowerLawReplay:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 24, 300, 2000])
    def test_matches_scalar_loop(self, n):
        case = 0
        for seed in range(12):
            for m in (1, 2, 3, 5):
                for jitter in (0.0, 0.5):
                    # a third of the cases start with a pending uint32 half
                    carry = 1 if case % 3 == 0 else 0
                    case += 1
                    _assert_same_draws(*_attach_pair(n, seed, m, jitter, carry))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 120),
        m=st.integers(1, 6),
        jitter=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
        carry=st.integers(0, 3),
    )
    def test_property_matches_scalar_loop(self, n, m, jitter, seed, carry):
        _assert_same_draws(*_attach_pair(n, seed, m, jitter, carry))

    def test_crosses_raw_blocks(self):
        # ~5 raw words per node: the doubling blocks reach their 2**16-word
        # cap at n = 40,000 and the stream crosses capped blocks too.
        _assert_same_draws(*_attach_pair(40_000, 3, 2, 0.5, 1))

    @pytest.mark.parametrize(
        "bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_other_bit_generators_run_the_scalar_loop(self, bitgen):
        a = np.random.Generator(bitgen(7))
        b = np.random.Generator(bitgen(7))
        _, *got = _power_law_arrays(300, ensure_rng(a), m=2, jitter=0.5)
        ref = _attach_loop(300, b, 2, 0.5)
        for x, y in zip(ref, got):
            assert x.tobytes() == y.tobytes()
        np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
        assert a.random() == b.random()

    # SHA-256 of (edge_u <i8, edge_v <i8, edge_weights <f8) at n = 10^5,
    # pinned from the scalar loop: the perfbench scale-approx seed
    # (derive_seed(101, "power-law", 100000)) and bench_scale's seed 1.
    @pytest.mark.parametrize(
        "seed,digest",
        [
            (734150080, "3782103c4a700d39321eae6bf04a0cf7a334aaac362e0c5bac0f812bac8a36f0"),
            (1, "8bcf32331f702a20005d6ece82bb67eec4c2ed79dcf82fb3dd23b53d6a5ce2e3"),
        ],
    )
    def test_pinned_digests(self, seed, digest):
        inst = build_scenario_indexed("power-law", n=100_000, seed=seed)
        ig = inst.ig
        assert _edge_digest(ig.edge_u, ig.edge_v, ig.edge_weights) == digest

    # SHA-256 of (nodes, edges, game draws), pinned from the scalar loop:
    # the wrappers draw terminals, demands and pairs after the topology.
    @pytest.mark.parametrize(
        "kwargs,n,seed,digest",
        [
            (dict(game="multicast", terminals="half"), 40, 5,
             "6fabe0e1b2021bcbc2e7918e786100c08538d238f14603e6eb13b9bff9e6292a"),
            (dict(game="multicast", terminals="half"), 200, 17,
             "efc103f4c4989f59cb302edf75d11ad49472aa1a592168a30262537f6c7ac652"),
            (dict(game="weighted", demands="random"), 40, 5,
             "ee84c4543a980ac8cc116b2be04b414a1aa4c7e1b1b2ef4481124af45c09d9e1"),
            (dict(game="weighted", demands="random"), 200, 17,
             "8ed3d7a86934294d5b9e9a98412b8ba4d89752599a37739e40a07f8875191170"),
            (dict(game="general", pairs="random"), 40, 5,
             "9c4ff3d9905aba9a2dc7849538a5885dfb45dbc08d67837fd9a5e7d1fdd46bd5"),
            (dict(game="general", pairs="random"), 200, 17,
             "c5d2e803e669ce69155d0a750ede1167bc38c0fda526483de373e81d0a27cfe9"),
        ],
    )
    def test_label_games_unchanged(self, kwargs, n, seed, digest):
        game = build_scenario("power-law", n=n, seed=seed, **kwargs)
        assert _game_digest(game) == digest

    def test_label_view_is_the_kernel_in_order(self):
        g = build_scenario("power-law", n=60, seed=9, m=3).graph
        _, eu, ev, ew = _power_law_arrays(60, ensure_rng(9), m=3)
        arrivals = [x for pair in zip(eu.tolist(), ev.tolist()) for x in pair]
        assert list(g.nodes) == list(dict.fromkeys([0] + arrivals))
        assert {canonical_edge(u, v): w for u, v, w in g.edges()} == {
            canonical_edge(v, u): w
            for v, u, w in zip(eu.tolist(), ev.tolist(), ew.tolist())
        }
        assert all(type(x) is int for u, v, _ in g.edges() for x in (u, v))
        assert all(type(w) is float for _, _, w in g.edges())


# ---------------------------------------------------------------------------
# IndexedGraph.from_arrays lazy surfaces
# ---------------------------------------------------------------------------


class TestFromArrays:
    def test_round_trip_and_lazy_labels(self):
        ig = IndexedGraph.from_arrays(
            4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 2.0, 3.0, 4.0]
        )
        assert ig.num_nodes == 4 and ig.num_edges == 4
        assert ig.edge_labels == [(0, 1), (1, 2), (2, 3), (0, 3)]
        assert ig.id_of(2) == 2
        assert ig.edge_id(3, 0) == 3
        assert ig.has_label(3) and not ig.has_label(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            IndexedGraph.from_arrays(2, [0], [2], [1.0])
        with pytest.raises(ValueError, match="self-loop"):
            IndexedGraph.from_arrays(2, [1], [1], [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            IndexedGraph.from_arrays(2, [0, 1], [1, 0], [1.0, 2.0])

    @staticmethod
    def _graph_error(weight):
        with pytest.raises(ValueError) as exc:
            Graph().add_edge(0, 1, weight)
        return str(exc.value)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_rejects_weights_graph_rejects(self, bad):
        weights = [1.0, bad, 2.0, 1.0]
        with pytest.raises(ValueError) as exc:
            IndexedGraph.from_arrays(4, [0, 1, 2, 3], [1, 2, 3, 0], weights)
        assert str(exc.value) == self._graph_error(bad)

    def test_first_bad_weight_names_the_error(self):
        with pytest.raises(ValueError, match="nonnegative, got -2.5"):
            IndexedGraph.from_arrays(3, [0, 1, 2], [1, 2, 0], [1.0, -2.5, float("nan")])

    @pytest.mark.parametrize("ok", [-0.0, 0.0, float("inf")])
    def test_accepts_weights_graph_accepts(self, ok):
        Graph().add_edge(0, 1, ok)
        ig = IndexedGraph.from_arrays(3, [0, 1, 2], [1, 2, 0], [1.0, ok, 1.0])
        assert ig.edge_weights[1] == ok

    def test_unvalidated_arrays_skip_weight_checks(self):
        ig = IndexedGraph.from_arrays(2, [0], [1], [float("nan")], validate=False)
        assert np.isnan(ig.edge_weights[0])

    def test_dijkstra_agrees_with_interned_snapshot(self):
        g = random_tree_plus_chords(30, 15, seed=5, chord_factor=1.2)
        ig_legacy = g.to_indexed()
        triples = [(u, v, w) for u, v, w in g.edges()]
        ig_new = IndexedGraph.from_arrays(
            g.num_nodes,
            [u for u, _, _ in triples],
            [v for _, v, _ in triples],
            [w for _, _, w in triples],
        )
        from repro.graphs.core import dijkstra_indexed

        d_legacy = dijkstra_indexed(ig_legacy, ig_legacy.id_of(0))[0]
        d_new = dijkstra_indexed(ig_new, 0)[0]
        by_label_legacy = {ig_legacy.labels[i]: d_legacy[i] for i in range(30)}
        assert {i: d_new[i] for i in range(30)} == pytest.approx(by_label_legacy)


def _lexsort_csr(n, eu, ev, w):
    """The CSR arrays by ``np.lexsort((heads, tails))``, arc by arc."""
    eu, ev = np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
    m = len(eu)
    tails, heads = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    eids = np.concatenate([np.arange(m), np.arange(m)])
    order = np.lexsort((heads, tails))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads[order], eids[order], np.asarray(w, dtype=np.float64)[eids[order]]


def _assert_lexsort_csr(ig, n, eu, ev, w):
    indptr, neighbors, adj_edge, weights = _lexsort_csr(n, eu, ev, w)
    assert ig.indptr.tolist() == indptr.tolist()
    assert ig.neighbors.tolist() == neighbors.tolist()
    assert ig.adj_edge.tolist() == adj_edge.tolist()
    assert ig.weights.tobytes() == weights.tobytes()


def _random_edge_arrays(rng, n, m):
    """``m`` distinct random edges, shuffled, in random orientation."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pick = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    eu, ev = [], []
    for i in pick.tolist():
        u, v = pairs[i]
        if rng.random() < 0.5:
            u, v = v, u
        eu.append(u)
        ev.append(v)
    return eu, ev, rng.uniform(0.5, 2.0, size=len(eu)).tolist()


class TestCsrOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = ensure_rng(seed)
        n = int(rng.integers(2, 40))
        eu, ev, w = _random_edge_arrays(rng, n, int(rng.integers(1, 3 * n)))
        _assert_lexsort_csr(IndexedGraph.from_arrays(n, eu, ev, w), n, eu, ev, w)
        interned = IndexedGraph(range(n), zip(eu, ev, w))
        # repr-order interning relabels nodes; compare on the interned ids
        ids = [interned.id_of(u) for u in range(n)]
        _assert_lexsort_csr(
            interned, n, [ids[u] for u in eu], [ids[v] for v in ev], w
        )

    def test_tie_heavy_graphs(self):
        rng = ensure_rng(4)
        # a complete graph and a star: every tail carries many arcs
        n = 12
        eu, ev, w = _random_edge_arrays(rng, n, n * n)
        _assert_lexsort_csr(IndexedGraph.from_arrays(n, eu, ev, w), n, eu, ev, w)
        star_u = [0] * (n - 1) + list(range(1, n))
        star_v = list(range(1, n)) + list(range(2, n)) + [1]
        w = [1.0] * len(star_u)
        _assert_lexsort_csr(
            IndexedGraph.from_arrays(n, star_u, star_v, w), n, star_u, star_v, w
        )

    def test_unvalidated_duplicates_keep_arc_order(self):
        # Equal (tail, head) keys must stay in arc order: a stable sort.
        eu = [0, 1, 2, 0, 0, 1, 2]
        ev = [1, 0, 0, 1, 2, 0, 0]
        w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        ig = IndexedGraph.from_arrays(3, eu, ev, w, validate=False)
        _assert_lexsort_csr(ig, 3, eu, ev, w)
        assert ig.adj_edge[: ig.indptr[1]].tolist() == [0, 3, 1, 5, 4, 2, 6]

    @pytest.mark.parametrize(
        "n,eu,ev,message",
        [
            (3, [0, 1, 2], [1, 2, 0], None),
            (3, [0, 1, 2, 1], [1, 2, 0, 0], "duplicate edge"),
            (5, [0, 1, 2, 3, 4, 2], [1, 2, 3, 4, 0, 1], "duplicate edge"),
            (3, [0, 1, 1], [1, 1, 0], "self-loop edge"),
            (3, [0, 1, 0], [1, 3, 1], "edge endpoint out of range"),
            (3, [0, -1], [1, 2], "edge endpoint out of range"),
        ],
    )
    def test_validation_messages(self, n, eu, ev, message):
        w = [1.0] * len(eu)
        if message is None:
            IndexedGraph.from_arrays(n, eu, ev, w)
            return
        with pytest.raises(ValueError) as exc:
            IndexedGraph.from_arrays(n, eu, ev, w)
        assert str(exc.value) == message


def _kruskal_ids_reference(ig):
    """Union-find Kruskal over the ``(weight, u, v)`` lexsort, edge by edge."""
    n = ig.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((ig.edge_v, ig.edge_u, ig.edge_weights))
    eu = ig.edge_u.tolist()
    ev = ig.edge_v.tolist()
    uf = IntUnionFind(n)
    tree = []
    for i in order.tolist():
        if uf.union(eu[i], ev[i]):
            tree.append(i)
            if len(tree) == n - 1:
                break
    if len(tree) != n - 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return np.asarray(tree, dtype=np.int64)


def _shuffled_from_arrays(n, eu, ev, w, seed):
    """``from_arrays`` with edge ids permuted and endpoints randomly flipped."""
    rng = ensure_rng(seed)
    eu, ev, w = np.asarray(eu), np.asarray(ev), np.asarray(w, dtype=np.float64)
    perm = rng.permutation(len(w))
    flip = rng.random(len(w)) < 0.5
    u, v = np.where(flip, ev, eu)[perm], np.where(flip, eu, ev)[perm]
    return IndexedGraph.from_arrays(n, u, v, w[perm])


def _random_small_weight_graph(n, extra, seed):
    """Connected random graph with weights drawn from {1, 2, 3}."""
    rng = ensure_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    eu, ev = zip(*sorted(edges))
    w = rng.integers(1, 4, size=len(eu)).astype(np.float64)
    return n, eu, ev, w


class TestKruskalIds:
    def test_matches_label_level_kruskal(self):
        g = random_tree_plus_chords(40, 25, seed=9, chord_factor=1.1)
        ig = g.to_indexed()
        eids = kruskal_mst_ids(ig)
        labels = {canonical_edge(*ig.edge_labels[e]) for e in eids.tolist()}
        assert labels == {canonical_edge(u, v) for u, v in kruskal_mst(g)}

    @staticmethod
    def _assert_same(ig):
        got = kruskal_mst_ids(ig)
        ref = _kruskal_ids_reference(ig)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize(
        "name, n, kwargs",
        [
            ("lower-bound-cycle", 300, {}),
            ("grid", 400, {"jitter": 0.0}),
            ("grid", 400, {}),
            ("power-law", 300, {}),
            ("hypercube", 256, {"jitter": 0.0}),
            ("isp-like", 300, {}),
        ],
    )
    def test_discovery_order_matches_reference(self, name, n, kwargs):
        for seed in (0, 7):
            self._assert_same(build_scenario_indexed(name, n=n, seed=seed, **kwargs).ig)

    @pytest.mark.parametrize("seed", range(6))
    def test_small_integer_weights(self, seed):
        n, eu, ev, w = _random_small_weight_graph(60, 90, seed)
        self._assert_same(IndexedGraph.from_arrays(n, eu, ev, w))
        self._assert_same(_shuffled_from_arrays(n, eu, ev, w, seed))

    def test_shuffled_edge_ids_under_ties(self):
        inst = build_scenario_indexed("grid", n=225, seed=1, jitter=0.0)
        ig = inst.ig
        self._assert_same(
            _shuffled_from_arrays(ig.num_nodes, ig.edge_u, ig.edge_v, ig.edge_weights, 4)
        )

    def test_interned_snapshot_with_ties(self):
        g = build_scenario("lower-bound-cycle", n=12, seed=0).graph
        self._assert_same(g.to_indexed())

    # m > 2n: the filtered path (spanning forest of the 2n lightest edges,
    # then only the heavier edges that join two of its components).
    @pytest.mark.parametrize("name", ["augmented-cube", "hypercube"])
    @pytest.mark.parametrize("jitter", [None, 0.0])
    def test_dense_families_match_reference(self, name, jitter):
        kwargs = {} if jitter is None else {"jitter": jitter}
        for seed in (0, 7):
            ig = build_scenario_indexed(name, n=512, seed=seed, **kwargs).ig
            assert ig.num_edges > 2 * ig.num_nodes
            self._assert_same(ig)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_small_integer_weights(self, seed):
        n, eu, ev, w = _random_small_weight_graph(60, 400, seed)
        assert len(eu) > 2 * n
        self._assert_same(IndexedGraph.from_arrays(n, eu, ev, w))
        self._assert_same(_shuffled_from_arrays(n, eu, ev, w, seed))

    def test_dense_disconnected_raises(self):
        # Two dense halves and no edge between them.
        n, eu, ev, w = _random_small_weight_graph(30, 200, 3)
        eu = np.concatenate([eu, np.asarray(eu) + n])
        ev = np.concatenate([ev, np.asarray(ev) + n])
        ig = IndexedGraph.from_arrays(2 * n, eu, ev, np.concatenate([w, w]))
        assert ig.num_edges > 2 * ig.num_nodes
        with pytest.raises(ValueError, match="disconnected"):
            kruskal_mst_ids(ig)

    def test_single_node_is_empty(self):
        got = kruskal_mst_ids(IndexedGraph.from_arrays(1, [], [], []))
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_no_edges_raises(self):
        ig = IndexedGraph.from_arrays(3, [], [], [])
        with pytest.raises(ValueError, match="disconnected"):
            kruskal_mst_ids(ig)

    def test_disconnected_raises(self):
        ig = IndexedGraph.from_arrays(4, [0, 2], [1, 3], [1.0, 1.0])
        with pytest.raises(ValueError, match="disconnected"):
            kruskal_mst_ids(ig)


# ---------------------------------------------------------------------------
# IndexedTree vs RootedTree
# ---------------------------------------------------------------------------


def _level_bfs_reference(ig, root, tree_eids):
    """Level-by-level BFS over the tree arcs, each frontier's arcs in CSR order.

    The construction ``IndexedTree`` used before it moved to csgraph's BFS;
    returns ``(levels, parent, parent_eid, depth)``.
    """
    n = ig.num_nodes
    is_tree = np.zeros(ig.num_edges, dtype=bool)
    is_tree[tree_eids] = True
    parent = np.full(n, -1, dtype=np.int64)
    parent_eid = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    parent[root] = root
    indptr = ig.indptr.astype(np.int64)
    levels = [np.array([root], dtype=np.int64)]
    while True:
        frontier = levels[-1]
        counts = indptr[frontier + 1] - indptr[frontier]
        slots = np.concatenate(
            [np.arange(indptr[f], indptr[f + 1]) for f in frontier.tolist()]
        ).astype(np.int64)
        tails = np.repeat(frontier, counts)
        keep = is_tree[ig.adj_edge[slots]]
        slots, tails = slots[keep], tails[keep]
        heads = ig.neighbors[slots].astype(np.int64)
        fresh = ~seen[heads]
        heads, slots, tails = heads[fresh], slots[fresh], tails[fresh]
        if len(heads) == 0:
            return levels, parent, parent_eid, depth
        seen[heads] = True
        parent[heads] = tails
        parent_eid[heads] = ig.adj_edge[slots]
        depth[heads] = len(levels)
        levels.append(heads)


def _subtree_counts_reference(tree, marks):
    """Per-level ``np.add.at`` fold of integer marks, deepest level first."""
    acc = np.array(marks, dtype=np.int64, copy=True)
    for nodes in reversed(tree.levels[1:]):
        np.add.at(acc, tree.parent[nodes], acc[nodes])
    return acc


def _tree_zoo():
    """(ig, root, tree_eids) over every family plus random spanning trees."""
    cases = []
    for name, n in [
        ("grid", 400),
        ("power-law", 300),
        ("augmented-cube", 256),
        ("hypercube", 128),
        ("isp-like", 300),
        ("lower-bound-cycle", 200),
    ]:
        for seed in (0, 7):
            inst = build_scenario_indexed(name, n=n, seed=seed)
            cases.append((inst.ig, inst.root, kruskal_mst_ids(inst.ig)))
    for seed in range(4):
        # Non-MST spanning trees: the MST under reshuffled weights.
        inst = build_scenario_indexed("grid", n=225, seed=seed)
        ig = inst.ig
        w = ensure_rng(seed).permutation(ig.edge_weights)
        other = IndexedGraph.from_arrays(ig.num_nodes, ig.edge_u, ig.edge_v, w)
        cases.append((ig, int(ensure_rng(seed).integers(ig.num_nodes)), kruskal_mst_ids(other)))
    return cases


@pytest.fixture(scope="module")
def tree_pair():
    g = random_tree_plus_chords(40, 20, seed=13, chord_factor=1.3)
    ig = g.to_indexed()
    eids = kruskal_mst_ids(ig)
    itree = IndexedTree(ig, ig.id_of(0), eids)
    rtree = RootedTree(0, [ig.edge_labels[e] for e in eids.tolist()])
    return g, ig, itree, rtree


class TestIndexedTree:
    def test_depths_and_parents(self, tree_pair):
        g, ig, itree, rtree = tree_pair
        for u in g.nodes:
            uid = ig.id_of(u)
            assert itree.depth[uid] == len(rtree.path_to_root(u))

    def test_batch_lca(self, tree_pair):
        g, ig, itree, rtree = tree_pair
        rng = ensure_rng(3)
        us = rng.integers(0, 40, size=200)
        vs = rng.integers(0, 40, size=200)
        got = itree.lca(us, vs)
        for a, b, l in zip(us.tolist(), vs.tolist(), got.tolist()):
            assert ig.labels[l] == rtree.lca(ig.labels[a], ig.labels[b])

    @pytest.mark.parametrize("shape", ["path", "fork", "star"])
    def test_deep_lca_matches_parent_walk(self, shape):
        # "path": 3,000 nodes in a line from the root (height 2,999).
        # "fork": two 1,500-node lines that meet at depth 50.  "star": one
        # hub with 2,999 children, so every query spans siblings.
        n = 3_000
        rng = ensure_rng(11)
        label = rng.permutation(n)  # position -> node id, so ids are scrambled
        parent_pos = np.arange(-1, n - 1)
        if shape == "fork":
            parent_pos[1_500] = 50
        elif shape == "star":
            parent_pos[1:] = 0
        ig = IndexedGraph.from_arrays(
            n, label[parent_pos[1:]], label[1:], np.ones(n - 1)
        )
        root = int(label[0])
        tree = IndexedTree(ig, root, np.arange(n - 1))
        assert tree.height == {"path": n - 1, "fork": 1_550, "star": 1}[shape]
        assert tree._rmq_table().shape == ((n - 1).bit_length(), n)

        def naive(a, b):
            while tree.depth[a] > tree.depth[b]:
                a = int(tree.parent[a])
            while tree.depth[b] > tree.depth[a]:
                b = int(tree.parent[b])
            while a != b:
                a, b = int(tree.parent[a]), int(tree.parent[b])
            return a

        nodes = rng.integers(0, n, size=40).tolist()
        pairs = [(root, root), (int(label[-1]), root), (int(label[1_499]), int(label[-1]))]
        for x in nodes:
            pairs += [(x, x), (x, int(tree.parent[x])), (x, root)]
        pairs += list(zip(rng.integers(0, n, size=40).tolist(), nodes))
        us = np.array([a for a, _ in pairs], dtype=np.int32)
        vs = np.array([b for _, b in pairs], dtype=np.int32)
        expect = [naive(a, b) for a, b in pairs]
        assert tree.lca(us, vs).tolist() == expect
        assert tree.lca(vs, us).tolist() == expect
        assert tree.lca(us[:0], vs[:0]).shape == (0,)

    def test_prefix_sums_match_root_paths(self, tree_pair):
        g, ig, itree, rtree = tree_pair
        prefix = itree.prefix_sum_edges(ig.edge_weights)
        for u in g.nodes:
            expect = sum(g.weight(a, b) for a, b in rtree.path_to_root(u))
            assert prefix[ig.id_of(u)] == pytest.approx(expect)

    def test_edge_loads_count_players_below(self, tree_pair):
        g, ig, itree, rtree = tree_pair
        loads = itree.edge_loads()
        for eid in itree.tree_eids.tolist():
            edge = canonical_edge(*ig.edge_labels[eid])
            expect = sum(
                1
                for u in g.nodes
                if u != 0
                and edge in {canonical_edge(a, b) for a, b in rtree.path_to_root(u)}
            )
            assert loads[eid] == pytest.approx(expect)

    def test_non_spanning_edges_raise(self, tree_pair):
        _, ig, itree, _ = tree_pair
        with pytest.raises(ValueError, match="n - 1"):
            IndexedTree(ig, 0, itree.tree_eids[:-1])
        bad = itree.tree_eids.copy()
        bad[-1] = bad[0]  # duplicate edge: no longer spanning
        with pytest.raises(ValueError):
            IndexedTree(ig, 0, bad)

    def test_matches_level_bfs(self):
        for ig, root, eids in _tree_zoo():
            tree = IndexedTree(ig, root, eids)
            levels, parent, parent_eid, depth = _level_bfs_reference(ig, root, eids)
            for got, ref in ((tree.parent, parent), (tree.parent_eid, parent_eid), (tree.depth, depth)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert len(tree.levels) == len(levels)
            for got, ref in zip(tree.levels, levels):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_preorder_intervals_are_subtrees(self):
        for ig, root, eids in _tree_zoo():
            tree = IndexedTree(ig, root, eids)
            n = ig.num_nodes
            assert sorted(tree.pos.tolist()) == list(range(n))
            assert tree.pos[root] == 0 and tree.end[root] == n
            # A child's interval nests inside its parent's, after its start.
            nonroot = np.flatnonzero(tree.parent_eid >= 0)
            up = tree.parent[nonroot]
            assert (tree.pos[up] < tree.pos[nonroot]).all()
            assert (tree.end[nonroot] <= tree.end[up]).all()

    def test_subtree_counts_match_level_fold(self):
        rng = ensure_rng(5)
        for ig, root, eids in _tree_zoo():
            tree = IndexedTree(ig, root, eids)
            marks = rng.integers(-3, 4, size=ig.num_nodes)
            got = tree.subtree_counts(marks)
            ref = _subtree_counts_reference(tree, marks)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            sizes = tree.subtree_counts(np.ones(ig.num_nodes, dtype=np.int64))
            assert (sizes == tree.end - tree.pos).all()


# ---------------------------------------------------------------------------
# certified gaps on every game family (the property-test satellite)
# ---------------------------------------------------------------------------


def _family_zoo():
    g = random_tree_plus_chords(14, 7, seed=3, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 3) * 0.5 for i in range(6)]
    return {
        "broadcast": BroadcastGame(g, root=0),
        "multicast": MulticastGame(g, 0, others[:5]),
        "general": NetworkDesignGame(g, [(u, 0) for u in others[:6]]),
        "weighted": WeightedNetworkDesignGame(
            g, [(u, 0) for u in others[:6]], demands
        ),
        "directed": DirectedNetworkDesignGame(g, [(u, 0) for u in others[:6]]),
    }


@pytest.fixture(scope="module")
def zoo_states():
    return {name: game.default_state() for name, game in _family_zoo().items()}


class TestCertifiedGaps:
    @pytest.mark.parametrize("family", sorted(_family_zoo()))
    def test_greedy_brackets_exact_optimum(self, family, zoo_states):
        state = zoo_states[family]
        exact = solve_sne_cutting_plane_lp1(state)
        greedy = solve_sne_greedy(state)
        assert greedy.feasible and greedy.verified
        cert = greedy.certificate
        assert cert.lower_bound >= 0.0
        # greedy_budget - lower_bound >= 0, and the interval brackets OPT
        assert greedy.cost - cert.lower_bound >= -1e-9
        assert cert.lower_bound <= exact.cost + 1e-6
        assert exact.cost <= greedy.cost + 1e-6
        assert cert.gap == pytest.approx(cert.upper_bound - cert.lower_bound)

    def test_zoo_is_nontrivial(self, zoo_states):
        """At least one family needs a strictly positive budget."""
        budgets = [
            solve_sne_cutting_plane_lp1(state).cost
            for state in zoo_states.values()
        ]
        assert max(budgets) > 0.0


#: one instance per game family on which the label greedy needs >= 1 round
_STOP_INSTANCES = {
    "broadcast": ("grid", {}),
    "multicast": ("hypercube", {"terminals": "half"}),
    "general": ("power-law", {"pairs": "random"}),
    "weighted": ("grid", {"demands": "random"}),
    "directed": ("grid", {"orientation": "oneway-chords"}),
}


class TestGreedyEarlyStops:
    """The label greedy's ``deadline`` and ``target-gap`` stops fall back to
    fully subsidizing the established target edges."""

    @pytest.mark.parametrize("family", sorted(_STOP_INSTANCES))
    @pytest.mark.parametrize(
        "stop, opts", [("deadline", {"deadline": 0.0}), ("target-gap", {"target_gap": 1.0})]
    )
    def test_stop_falls_back_to_full_target(self, family, stop, opts):
        name, knobs = _STOP_INSTANCES[family]
        state = build_scenario(name, n=16, seed=7, game=family, **knobs).default_state()
        assert solve_sne_greedy(state).cost > 0.0  # a round with violations runs

        res = solve_sne_greedy(state, anytime=True, **opts)
        assert res.feasible and res.verified
        report = api.solve(state, "approx-greedy", **opts)
        graph = state.game.graph
        full = {e: graph.weight(*e) for e in report.target_edges}
        assert dict(res.subsidies.items()) == full
        assert res.cost == pytest.approx(report.target_cost)
        assert report.verified and report.metadata["certificate"]["upper_bound"] == res.cost
        # Both stops fire after the first round; the final log entry is the
        # fallback's bracket one round later.
        assert res.rounds == 1
        assert res.anytime.stopped == stop
        assert res.anytime.iterates[-1] == (2, res.cost, res.certificate.lower_bound)
        assert res.certificate.upper_bound == res.cost
        assert 0.0 <= res.certificate.lower_bound <= res.cost


class TestPrimalDual:
    @pytest.mark.parametrize("family", sorted(_family_zoo()))
    def test_converges_to_exact_subsidies(self, family, zoo_states):
        state = zoo_states[family]
        exact = solve_sne_cutting_plane_lp1(state)
        pd = solve_sne_primal_dual(state)
        assert pd.optimal and pd.certificate.kind == "exact"
        assert pd.certificate.relative_gap == 0.0
        assert dict(pd.subsidies.items()) == dict(exact.subsidies.items())

    def test_anytime_iterates_are_monotone(self, zoo_states):
        pd = solve_sne_primal_dual(zoo_states["broadcast"], anytime=True)
        log = pd.anytime
        assert log is not None and log.stopped == "converged"
        ubs = [ub for _, ub, _ in log.iterates]
        lbs = [lb for _, _, lb in log.iterates]
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert ubs[-1] == pytest.approx(pd.cost)

    def test_max_rounds_stop_is_feasible(self, zoo_states):
        pd = solve_sne_primal_dual(zoo_states["broadcast"], max_rounds=1)
        assert pd.feasible and pd.verified
        assert pd.anytime is None  # no anytime flag -> no log
        assert pd.certificate.kind in ("lp-relaxation", "exact")
        assert pd.cost >= pd.certificate.lower_bound - 1e-9

    def test_target_gap_stop(self, zoo_states):
        pd = solve_sne_primal_dual(
            zoo_states["broadcast"], anytime=True, target_gap=0.99
        )
        assert pd.feasible and pd.verified
        assert pd.anytime.stopped in ("target-gap", "converged")

    def test_deadline_stop(self, zoo_states):
        pd = solve_sne_primal_dual(
            zoo_states["broadcast"], anytime=True, deadline=0.0
        )
        assert pd.feasible and pd.verified
        assert pd.anytime.stopped == "deadline"


# ---------------------------------------------------------------------------
# the indexed (memory-lean) greedy solver
# ---------------------------------------------------------------------------


class TestIndexedGreedy:
    def test_certified_and_nash_on_broadcast(self):
        game = build_scenario("grid", n=30, seed=5)
        state = game.mst_state()
        exact = solve_sne_cutting_plane_lp1(state)

        ig = game.graph.to_indexed()
        res = solve_sne_greedy_indexed(ig, ig.id_of(game.root))
        assert res.feasible and res.verified
        assert res.certificate.lower_bound <= exact.cost + 1e-6
        assert exact.cost <= res.cost + 1e-6

        values = {
            canonical_edge(*ig.edge_labels[e]): float(res.subsidy_vector[e])
            for e in np.nonzero(res.subsidy_vector)[0].tolist()
        }
        sub = SubsidyAssignment(game.graph, values)
        assert check_equilibrium(state, sub).is_equilibrium

    def test_scale_instance_end_to_end(self):
        inst = build_scenario_indexed("grid", n=2_000, seed=2)
        res = solve_sne_greedy_indexed(inst.ig, inst.root, anytime=True)
        assert res.feasible and res.verified
        assert res.anytime is not None and res.anytime.iterates
        assert 0.0 <= res.certificate.lower_bound <= res.cost + 1e-9
        assert res.num_incidences > 0

    # Outputs of the per-incidence (unhalved) LCA and union-find Kruskal
    # kernels: the vectorized kernels must reproduce them.
    @pytest.mark.parametrize(
        "name, n, seed, cost, lower_bound, rounds, incidences, subsidized",
        [
            ("grid", 400, 3, 311.7856174776575, 17.488479728800925, 2, 722, 351),
            ("power-law", 300, 5, 137.8414600775675, 4.298284497116743, 3, 576, 178),
            ("augmented-cube", 256, 2, 182.82376632138406, 12.188561077629078, 1, 3317, 232),
            ("hypercube", 128, 4, 96.75362894989487, 7.258465925901575, 1, 637, 115),
        ],
    )
    def test_pinned_results(
        self, name, n, seed, cost, lower_bound, rounds, incidences, subsidized
    ):
        inst = build_scenario_indexed(name, n=n, seed=seed)
        res = solve_sne_greedy_indexed(inst.ig, inst.root)
        assert res.cost == pytest.approx(cost, rel=1e-12)
        assert res.certificate.lower_bound == pytest.approx(lower_bound, rel=1e-12)
        assert (res.rounds, res.num_incidences) == (rounds, incidences)
        assert int(np.count_nonzero(res.subsidy_vector)) == subsidized

    # perfbench scale-approx's three n = 10^5 instances (seed 101): SHA-256
    # of the subsidy vector's then the tree edge ids' little-endian bytes,
    # cost and lower bound as float.hex, rounds, incidences.
    @pytest.mark.parametrize(
        "name, seed, digest, cost, lower_bound, rounds, incidences",
        [
            ("grid", 2854911047,
             "a7b5e9cdc03f8aa43aa20539e3039b7505a13a14e428411f4fd27d1faa2c381b",
             "0x1.30bc27a4ddb0ep+16", "0x1.094fb702f48dep+12", 5, 198735),
            ("power-law", 734150080,
             "3c85785187051354e3f78ab70e454e55af679108ded89ea8ea5591e97fed0320",
             "0x1.4a007890b7e3cp+15", "0x1.ac512dab8fd88p+10", 8, 199898),
            ("augmented-cube", 1733431674,
             "b50fd4280244ed9fd51d0562577777931d8d3a78e596a370ca63d4c0577db2c7",
             "0x1.6e5a13b3e3e30p+15", "0x1.723a8df4bbffcp+11", 2, 1900516),
        ],
    )
    def test_pinned_scale_instances(
        self, name, seed, digest, cost, lower_bound, rounds, incidences
    ):
        inst = build_scenario_indexed(name, n=100_000, seed=seed)
        res = solve_sne_greedy_indexed(inst.ig, inst.root)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(res.subsidy_vector, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(res.tree_eids, dtype="<i8").tobytes())
        assert h.hexdigest() == digest
        assert (res.cost.hex(), res.certificate.lower_bound.hex()) == (cost, lower_bound)
        assert (res.rounds, res.num_incidences) == (rounds, incidences)
        assert res.verified and res.feasible

    def test_tree_only_instance_needs_no_subsidy(self):
        n = 50
        rng = ensure_rng(8)
        parents = [int(rng.integers(v)) for v in range(1, n)]
        ig = IndexedGraph.from_arrays(n, parents, range(1, n), rng.uniform(0.5, 2.0, n - 1))
        res = solve_sne_greedy_indexed(ig, 0)
        assert res.verified and res.feasible
        assert res.cost == 0.0 and res.num_incidences == 0
        assert not res.subsidy_vector.any()

    def test_max_rounds_falls_back_to_full_target(self):
        inst = build_scenario_indexed("grid", n=2_000, seed=2)
        ig = inst.ig
        res = solve_sne_greedy_indexed(ig, inst.root, anytime=True, max_rounds=1)
        assert res.feasible and res.verified
        assert res.anytime.stopped == "max-rounds"
        assert res.rounds == 1
        # Every established tree edge fully subsidized, as on a deadline.
        full = solve_sne_greedy_indexed(ig, inst.root, anytime=True, deadline=0.0)
        assert res.subsidy_vector.tobytes() == full.subsidy_vector.tobytes()
        assert res.certificate.upper_bound == res.cost == full.cost
        assert res.anytime.iterates[-1] == (2, res.cost, res.certificate.lower_bound)
        # With rounds to spare the same instance converges.
        done = solve_sne_greedy_indexed(ig, inst.root, anytime=True)
        assert done.anytime.stopped == "converged" and done.rounds > 1

    def test_anytime_gap_check_bounds_once_per_round(self, monkeypatch):
        import repro.subsidies.approx as approx

        calls = []
        real = approx.lagrangian_lower_bound

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(approx, "lagrangian_lower_bound", counted)
        inst = build_scenario_indexed("grid", n=400, seed=3)
        res = solve_sne_greedy_indexed(inst.ig, inst.root, anytime=True, target_gap=1e-12)
        assert res.anytime.stopped == "converged" and res.rounds >= 1
        assert len(calls) == res.rounds + 1  # one per round, one final
        calls.clear()
        state = build_scenario("grid", n=30, seed=5).mst_state()
        res = solve_sne_greedy(state, bound="lagrangian", anytime=True, target_gap=1e-12)
        assert res.rounds >= 1
        assert len(calls) <= res.rounds + 1

    def test_deadline_bailout_is_always_feasible(self):
        inst = build_scenario_indexed("power-law", n=500, seed=6)
        res = solve_sne_greedy_indexed(inst.ig, inst.root, anytime=True, deadline=0.0)
        assert res.feasible and res.verified
        assert res.anytime.stopped == "deadline"
        assert res.cost <= inst.ig.edge_weights.sum() + 1e-9


class TestLagrangianBound:
    def test_single_row_exact(self):
        # one constraint b/1 >= 1 with w = 2: the optimum is b = 1
        bound, lam = lagrangian_lower_bound(
            np.array([2.0]), np.array([1.0]), 1.0
        )
        assert bound == pytest.approx(1.0)
        assert lam > 0.0

    def test_zero_deficit_is_zero(self):
        bound, lam = lagrangian_lower_bound(np.array([2.0]), np.array([1.0]), 0.0)
        assert bound == 0.0 and lam == 0.0


# ---------------------------------------------------------------------------
# surfaces: serve daemon counters, CLI anytime knobs, peak-RSS metadata
# ---------------------------------------------------------------------------


class TestServeCounters:
    def test_engine_and_anytime_sections(self):
        from repro.serve.service import ServeConfig, SolverService

        svc = SolverService(ServeConfig(cache=False))
        payload = api.serialize.game_to_json(build_scenario("grid", n=12, seed=7))
        body = svc.solve_json(
            {
                "instance": payload,
                "solver": "approx-primal-dual",
                "opts": {"anytime": True},
            }
        )
        report = json.loads(body)
        assert report["metadata"]["anytime"]["stopped"] == "converged"
        svc.solve_json({"instance": payload, "solver": "sne-cutting-plane"})
        stats = json.loads(svc.stats_json())
        assert stats["engine"]["cut_rounds"] >= 1
        assert stats["engine"]["dijkstra_calls"] >= 1
        assert stats["anytime"]["solves"] == 1
        assert stats["anytime"]["iterates"] >= 1
        assert stats["anytime"]["stopped_converged"] == 1


@pytest.fixture()
def grid_instance_file(tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert (
        main(
            ["gen", "--family", "grid", "--n", "12", "--seed", "7",
             "--out", str(path)]
        )
        == 0
    )
    # streaming gen with --out writes the file only — no stdout echo
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["kind"] == "instance-set"
    return path


class TestCLIScaleKnobs:
    def test_anytime_flags_reach_the_solver(self, grid_instance_file, capsys):
        rc = main(
            ["solve", str(grid_instance_file), "--solver", "approx-primal-dual",
             "--anytime", "--target-gap", "0.99", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        meta = report["metadata"]
        assert meta["anytime"]["stopped"] in ("target-gap", "converged")
        assert meta["certificate"]["lower_bound"] >= 0.0
        assert meta["peak_rss_bytes"] > 0

    def test_canonical_output_has_no_rss(self, grid_instance_file, capsys):
        rc = main(
            ["solve", str(grid_instance_file), "--solver", "approx-greedy",
             "--json", "--canonical"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "peak_rss_bytes" not in report["metadata"]
        assert report["wall_clock_seconds"] == 0.0

    def test_peak_rss_helper_is_positive_here(self):
        assert peak_rss_bytes() > 0
