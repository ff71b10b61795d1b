"""Tests for the three SNE LP formulations (Theorem 1 / Lemma 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds.instances import theorem11_cycle_instance, theorem11_optimal_fraction
from repro.games import BroadcastGame, NetworkDesignGame, check_equilibrium
from repro.graphs import Graph
from repro.graphs.generators import random_connected_gnp, random_tree_plus_chords
from repro.graphs.graph import canonical_edge
from repro.lp import LinearProgram, solve_lp
from repro.scenarios import build_scenario
from repro.subsidies import (
    solve_sne,
    solve_sne_broadcast_lp3,
    solve_sne_cutting_plane_lp1,
    solve_sne_polynomial_lp2,
)
from repro.subsidies.sne_lp import build_broadcast_lp3


@pytest.fixture
def shortcut_triangle():
    """MST path 0-1-2 destabilized by shortcut (0,2) of weight 1.2.

    Minimum enforcement: reduce player 2's cost from 1.5 to 1.2; the
    cheapest way is 0.3 on the leaf edge (load 1).
    """
    g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2)])
    game = BroadcastGame(g, root=0)
    return game.tree_state([(0, 1), (1, 2)])


class TestLP3:
    def test_triangle_optimal_cost(self, shortcut_triangle):
        res = solve_sne_broadcast_lp3(shortcut_triangle)
        assert res.feasible and res.verified
        assert res.cost == pytest.approx(0.3, abs=1e-6)
        assert res.subsidies.get((1, 2)) == pytest.approx(0.3, abs=1e-6)

    def test_already_equilibrium_zero_cost(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
        game = BroadcastGame(g, root=0)
        res = solve_sne_broadcast_lp3(game.tree_state([(0, 1), (1, 2)]))
        assert res.cost == pytest.approx(0.0, abs=1e-9)

    def test_enforces_equilibrium(self, shortcut_triangle):
        res = solve_sne_broadcast_lp3(shortcut_triangle)
        assert check_equilibrium(shortcut_triangle, res.subsidies, tol=1e-6).is_equilibrium

    def test_simplex_backend_agrees(self, shortcut_triangle):
        r1 = solve_sne_broadcast_lp3(shortcut_triangle, method="highs")
        r2 = solve_sne_broadcast_lp3(shortcut_triangle, method="simplex")
        assert r1.cost == pytest.approx(r2.cost, abs=1e-6)

    def test_non_mst_target_enforceable(self):
        """SNE applies to any target tree, not just MSTs."""
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2)])
        game = BroadcastGame(g, root=0)
        star = game.tree_state([(0, 1), (0, 2)])
        res = solve_sne_broadcast_lp3(star)
        assert res.feasible and res.verified

    def test_theorem11_cycle_matches_closed_form(self):
        for n in (5, 9, 16, 31):
            game, state = theorem11_cycle_instance(n)
            res = solve_sne_broadcast_lp3(state)
            assert res.verified
            expected = theorem11_optimal_fraction(n) * n
            assert res.cost == pytest.approx(expected, abs=1e-6)

    def test_multiplicity_aware(self):
        # Ten co-located players at node 2 already stabilize the path.
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2)])
        game = BroadcastGame(g, root=0, multiplicity={2: 10})
        res = solve_sne_broadcast_lp3(game.tree_state([(0, 1), (1, 2)]))
        assert res.cost == pytest.approx(0.0, abs=1e-9)


def _lp3_row_by_row(state):
    """Reference LP (3): one dense ``add_sparse_constraint`` per incidence."""
    game, graph, tree = state.game, state.game.graph, state.tree
    index = {e: i for i, e in enumerate(state.edges)}
    upper = np.array([graph.weight(*e) for e in state.edges])
    lp = LinearProgram(n_vars=len(index), c=np.ones(len(index)), upper=upper)
    for u in graph.nodes:
        if u == game.root or game.multiplicity.get(u, 1) == 0:
            continue
        for v in graph.neighbors(u):
            if canonical_edge(u, v) in index:
                continue
            w = tree.lca(u, v)
            coeffs, rhs = {}, graph.weight(u, v)
            for start, extra, sign in ((u, 0, -1.0), (v, 1, 1.0)):
                x = start
                while x != w:
                    e = tree.edge_to_parent(x)
                    n_a = state.loads[e] + extra
                    coeffs[index[e]] = coeffs.get(index[e], 0.0) + sign / n_a
                    rhs += sign * graph.weight(*e) / n_a
                    x = tree.parent[x]
            if coeffs:
                lp.add_sparse_constraint(list(coeffs.items()), rhs)
    return lp


class TestLP3Assembly:
    @pytest.mark.parametrize("topology", ["grid", "power-law", "augmented-cube"])
    def test_block_matches_row_by_row_build(self, topology):
        state = build_scenario(topology, n=48, seed=4).mst_state()
        lp, _edges = build_broadcast_lp3(state)
        ref = _lp3_row_by_row(state)
        A, b = lp.matrices()
        A_ref, b_ref = ref.matrices()
        assert A.tobytes() == A_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        assert lp.upper.tobytes() == ref.upper.tobytes()
        # the session answer is the cold dense solve's, bit for bit
        x = lp.solve("highs").x
        assert x.tobytes() == solve_lp(ref, "highs").x.tobytes()

    def test_multiplicity_rows_match(self):
        g = random_tree_plus_chords(12, 8, seed=2)
        game = BroadcastGame(g, root=0, multiplicity={3: 4, 5: 0})
        state = game.mst_state()
        A, b = build_broadcast_lp3(state)[0].matrices()
        A_ref, b_ref = _lp3_row_by_row(state).matrices()
        assert A.tobytes() == A_ref.tobytes() and b.tobytes() == b_ref.tobytes()


class TestLP1CuttingPlanes:
    def test_triangle(self, shortcut_triangle):
        res = solve_sne_cutting_plane_lp1(shortcut_triangle)
        assert res.feasible and res.verified
        assert res.cost == pytest.approx(0.3, abs=1e-6)
        assert res.cuts >= 1

    def test_no_subsidies_on_non_target_edges(self, shortcut_triangle):
        res = solve_sne_cutting_plane_lp1(shortcut_triangle)
        assert res.subsidies.get((0, 2)) == pytest.approx(0.0, abs=1e-8)

    def test_general_two_player_game(self):
        # Both players s->t across a shared middle edge; a private bypass
        # tempts player 0.
        g = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 4.0), (2, 3, 1.0), (0, 2, 2.2)]
        )
        game = NetworkDesignGame(g, [(0, 3), (1, 3)])
        state = game.state([[0, 1, 2, 3], [1, 2, 3]])
        res = solve_sne_cutting_plane_lp1(state)
        assert res.feasible and res.verified
        assert check_equilibrium(state, res.subsidies, tol=1e-6).is_equilibrium

    def test_converges_in_few_rounds(self, shortcut_triangle):
        res = solve_sne_cutting_plane_lp1(shortcut_triangle)
        assert res.rounds <= 10


class TestLP2Polynomial:
    def test_triangle(self, shortcut_triangle):
        res = solve_sne_polynomial_lp2(shortcut_triangle)
        assert res.feasible and res.verified
        assert res.cost == pytest.approx(0.3, abs=1e-6)

    def test_general_game(self):
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2)])
        game = NetworkDesignGame(g, [(1, 0), (2, 0)])
        state = game.state([[1, 0], [2, 1, 0]])
        res = solve_sne_polynomial_lp2(state)
        assert res.feasible and res.verified


class TestFormulationAgreement:
    """Theorem 1's three formulations must agree on optimal cost."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 10_000))
    def test_agreement_on_random_broadcast_msts(self, n, seed):
        g = random_tree_plus_chords(n, n // 2, seed=seed, chord_factor=1.2)
        game = BroadcastGame(g, root=0)
        state = game.mst_state()
        r3 = solve_sne_broadcast_lp3(state)
        r1 = solve_sne_cutting_plane_lp1(state)
        r2 = solve_sne_polynomial_lp2(state)
        assert r3.cost == pytest.approx(r1.cost, abs=1e-5)
        assert r3.cost == pytest.approx(r2.cost, abs=1e-5)
        assert r1.verified and r2.verified and r3.verified

    def test_front_door_dispatch(self, shortcut_triangle):
        auto = solve_sne(shortcut_triangle)
        assert auto.method == "lp3"
        lp2 = solve_sne(shortcut_triangle, formulation="lp2")
        assert lp2.cost == pytest.approx(auto.cost, abs=1e-6)
        with pytest.raises(ValueError):
            solve_sne(shortcut_triangle, formulation="magic")

    def test_lp3_rejects_general_state(self):
        g = Graph.from_edges([(0, 1, 1.0)])
        game = NetworkDesignGame(g, [(0, 1)])
        with pytest.raises(ValueError):
            solve_sne(game.state([[0, 1]]), formulation="lp3")


class TestSNEOnRandomGraphs:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(5, 10), st.floats(0.3, 0.8), st.integers(0, 10_000))
    def test_lp3_always_enforces_mst(self, n, p, seed):
        g = random_connected_gnp(n, p, seed=seed)
        game = BroadcastGame(g, root=0)
        state = game.mst_state()
        res = solve_sne_broadcast_lp3(state)
        assert res.feasible
        assert res.verified
        # Theorem 6 caps the optimum at wgt(T)/e.
        assert res.cost <= state.social_cost() / 2.718281828 + 1e-6
