"""LP (2) block assembly: the vectorized builder must reproduce the
row-by-row reference build byte for byte.

The fast builder computes each player's arc rows as numpy arrays and
appends the whole program as one CSR block; the ``fast=False`` builder
appends dense rows one at a time.  Converting the dense rows into an
:class:`~repro.lp.incremental.IncrementalLP` row by row must give exactly
the fast builder's buffers — no tolerance — on every game family.
"""

import numpy as np
import pytest

from repro.games import NetworkDesignGame
from repro.games.base import FairSharing
from repro.graphs import Graph
from repro.graphs.graph import canonical_edge
from repro.lp import IncrementalLP, LinearProgram
from repro.scenarios import build_scenario
from repro.subsidies.sne_lp import build_polynomial_lp2

#: (game family, wrapper params); directed filters arcs through
#: ``allows``, weighted prices rows with non-unit ``alpha`` and multicast
#: leaves half the nodes without a player
FAMILIES = (
    ("broadcast", {}),
    ("general", {"pairs": "random"}),
    ("weighted", {"demands": "random"}),
    ("directed", {"orientation": "oneway-chords"}),
    ("multicast", {"terminals": "half"}),
)


def _target_state(topology, family, params, seed):
    game = build_scenario(topology, n=16, seed=seed, game=family, **params)
    return game.default_state()


def _row_by_row(dense: LinearProgram) -> IncrementalLP:
    inc = IncrementalLP(dense.n_vars, dense.c, lower=dense.lower, upper=dense.upper)
    for row, rhs in zip(dense.rows, dense.rhs):
        inc.add_constraint(row, rhs)
    return inc


def _buffers(lp: IncrementalLP):
    A = lp.sparse_matrix()
    return (
        A.data.tobytes(),
        A.indices.tobytes(),
        A.indptr.tobytes(),
        np.asarray(lp.rhs, dtype=float).tobytes(),
    )


@pytest.mark.parametrize("topology", ["grid", "augmented-cube"])
@pytest.mark.parametrize("family,params", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_fast_builder_matches_dense_twin_row_for_row(topology, family, params):
    for seed in (0, 1):
        state = _target_state(topology, family, params, seed)
        fast, edges_fast = build_polynomial_lp2(state, fast=True)
        dense, edges_dense = build_polynomial_lp2(state, fast=False)
        assert isinstance(fast, IncrementalLP) and isinstance(dense, LinearProgram)
        assert edges_fast == edges_dense
        for attr in ("c", "lower", "upper"):
            assert getattr(fast, attr).tobytes() == getattr(dense, attr).tobytes()
        assert _buffers(fast) == _buffers(_row_by_row(dense)), (topology, family, seed)


def test_families_exercise_their_special_cases():
    """Guard the matrix above: each family really takes its special path."""
    states = {
        family: _target_state("grid", family, params, 0) for family, params in FAMILIES
    }
    # directed: some arcs are filtered, so fewer than 2 rows per edge per player
    directed, edges = build_polynomial_lp2(states["directed"])
    n_players = len(states["directed"].game.players)
    assert directed.n_constraints < n_players * (2 * len(edges) + 1)
    # weighted: arc rows carry alpha / d with alpha != 1
    weighted = states["weighted"]
    demands = weighted.game.demands
    assert any(d != 1.0 for d in demands)
    # multicast: "half" leaves nodes without a player
    multicast = states["multicast"]
    assert len(multicast.game.players) < len(multicast.game.graph.nodes) - 1


class _ZeroOnEdge(FairSharing):
    """Fair sharing, except ``alpha = 0`` on the edge (2, 3)."""

    def weight_on(self, position, edge):
        return 0.0 if canonical_edge(*edge) == (2, 3) else 1.0


class _ZeroAlphaGame(NetworkDesignGame):
    @property
    def cost_sharing(self):
        return _ZeroOnEdge()


@pytest.mark.parametrize("fast", [True, False])
def test_zero_alpha_edge_without_usage_raises(fast):
    """alpha / d with alpha = d = 0 is an error, never a silent inf or nan."""
    g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2), (2, 3, 1.0)])
    game = _ZeroAlphaGame(g, [(1, 0), (2, 0)])
    state = game.state([[1, 0], [2, 1, 0]])
    with pytest.raises(ZeroDivisionError):
        build_polynomial_lp2(state, fast=fast)
