"""LP (2) block assembly: pinned buffers of the vectorized builder.

:func:`~repro.subsidies.sne_lp.build_polynomial_lp2` computes each
player's arc rows as numpy arrays and appends the whole program as one
CSR block.  The SHA-256 digests below pin its edge order, ``c``,
``lower``, ``upper`` and the CSR/rhs buffers byte for byte on every game
family, over two topologies and two seeds.  They were computed when the
block equalled a dense row-by-row build, with its own per-player heap
Dijkstra, appended one row at a time.  The augmented cube is in the
matrix because its equal-cost paths are where tie order shows.

To print the digests after a deliberate change, run this file as a
script::

    PYTHONPATH=src python tests/test_lp2_assembly.py
"""

import hashlib

import numpy as np
import pytest

from repro.games import NetworkDesignGame
from repro.games.base import FairSharing
from repro.graphs import Graph
from repro.graphs.graph import canonical_edge
from repro.lp import IncrementalLP
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

TOPOLOGIES = ("grid", "augmented-cube")

SEEDS = (0, 1)


def _target_state(topology, family, params, seed):
    game = build_scenario(topology, n=16, seed=seed, game=family, **params)
    return game.default_state()


def _buffers(lp: IncrementalLP):
    A = lp.sparse_matrix()
    return (
        A.data.tobytes(),
        A.indices.tobytes(),
        A.indptr.tobytes(),
        np.asarray(lp.rhs, dtype=float).tobytes(),
    )


def lp2_digest(topology: str, family: str) -> str:
    """SHA-256 over the built LP (2) of one (topology, family) cell, both seeds."""
    params = dict(FAMILIES)[family]
    h = hashlib.sha256()
    for seed in SEEDS:
        lp, edges = build_polynomial_lp2(_target_state(topology, family, params, seed))
        assert isinstance(lp, IncrementalLP)
        h.update(repr(edges).encode())
        for buf in (lp.c, lp.lower, lp.upper):
            h.update(buf.tobytes())
        for buf in _buffers(lp):
            h.update(buf)
    return h.hexdigest()


LP2_DIGESTS = {
    ('grid', 'broadcast'):
        'aa941192805fd7d2caf0655030295e36bd502a1d314e48fb95fb0e64c154a289',
    ('grid', 'general'):
        '7d3ed49637cb0ebd3bf73db974cfb9d5db1588617cd9a0fc356909fe2877d9b0',
    ('grid', 'weighted'):
        'daca42ea134883ce7d1a1fdb9f26d9b626c3a3fd08a8518ea5b407aaee9a5134',
    ('grid', 'directed'):
        '86415ce9c6e5607983b453a04be4255322bbc460587e106b038d124f46491224',
    ('grid', 'multicast'):
        'f42e73318330ec88e5de86bc10374f0915b1309260883fe7a1c210cbe000f62a',
    ('augmented-cube', 'broadcast'):
        'b49b90a5477ed19f0429a1e171baec179d3bbc8b4fa2072d77e8bd9d0362eb11',
    ('augmented-cube', 'general'):
        'b842dc98cc253e619b4c67b57d26966775417a54addcfc1de29b5875df4ffd45',
    ('augmented-cube', 'weighted'):
        '2c40ce359cf366767ef9eedc4915367d4893013d0ef3950bede10d0981e1b71d',
    ('augmented-cube', 'directed'):
        'fa9482a02abc0bccac957de9edf3502bb597be40993333bf0aa91e84a7ff509a',
    ('augmented-cube', 'multicast'):
        'e87a1e8252b2e764ac2f52c5a8c9c7ac9aaa231b3f433b6aef090baf810fdabb',
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("family,params", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_fast_builder_matches_dense_twin_row_for_row(topology, family, params):
    """The block build keeps the bytes its dense row-by-row twin had."""
    assert lp2_digest(topology, family) == LP2_DIGESTS[(topology, family)]


def test_every_cell_is_pinned():
    assert set(LP2_DIGESTS) == {(t, f) for t in TOPOLOGIES for f, _ in FAMILIES}


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


def test_zero_alpha_edge_without_usage_raises():
    """alpha / d with alpha = d = 0 is an error, never a silent inf or nan."""
    g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.2), (2, 3, 1.0)])
    game = _ZeroAlphaGame(g, [(1, 0), (2, 0)])
    state = game.state([[1, 0], [2, 1, 0]])
    with pytest.raises(ZeroDivisionError):
        build_polynomial_lp2(state)


if __name__ == "__main__":
    for topology in TOPOLOGIES:
        for family, _params in FAMILIES:
            print(f"    ({topology!r}, {family!r}):\n        {lp2_digest(topology, family)!r},")
