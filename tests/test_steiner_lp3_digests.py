"""Byte-level pins for the Dreyfus–Wagner targets and the LP (3) rows.

The Steiner DP runs as array layers and LP (3) reads its rows off the
Lemma 2 certificate blocks; both must reproduce the scalar reference
implementations exactly, tie order included.  The SHA-256 digests below
were computed with the scalar implementations (the row-by-row LP (3)
walk and the per-node dict DP); a change in any edge, any float bit or
any row order changes them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.games.broadcast import BroadcastGame
from repro.graphs import Graph
from repro.graphs.steiner import steiner_tree
from repro.scenarios import build_scenario
from repro.subsidies.sne_lp import build_broadcast_lp3

TOPOLOGIES = ("grid", "power-law", "isp-like", "augmented-cube")

#: the multicast grid: every topology x n, 40 seeds each, half terminals
STEINER_NS = (12, 16, 20)
STEINER_SEEDS = range(40)

STEINER_DIGESTS = {
    "grid": "6abd81d7932e15c31b5010efcf13d2e2c768ac11408391d5c6000f9f8ccdeb14",
    "power-law": "c3db2c56832e3e8aca965a30d7702a6db2ca7c4cf9694dd86dac34a0e03dd47f",
    "isp-like": "0537cc980f070ba046ec9cc514066051980218ecd1545c17e05ce5a2fd0d1f90",
    "augmented-cube": "c675f7912faeab1646041ae2589bde2f92d9530a22c3aa7ed78991228d1ad1d8",
}

#: the same instances reweighted to 1.0 (10 seeds): random weights never
#: tie, unit weights tie everywhere, so these pin the DP's tie order
STEINER_TIED_SEEDS = range(10)

STEINER_TIED_DIGESTS = {
    "grid": "dfb5c9726b89d3eae5e965701453bdbf66115ea8bfa95872d13161447216e48a",
    "power-law": "e97e8c3c5d925883d9eb56d485bb871c64052b0310b069325ebff9197e009567",
    "isp-like": "e0ef6916c162f63e71e14ac258e6f503855a09f3559d4a1becc40a49fac35d98",
    "augmented-cube": "7579b5fea404798295c12671bfd48c67d7ae6d5b7c9e472995808fb270364bb7",
}

LP3_NS = (16, 48, 200)

LP3_DIGESTS = {
    "grid": "d2c7479ff8fd189eb5337c1b2dcd258911cf0948ad86d78109a60f9b700d6956",
    "power-law": "c2daa3f4ffeb0232593ca14acfced5819f7c4888992cbc88cf4a4b4854b62a97",
    "isp-like": "9611fcf028223f8e66636d97764b970ba075f4178c44b207e714a614021cf9a8",
    "augmented-cube": "e7507bb53a4b277ac68611ac883185eb5a1396ad939a9a631e687f2a057b5d23",
}


def _unit_weights(graph):
    g = Graph()
    for u in graph.nodes:
        g.add_node(u)
    for u, v, _w in graph.edges():
        g.add_edge(u, v, 1.0)
    return g


def steiner_digest(topology, tied=False):
    h = hashlib.sha256()
    for n in STEINER_NS:
        for seed in STEINER_TIED_SEEDS if tied else STEINER_SEEDS:
            game = build_scenario(topology, n=n, seed=seed, game="multicast", terminals="half")
            graph = _unit_weights(game.graph) if tied else game.graph
            edges, weight = steiner_tree(graph, [game.root, *game.terminals])
            h.update(json.dumps([n, seed, edges, weight.hex()], default=int).encode())
    return h.hexdigest()


def _lp3_games(topology):
    """Per n: the unit-multiplicity game, then one with 0- and 3-player nodes."""
    for n in LP3_NS:
        game = build_scenario(topology, n=n, seed=n, game="broadcast")
        yield game
        others = [u for u in game.graph.nodes if u != game.root]
        yield BroadcastGame(
            game.graph, game.root, {u: (1, 0, 3)[i % 3] for i, u in enumerate(others)}
        )


def lp3_digest(topology):
    h = hashlib.sha256()
    for game in _lp3_games(topology):
        lp, edges = build_broadcast_lp3(game.mst_state())
        A = lp.sparse_matrix()
        h.update(json.dumps(edges, default=int).encode())
        for buf in (A.indptr, A.indices, A.data, np.asarray(lp.rhs, dtype=np.float64)):
            h.update(np.ascontiguousarray(buf).tobytes())
        for buf in (lp.c, lp.lower, lp.upper):
            h.update(buf.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_steiner_targets_match_the_scalar_dp(topology):
    assert steiner_digest(topology) == STEINER_DIGESTS[topology]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_tied_steiner_targets_match_the_scalar_dp(topology):
    assert steiner_digest(topology, tied=True) == STEINER_TIED_DIGESTS[topology]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_lp3_buffers_match_the_scalar_builder(topology):
    assert lp3_digest(topology) == LP3_DIGESTS[topology]


if __name__ == "__main__":
    for name in TOPOLOGIES:
        print(name, steiner_digest(name), steiner_digest(name, tied=True), lp3_digest(name))
