"""Pinned report bytes of the three LP (1) separation solvers.

``sne-lp1``, ``approx-greedy`` and ``approx-primal-dual`` share one LP (1)
row builder, one cutting-plane round loop, one greedy loop and one
deadline/target-gap stopping rule.  This suite pins the SHA-256 of their
canonical report JSON (wall clock removed; profile counters, certificates
and anytime logs kept) over nine scenario/game-family pairs, n in
{12, 24}, seeds {0, 7} and every option set below, so any change to those
shared pieces that moves a single report byte fails here.

The digests were computed before the shared pieces were factored out,
and re-pinned over the option sets that remain on the code just before
the cold-rebuild reference path (the former ``fast=False`` option) was
removed.  To regenerate them after a deliberate change, run this file as
a script::

    PYTHONPATH=src python tests/test_lp1_byte_identity.py
"""

import hashlib

import pytest

from repro import api
from repro.scenarios import build_scenario
from repro.utils.hashing import canonical_json

#: (scenario, game-wrapper knobs): every game family, with the knobs that
#: make multicast, general, weighted and directed differ from broadcast
SCENARIOS = {
    "grid/broadcast": ("grid", {"game": "broadcast"}),
    "power-law/broadcast": ("power-law", {"game": "broadcast"}),
    "hypercube/multicast": ("hypercube", {"game": "multicast", "terminals": "half"}),
    "augmented-cube/multicast": (
        "augmented-cube", {"game": "multicast", "terminals": "half"}
    ),
    "grid/general": ("grid", {"game": "general", "pairs": "random"}),
    "power-law/general": ("power-law", {"game": "general", "pairs": "random"}),
    "grid/weighted": ("grid", {"game": "weighted", "demands": "random"}),
    "hypercube/weighted": ("hypercube", {"game": "weighted", "demands": "random"}),
    "grid/directed": ("grid", {"game": "directed", "orientation": "oneway-chords"}),
}

SIZES = (12, 24)
SEEDS = (0, 7)

#: ``deadline`` is only ever 0.0: any positive value makes the stop depend
#: on the host's speed, and 0.0 stops deterministically after one round
OPTION_SETS = {
    "sne-lp1": [
        {},
        {"max_rounds": 1},
        {"verify": False},
        {"method": "simplex"},
    ],
    "approx-greedy": [
        {},
        {"bound": "lp"},
        {"bound": "lagrangian"},
        {"anytime": True},
        {"anytime": True, "target_gap": 0.5},
        {"anytime": True, "target_gap": 0.99},
        {"target_gap": 0.9, "bound": "lp"},
        {"anytime": True, "deadline": 0.0},
        {"verify": False},
    ],
    "approx-primal-dual": [
        {},
        {"max_rounds": 1},
        {"max_rounds": 2, "anytime": True},
        {"anytime": True},
        {"anytime": True, "target_gap": 0.5},
        {"anytime": True, "target_gap": 0.99},
        {"target_gap": 0.9},
        {"anytime": True, "deadline": 0.0},
        {"deadline": 0.0, "max_rounds": 1},
        {"verify": False, "method": "simplex"},
    ],
}


def digest(solver: str, scenario: str) -> str:
    """SHA-256 over the canonical reports of one (solver, scenario) cell."""
    name, knobs = SCENARIOS[scenario]
    h = hashlib.sha256()
    for n in SIZES:
        for seed in SEEDS:
            for opts in OPTION_SETS[solver]:
                # A fresh instance per solve: the engine cached on a graph
                # must not carry state from one report into the next.
                game = build_scenario(name, n=n, seed=seed, **knobs)
                payload = api.serialize.report_to_json(api.solve(game, solver, **opts))
                del payload["wall_clock_seconds"]
                h.update(canonical_json(payload).encode("utf-8"))
                h.update(b"\n")
    return h.hexdigest()


DIGESTS = {
    ('sne-lp1', 'grid/broadcast'):
        'cd9ee87b065bc05a20fe2e7eabfbd5c7aab2a88111b264163761d69dc02f4202',
    ('sne-lp1', 'power-law/broadcast'):
        'b77622c4d003e774395fe35a3c2d88a5bed6dd54c58664a4d9e54422573b1ae3',
    ('sne-lp1', 'hypercube/multicast'):
        '7fe27e1801eec216b79ee3eadc4d024e3d617820bc03764f1ef9c37b85b3855c',
    ('sne-lp1', 'augmented-cube/multicast'):
        '4570126d8a9b2ae60db0b8dc4705432c204d17dedf0b3edf21cbea7578f48209',
    ('sne-lp1', 'grid/general'):
        'f9b8220ffe6c50d6101c8b9b4958f541e66ffad56d4975913c51d40b3c940f75',
    ('sne-lp1', 'power-law/general'):
        'd3894568bce8cf4f4fa916cd7fa452b901a2413de53ee20ef69069c52136eca9',
    ('sne-lp1', 'grid/weighted'):
        'aa2b6cebabf0314fc70e98ea2d30de9e99e511bd9d7bc5b965187b4c3a183fd7',
    ('sne-lp1', 'hypercube/weighted'):
        '23a270ced0f1ff1e3b7f157b2ecf96c29f64a1225de101d97297507b7105d526',
    ('sne-lp1', 'grid/directed'):
        '637c25476eb10541a4fbe3b6243e93ce9f858c2d93f2c62d313c9a41b25d4223',
    ('approx-greedy', 'grid/broadcast'):
        'ecc4f82976a057b60965110951e086fc6eaa3678ce0e1c53d1f19a62a6be0105',
    ('approx-greedy', 'power-law/broadcast'):
        'd56e6143d24a43595682e0abeab4a17b1247471db35768860479d85ab99d50d7',
    ('approx-greedy', 'hypercube/multicast'):
        '1636ec71e5bc5522c9c67f27240b5988c838f17f6a72f5c6b3dfacf89c9d547f',
    ('approx-greedy', 'augmented-cube/multicast'):
        'd37b295ca702f4bdbe1b06a9aa40c0bb752b49b5a3f08a7f51c7ad2d2678e71f',
    ('approx-greedy', 'grid/general'):
        '603cc3ab3903fa994b1fbb64ece5b92d37f0f49e792615ebc34c80ed114778ba',
    ('approx-greedy', 'power-law/general'):
        'e4c9d35b45616323f738e62fe124901294ea774a0a966bf8a29e531831e19f30',
    ('approx-greedy', 'grid/weighted'):
        '70cb07158a2c394fc44c7fe21ee42677dbf0f7f4911ae58c22eca214a1d5e339',
    ('approx-greedy', 'hypercube/weighted'):
        '0f3eb36d95d0441f263f772fdaa110f0abf7c9ae57071d68f8be1216f0f561ae',
    ('approx-greedy', 'grid/directed'):
        '0c43414640ed356b83ad6ec4afabf5c1dd445ae5c203964e320c51b5f551b839',
    ('approx-primal-dual', 'grid/broadcast'):
        '5b44642f9f3ece76e7ab5eb0f8e327f3edb7499c884494f7720776218c1f7fd6',
    ('approx-primal-dual', 'power-law/broadcast'):
        'dbd43866a2c67bcc7447cfb1ce2186860a43c9f205a11097ec322ab89f5e46e7',
    ('approx-primal-dual', 'hypercube/multicast'):
        'b2f68aebd7d2d2818985459994d75254eb294a69d9c592513d71585509d5d57a',
    ('approx-primal-dual', 'augmented-cube/multicast'):
        '0ad56c3af1dc6e6e1886f24290ed13e6019c7c8da697b6b4fefeb97632929370',
    ('approx-primal-dual', 'grid/general'):
        'c1307abdd7276531f833bfe4cc7c1afbc6e3dee5d3927f482e5bece755a916e4',
    ('approx-primal-dual', 'power-law/general'):
        '4a30dbd87a3cbd3644a307846b9696b456556ffc21c8a6c9922c6954255b23e8',
    ('approx-primal-dual', 'grid/weighted'):
        'ca24e325927208ddc11388053e209d495b4e2c146921349821b249d9e3f43200',
    ('approx-primal-dual', 'hypercube/weighted'):
        '8fb8649c618d00d681bb797a6c4663e3a48b976a279d705c99ae65684fb77a15',
    ('approx-primal-dual', 'grid/directed'):
        '5d9551b834b50793cc67fcbfd7c6985fe1923d705350c2ff99d109cb7b6b8412',
}


@pytest.mark.parametrize("solver, scenario", sorted(DIGESTS))
def test_reports_are_byte_identical(solver, scenario):
    assert digest(solver, scenario) == DIGESTS[(solver, scenario)]


def test_every_cell_is_pinned():
    assert set(DIGESTS) == {(s, c) for s in OPTION_SETS for c in SCENARIOS}


if __name__ == "__main__":
    for solver in OPTION_SETS:
        for scenario in SCENARIOS:
            print(f"    ({solver!r}, {scenario!r}):\n        {digest(solver, scenario)!r},")
