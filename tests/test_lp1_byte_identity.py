"""Pinned report bytes of the three LP (1) separation solvers.

``sne-lp1``, ``approx-greedy`` and ``approx-primal-dual`` share one LP (1)
row builder, one cutting-plane round loop, one greedy loop and one
deadline/target-gap stopping rule.  This suite pins the SHA-256 of their
canonical report JSON (wall clock removed; profile counters, certificates
and anytime logs kept) over nine scenario/game-family pairs, n in
{12, 24}, seeds {0, 7} and every option set below, so any change to those
shared pieces that moves a single report byte fails here.

The digests were computed before the shared pieces were factored out; to
regenerate them after a deliberate change, run this file as a script::

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
        {"fast": False},
        {"max_rounds": 1},
        {"max_rounds": 2, "fast": False},
        {"verify": False},
        {"method": "simplex"},
    ],
    "approx-greedy": [
        {},
        {"fast": False},
        {"bound": "lp"},
        {"bound": "lagrangian"},
        {"anytime": True},
        {"anytime": True, "fast": False, "bound": "lagrangian"},
        {"anytime": True, "target_gap": 0.5},
        {"anytime": True, "target_gap": 0.99},
        {"target_gap": 0.9, "bound": "lp"},
        {"anytime": True, "deadline": 0.0},
        {"deadline": 0.0, "fast": False},
        {"verify": False},
    ],
    "approx-primal-dual": [
        {},
        {"fast": False},
        {"max_rounds": 1},
        {"max_rounds": 2, "anytime": True},
        {"anytime": True},
        {"anytime": True, "fast": False},
        {"anytime": True, "target_gap": 0.5},
        {"anytime": True, "target_gap": 0.99},
        {"target_gap": 0.9},
        {"anytime": True, "deadline": 0.0},
        {"deadline": 0.0, "max_rounds": 1},
        {"anytime": True, "max_rounds": 1, "fast": False},
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
        '3f266863694a2b6938c4e82cf0f896d6dba4d66ab8d102e3a04c82117c56d6d9',
    ('sne-lp1', 'power-law/broadcast'):
        '7b5bcb911a1be6afdff2bb95f9033d937bb307b711d7c85e7301b11f9aa53037',
    ('sne-lp1', 'hypercube/multicast'):
        '8493ed18eb921d25a55e2107e7d57ff7c624342906f7a1660ac1e80b733c24e9',
    ('sne-lp1', 'augmented-cube/multicast'):
        'd11cdcd1254bcee69c0fadbd3032f6d50833a597574331febe2606570757de0e',
    ('sne-lp1', 'grid/general'):
        '4b7dc64693c1d68299f0ce65bf1df45112b75bf447f986b2e3f8120828f15c9c',
    ('sne-lp1', 'power-law/general'):
        'b8c311c25b42ff6d237fe3928f2329310afaacd64f99fbe5235cdd769e6d7b94',
    ('sne-lp1', 'grid/weighted'):
        'd5a1c5b32f5f1bff9a715f13194f8820108ae4b7c7d46df7c15ea792ced26365',
    ('sne-lp1', 'hypercube/weighted'):
        'ec1857cefcec3ae397dfc77519928cb97474001aab8aa871a8783148f3885340',
    ('sne-lp1', 'grid/directed'):
        '7ae1374872333c85eaef2432f5e5c0c326499848645dda08a6734f44e8993d02',
    ('approx-greedy', 'grid/broadcast'):
        'c801a25047c38e436a7174ba51d40ded4a7faa8cf6c081fb60eae61bf0be9ed9',
    ('approx-greedy', 'power-law/broadcast'):
        '819f5b196310aa165407b4dfb95347192a0efb671da45d34512a0093811eaaf8',
    ('approx-greedy', 'hypercube/multicast'):
        '51927d91e81b97e8471d3ce0569738e0e747ed57cf91ef67ff5b4628ff00d4af',
    ('approx-greedy', 'augmented-cube/multicast'):
        'fed51e3a6b8379926a437d0ab990d1441215077fee71b97cc5d7b39f24b4496d',
    ('approx-greedy', 'grid/general'):
        '8cf6f34d6e326c782b4f123306680564037a9ee8cc1f9b6072556f1aa743b89a',
    ('approx-greedy', 'power-law/general'):
        '3c17ddff9d968c9bf8325e19cc34057ac46067d6b46831fa406c84d1f8f9dfbd',
    ('approx-greedy', 'grid/weighted'):
        'c3835c989df9a586b73530a988fc49666ca491b5f2e01cd5034474257cd1698b',
    ('approx-greedy', 'hypercube/weighted'):
        'a4fe74a73eec6b5b16eabddc73b35d75544a421134d5f7d8af0faf13c230327b',
    ('approx-greedy', 'grid/directed'):
        '285756d39fcacdf6ec434e70a559b7ace23bbc59b41f167538c19bbe99408e58',
    ('approx-primal-dual', 'grid/broadcast'):
        '770b8d30936caed4074c5d3e01f40959b0b7416f18f6b287835e58b8348fa092',
    ('approx-primal-dual', 'power-law/broadcast'):
        'c738a6e7d115b36d5dd63068c7be2e83ba63f15b858e76d6237e6a5aa32e0d59',
    ('approx-primal-dual', 'hypercube/multicast'):
        '24f836e75d5422e249c27a531af2432624f5ecd3996379b4f95959f15b13d4b7',
    ('approx-primal-dual', 'augmented-cube/multicast'):
        '1567d37cc5531d63a33b2aa025ade74030223264046901f32f025a7049430b74',
    ('approx-primal-dual', 'grid/general'):
        'c0c5c0ef493a052e513aa9b336d171cb076936e5bc1b881eec23bad08fb0b19f',
    ('approx-primal-dual', 'power-law/general'):
        '94f5de199b426cc341793a584f0f2a415bea5ee6082a0cf5dc2b3c1e56f7011e',
    ('approx-primal-dual', 'grid/weighted'):
        'b4aadb08862bf17d60aac0ef2e190a148412f8a1cd729f1c5cb6dc5bafd93f35',
    ('approx-primal-dual', 'hypercube/weighted'):
        'd347b7098cdd1d2307d26f76a3b5fd21ab96a324efdca03ce7def56182bd07ef',
    ('approx-primal-dual', 'grid/directed'):
        '7e3c867ca1b0b71d4b2f98d8720fa8a2c909a0c238114f7df0c22f253266035b',
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
