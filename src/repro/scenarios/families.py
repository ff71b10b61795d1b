"""The scenario catalogue: named, seeded, parameterized instance families.

Each :class:`ScenarioFamily` couples a deterministic *topology builder*
(grid, hypercube, augmented cube, preferential attachment, two-tier ISP,
adversarial lower-bound rings) with a *game wrapper* that turns the graph
into an instance of any :data:`~repro.games.base.GAME_FAMILIES` member.
Everything is reproducible from ``(name, n, seed, params)`` — the exact
tuple the sweep runtime content-addresses — so a scenario cell in a sweep
grid, a ``repro-experiments gen --family`` file and a test fixture built
by :func:`build_scenario` are the same instance byte for byte.

Topology notes
--------------
* ``grid`` — an r x c mesh trimmed to exactly ``n`` nodes (row-major), the
  classic data-center/street-network workload.
* ``hypercube`` / ``augmented-cube`` — ``Q_d`` and ``AQ_d`` on ``2^d <= n``
  nodes.  The augmented cube (Choudum & Sunitha; studied for independent
  spanning trees by Mane, Kandekar & Waphare — see PAPERS.md) doubles the
  hypercube's edge set with suffix-complement links, giving dense
  low-diameter deviation structure.
* ``power-law`` — Barabasi-Albert preferential attachment: a few hub
  nodes absorb most connections, the worst case for uniform subsidy rules.
* ``isp-like`` — a cheap backbone ring over hub sites plus geometric
  access links, the paper's ISP motivation made concrete.
* ``lower-bound-cycle`` — the Theorem 11 unit cycle (or a spoked wheel),
  the family driving the paper's ``1/e`` lower bound.

Game wrapping
-------------
The shared wrapper params select the game family and its shape: ``game``
(default ``broadcast``), ``terminals`` (``all``/``half``; multicast),
``demands`` (``unit``/``random``; weighted), ``orientation``
(``symmetric``/``oneway-chords``; directed) and ``pairs``
(``broadcast``/``random``; general).  Defaults sit inside the broadcast
overlap, so every registered solver accepts every scenario's default
instance; the non-default values produce genuinely multicast / weighted /
directed workloads for the family-general solvers.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: game-wrapper knobs every scenario accepts on top of its topology params
GAME_PARAMS = ("game", "terminals", "demands", "orientation", "pairs")


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the catalogue."""

    def __init__(self, name: str, known: List[str]):
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        msg = f"unknown scenario family {name!r}; known: {', '.join(known)}"
        if suggestions:
            msg += f" (did you mean {' or '.join(repr(s) for s in suggestions)}?)"
        super().__init__(msg)

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class ScenarioFamily:
    """One named instance family of the scenario catalogue."""

    #: catalogue name, e.g. ``"augmented-cube"``
    name: str
    #: one-line human description (shown by ``repro-experiments families``)
    description: str
    #: topology builder ``(n, rng, **params) -> Graph``
    build_graph: Callable[..., Graph]
    #: topology knobs and their defaults
    params: Mapping[str, Any] = field(default_factory=dict)
    #: builders that draw nothing from the RNG reproduce without a seed
    stochastic: bool = True

    def all_params(self) -> Dict[str, Any]:
        """Topology defaults plus the shared game-wrapper defaults."""
        return {
            **dict(self.params),
            "game": "broadcast",
            "terminals": "all",
            "demands": "unit",
            "orientation": "symmetric",
            "pairs": "broadcast",
        }


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------


def _jittered(rng: np.random.Generator, jitter: float) -> float:
    """A unit weight perturbed by ±jitter (0 disables the draw entirely)."""
    if jitter <= 0.0:
        return 1.0
    return float(rng.uniform(1.0 - jitter, 1.0 + jitter))


def _grid_graph(n: int, rng: np.random.Generator, jitter: float = 0.25) -> Graph:
    """r x c mesh trimmed to exactly ``n`` nodes (row-major order)."""
    check_positive_int(n, "n")
    rows = max(1, math.isqrt(n))
    cols = math.ceil(n / rows)
    g = Graph()
    g.add_node(0)
    for k in range(n):
        r, c = divmod(k, cols)
        if c + 1 < cols and k + 1 < n:
            g.add_edge(k, k + 1, _jittered(rng, jitter))
        if (r + 1) * cols + c < n:
            g.add_edge(k, k + cols, _jittered(rng, jitter))
    return g


def _cube_dim(n: int) -> int:
    """Largest ``d`` with ``2^d <= n`` (at least 1)."""
    check_positive_int(n, "n")
    return max(1, n.bit_length() - 1)


def _hypercube_graph(n: int, rng: np.random.Generator, jitter: float = 0.25) -> Graph:
    """The hypercube ``Q_d`` on ``2^d <= n`` nodes."""
    d = _cube_dim(n)
    g = Graph()
    g.add_node(0)
    for u in range(1 << d):
        for bit in range(d):
            v = u ^ (1 << bit)
            if u < v:
                g.add_edge(u, v, _jittered(rng, jitter))
    return g


def _aq_edge_list(d: int) -> List[Tuple[int, int]]:
    """Edges of the augmented cube ``AQ_d`` (recursive construction)."""
    if d == 1:
        return [(0, 1)]
    h = 1 << (d - 1)
    lower = _aq_edge_list(d - 1)
    edges = list(lower) + [(u + h, v + h) for u, v in lower]
    for u in range(h):
        edges.append((u, u + h))  # hypercube link
        edges.append((u, ((h - 1) ^ u) + h))  # suffix-complement link
    return edges


def _augmented_cube_graph(
    n: int, rng: np.random.Generator, jitter: float = 0.25
) -> Graph:
    """The augmented cube ``AQ_d`` on ``2^d <= n`` nodes."""
    d = _cube_dim(n)
    g = Graph()
    g.add_node(0)
    seen = set()
    for u, v in _aq_edge_list(d):
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            g.add_edge(u, v, _jittered(rng, jitter))
    return g


def _power_law_graph(
    n: int, rng: np.random.Generator, m: int = 2, jitter: float = 0.5
) -> Graph:
    """Barabasi-Albert preferential attachment with ``m`` links per node.

    A label view over the scale tier's kernel: node 0 first, then the
    kernel's edges in order.
    """
    from repro.scenarios.scale import _power_law_arrays

    _, eu, ev, ew = _power_law_arrays(n, rng, m=m, jitter=jitter)
    g = Graph()
    g.add_node(0)
    for v, u, w in zip(eu.tolist(), ev.tolist(), ew.tolist()):
        g.add_edge(v, u, w)
    return g


def _isp_graph(
    n: int, rng: np.random.Generator, hubs: int = 4, backbone_discount: float = 0.3
) -> Graph:
    """Two-tier ISP: a cheap hub backbone ring plus geometric access links."""
    check_positive_int(n, "n")
    h = max(3, min(int(hubs), n))
    pts = rng.random((max(n, h), 2))
    g = Graph()
    g.add_node(0)

    def dist(i: int, j: int) -> float:
        return float(np.hypot(*(pts[i] - pts[j])))

    for i in range(h):  # backbone ring at a bulk discount
        j = (i + 1) % h
        if i != j and not g.has_edge(i, j):
            g.add_edge(i, j, backbone_discount * max(dist(i, j), 1e-3))
    for k in range(h, n):  # each site uplinks to its two nearest hubs
        order = sorted(range(h), key=lambda i: dist(k, i))
        for i in order[:2]:
            g.add_edge(k, i, max(dist(k, i), 1e-3))
    return g


def _lower_bound_graph(
    n: int, rng: np.random.Generator, shape: str = "cycle"
) -> Graph:
    """The paper's adversarial families: Theorem 11 cycles and spoked wheels."""
    from repro.graphs.generators import cycle_graph, wheel_graph

    check_positive_int(n, "n")
    if shape == "cycle":
        return cycle_graph(max(3, n), weight=1.0)
    if shape == "wheel":
        rim = max(3, n - 1)
        return wheel_graph(rim, spoke_weight=1.0, rim_weight=4.0 / max(4, n))
    raise ValueError(f"lower-bound shape must be 'cycle' or 'wheel', got {shape!r}")


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

SCENARIOS: Dict[str, ScenarioFamily] = {
    fam.name: fam
    for fam in (
        ScenarioFamily(
            "grid",
            "r x c mesh trimmed to n nodes; jittered unit weights",
            _grid_graph,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "hypercube",
            "hypercube Q_d on 2^d <= n nodes; jittered unit weights",
            _hypercube_graph,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "augmented-cube",
            "augmented cube AQ_d: Q_d plus suffix-complement links",
            _augmented_cube_graph,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "power-law",
            "Barabasi-Albert preferential attachment (m links per arrival)",
            _power_law_graph,
            {"m": 2, "jitter": 0.5},
        ),
        ScenarioFamily(
            "isp-like",
            "cheap hub backbone ring plus geometric access uplinks",
            _isp_graph,
            {"hubs": 4, "backbone_discount": 0.3},
        ),
        ScenarioFamily(
            "lower-bound-cycle",
            "Theorem 11 unit cycle (or spoked wheel): the 1/e adversary",
            _lower_bound_graph,
            {"shape": "cycle"},
            stochastic=False,
        ),
    )
}


def scenario_names() -> List[str]:
    """Catalogue names in deterministic order."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioFamily:
    """Look up a scenario family (close-match suggestions on miss)."""
    if not isinstance(name, str):
        raise TypeError(f"scenario name must be a string, got {type(name).__name__}")
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(name, scenario_names()) from None


# ---------------------------------------------------------------------------
# Game wrapping
# ---------------------------------------------------------------------------


def _wrap_game(
    graph: Graph,
    game_family: str,
    rng: np.random.Generator,
    terminals: str,
    demands: str,
    orientation: str,
    pairs: str,
):
    from repro.games.base import GAME_FAMILIES
    from repro.games.broadcast import BroadcastGame
    from repro.games.directed import DirectedNetworkDesignGame
    from repro.games.game import NetworkDesignGame
    from repro.games.multicast import MulticastGame
    from repro.games.weighted import WeightedNetworkDesignGame

    root = graph.nodes[0]
    others = [u for u in graph.nodes if u != root]
    if not others:
        raise ValueError("scenario instance needs at least 2 nodes")

    if game_family == "broadcast":
        return BroadcastGame(graph, root)

    if game_family == "multicast":
        if terminals == "all":
            terms = list(others)
        elif terminals == "half":
            k = max(1, len(others) // 2)
            picks = rng.choice(len(others), size=k, replace=False)
            terms = [others[i] for i in sorted(int(i) for i in picks)]
        else:
            raise ValueError(f"terminals must be 'all' or 'half', got {terminals!r}")
        return MulticastGame(graph, root, terms)

    if game_family == "general":
        if pairs == "broadcast":
            pair_list = [(u, root) for u in others]
        elif pairs == "random":
            pair_list = []
            for u in others[: max(1, len(others) // 2)]:
                # never sample u itself; a single-non-root-node instance
                # falls back to the root as the only other endpoint
                choices = [v for v in others if v != u] or [root]
                pair_list.append((u, choices[int(rng.integers(len(choices)))]))
        else:
            raise ValueError(f"pairs must be 'broadcast' or 'random', got {pairs!r}")
        return NetworkDesignGame(graph, pair_list)

    if game_family == "weighted":
        pair_list = [(u, root) for u in others]
        if demands == "unit":
            demand_list = [1.0] * len(pair_list)
        elif demands == "random":
            demand_list = [float(rng.uniform(1.0, 3.0)) for _ in pair_list]
        else:
            raise ValueError(f"demands must be 'unit' or 'random', got {demands!r}")
        return WeightedNetworkDesignGame(graph, pair_list, demand_list)

    if game_family == "directed":
        pair_list = [(u, root) for u in others]
        if orientation == "symmetric":
            arcs = None
        elif orientation == "oneway-chords":
            # Spanning-tree edges stay two-way (reachability guarantee);
            # every chord gets one seeded direction.
            from repro.graphs.mst import kruskal_mst

            tree = set(kruskal_mst(graph))
            arc_list = []
            for u, v, _ in graph.edges():
                if (u, v) in tree:
                    arc_list += [(u, v), (v, u)]
                else:
                    arc_list.append((u, v) if rng.random() < 0.5 else (v, u))
            arcs = arc_list
        else:
            raise ValueError(
                f"orientation must be 'symmetric' or 'oneway-chords', got {orientation!r}"
            )
        return DirectedNetworkDesignGame(graph, pair_list, arcs)

    raise ValueError(
        f"unknown game family {game_family!r}; known: {', '.join(GAME_FAMILIES)}"
    )


def build_scenario(name: str, n: int = 16, seed: int = 0, **params: Any):
    """Build one seeded scenario instance.

    Parameters
    ----------
    name:
        Catalogue name (see :func:`scenario_names`).
    n:
        Target node count (cube families round down to ``2^d`` nodes).
    seed:
        RNG seed; the topology and the game wrapper share one stream, so
        the instance is a pure function of ``(name, n, seed, params)``.
    params:
        Topology knobs (family-specific, see
        :attr:`ScenarioFamily.params`) plus the shared game-wrapper knobs
        ``game``/``terminals``/``demands``/``orientation``/``pairs``.
        Unknown names are rejected.
    """
    fam = get_scenario(name)
    params = dict(params)
    game_family = params.pop("game", None) or "broadcast"
    wrapper = {
        "terminals": params.pop("terminals", "all"),
        "demands": params.pop("demands", "unit"),
        "orientation": params.pop("orientation", "symmetric"),
        "pairs": params.pop("pairs", "broadcast"),
    }
    topo = dict(fam.params)
    for key in list(params):
        if key in topo:
            topo[key] = params.pop(key)
    if params:
        raise ValueError(
            f"unknown parameter(s) for scenario {name!r}: "
            f"{', '.join(sorted(params))} (accepted: "
            f"{', '.join(sorted({**fam.params, **dict.fromkeys(GAME_PARAMS)}))})"
        )
    rng = ensure_rng(seed)
    graph = fam.build_graph(n, rng, **topo)
    return _wrap_game(graph, game_family, rng, **wrapper)


def scenario_instances(
    game_family: str, n: int = 12, seed: int = 0, names: Optional[List[str]] = None
):
    """One instance of ``game_family`` per scenario family (test/report sweep)."""
    out = []
    for name in names or scenario_names():
        out.append((name, build_scenario(name, n=n, seed=seed, game=game_family)))
    return out
