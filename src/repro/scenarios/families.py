"""The scenario catalogue: named, seeded, parameterized instance families.

Each :class:`ScenarioFamily` couples a deterministic *topology kernel*
(grid, hypercube, augmented cube, preferential attachment, two-tier ISP,
adversarial lower-bound rings) with a *game wrapper* that turns the graph
into an instance of any :data:`~repro.games.base.GAME_FAMILIES` member.
The kernel is the family's only topology builder: it returns flat edge
arrays, which :func:`build_scenario` inserts in order into a label
:class:`~repro.graphs.graph.Graph` and
:func:`~repro.scenarios.scale.build_scenario_indexed` hands to an
:class:`~repro.graphs.core.IndexedGraph`.
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
import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: defaults of the wrapper knobs that shape the chosen game family
_WRAPPER_DEFAULTS = {
    "terminals": "all",
    "demands": "unit",
    "orientation": "symmetric",
    "pairs": "broadcast",
}

#: game-wrapper knobs every scenario accepts on top of its topology params
GAME_PARAMS = ("game", *_WRAPPER_DEFAULTS)

#: what a topology kernel returns: ``(num_nodes, eu, ev, ew)``
_Arrays = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


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
    #: topology kernel ``(n, rng, **params) -> (num_nodes, eu, ev, ew)``
    build_graph: Callable[..., _Arrays]
    #: topology knobs and their defaults
    params: Mapping[str, Any] = field(default_factory=dict)
    #: kernels that draw nothing from the RNG reproduce without a seed
    stochastic: bool = True

    def all_params(self) -> Dict[str, Any]:
        """Topology defaults plus the shared game-wrapper defaults."""
        return {**dict(self.params), "game": "broadcast", **_WRAPPER_DEFAULTS}


# ---------------------------------------------------------------------------
# Topology kernels (one per catalogue family)
# ---------------------------------------------------------------------------
#
# A kernel ``(n, rng, **params)`` returns ``(num_nodes, eu, ev, ew)``: the
# node count and the edges as flat arrays, in the order the label view
# inserts them.  That order fixes each node's insertion and adjacency order
# in the label graph and the order of the weight draws, so changing it
# changes every instance (``tests/test_scenarios.py`` pins the digests).


def _draw_weights(rng: np.random.Generator, jitter: float, m: int) -> np.ndarray:
    """``m`` unit weights perturbed by ±jitter, one draw each (0: no draws)."""
    if jitter <= 0.0:
        return np.ones(m, dtype=np.float64)
    return rng.uniform(1.0 - jitter, 1.0 + jitter, size=m)


def _grid_arrays(n: int, rng: np.random.Generator, jitter: float = 0.25) -> _Arrays:
    """r x c mesh trimmed to exactly ``n`` nodes (row-major order)."""
    check_positive_int(n, "n")
    rows = max(1, math.isqrt(n))
    cols = math.ceil(n / rows)
    k = np.arange(n, dtype=np.int64)
    r, c = np.divmod(k, cols)
    has_right = (c + 1 < cols) & (k + 1 < n)
    has_down = (r + 1) * cols + c < n
    # Edge order: per node k (row-major), right edge then down edge.
    u2 = np.column_stack([k, k])
    v2 = np.column_stack([k + 1, k + cols])
    m2 = np.column_stack([has_right, has_down]).ravel()
    eu = u2.ravel()[m2]
    ev = v2.ravel()[m2]
    return n, eu, ev, _draw_weights(rng, jitter, len(eu))


def _cube_dim(n: int) -> int:
    """Largest ``d`` with ``2^d <= n`` (at least 1)."""
    check_positive_int(n, "n")
    return max(1, n.bit_length() - 1)


def _hypercube_arrays(
    n: int, rng: np.random.Generator, jitter: float = 0.25
) -> _Arrays:
    """The hypercube ``Q_d`` on ``2^d <= n`` nodes."""
    d = _cube_dim(n)
    size = 1 << d
    # Edge order: u ascending, bit ascending; edge exists iff the bit is
    # clear in u (then u < u ^ bit).
    uu = np.repeat(np.arange(size, dtype=np.int64), d)
    bb = np.tile(np.arange(d, dtype=np.int64), size)
    vv = uu ^ (np.int64(1) << bb)
    keep = uu < vv
    eu, ev = uu[keep], vv[keep]
    return size, eu, ev, _draw_weights(rng, jitter, len(eu))


def _aq_edge_arrays(d: int) -> np.ndarray:
    """Edges of the augmented cube ``AQ_d`` as an (m, 2) array.

    The recursive construction: ``AQ_{d-1}``, its copy shifted by ``h =
    2^(d-1)``, then per ``u < h`` the hypercube link and the
    suffix-complement link into the upper copy.
    """
    edges = np.array([[0, 1]], dtype=np.int64)
    for dd in range(2, d + 1):
        h = 1 << (dd - 1)
        u = np.arange(h, dtype=np.int64)
        inter = np.empty((2 * h, 2), dtype=np.int64)
        inter[0::2, 0] = u
        inter[0::2, 1] = u + h  # hypercube link
        inter[1::2, 0] = u
        inter[1::2, 1] = ((h - 1) ^ u) + h  # suffix-complement link
        edges = np.concatenate([edges, edges + h, inter])
    return edges


def _augmented_cube_arrays(
    n: int, rng: np.random.Generator, jitter: float = 0.25
) -> _Arrays:
    """The augmented cube ``AQ_d`` on ``2^d <= n`` nodes."""
    d = _cube_dim(n)
    size = 1 << d
    # The recursive construction never repeats an edge, so the weight
    # draws line up with it edge for edge.
    raw = _aq_edge_arrays(d)
    return size, raw[:, 0], raw[:, 1], _draw_weights(rng, jitter, len(raw))


#: raw 64-bit words per block the replay takes from its shadow generator:
#: the first block is small so small instances stay cheap, and each next
#: block doubles, up to the cap that bounds memory.
_RAW_BLOCK_FIRST = 1 << 8
_RAW_BLOCK = 1 << 16
_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32
#: ``random() < 0.9`` tested on the raw word: ``next_double`` is
#: ``(x >> 11) * 2**-53`` and ``0.9 * 2**53`` is an integer-valued double.
_POOL_LIMIT = int(0.9 * 2.0**53) << 11


def _power_law_arrays(
    n: int, rng: np.random.Generator, m: int = 2, jitter: float = 0.5
) -> _Arrays:
    """Barabasi-Albert preferential attachment with ``m`` links per node.

    Every pick depends on the degree pool so far, so the draws cannot be
    batched.  A ``PCG64`` stream is replayed over bulk raw output
    (:func:`_attach_replay`); any other bit generator runs the scalar loop
    (:func:`_attach_loop`).  Both consume the caller's stream identically
    and return the same arrays.
    """
    check_positive_int(n, "n")
    m = max(1, min(int(m), n - 1)) if n > 1 else 1
    # The replay mirrors numpy's 32-bit bounded draw, which ``integers(k)``
    # uses while ``k - 1 < 2**32 - 1``; the pool never exceeds ``2 m n``.
    if type(rng.bit_generator) is np.random.PCG64 and 2 * m * n < _MASK32:
        eu, ev, ew = _attach_replay(n, rng, m, jitter)
    else:
        eu, ev, ew = _attach_loop(n, rng, m, jitter)
    return n, eu, ev, ew


def _attach_loop(
    n: int, rng: np.random.Generator, m: int, jitter: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalar preferential-attachment loop: one numpy call per draw."""
    endpoints: List[int] = []
    eu: List[int] = []
    ev: List[int] = []
    ew: List[float] = []
    draw = jitter > 0.0
    # Bound methods as locals: same draws in the same order, less lookup.
    random, integers, uniform = rng.random, rng.integers, rng.uniform
    lo_w, hi_w = 1.0 - jitter, 1.0 + jitter
    push = endpoints.append
    for v in range(m, n):
        if endpoints:
            chosen: set = set()
            # mix uniform picks in so early nodes cannot monopolize forever
            while len(chosen) < min(m, v):
                if random() < 0.9:
                    u = endpoints[int(integers(len(endpoints)))]
                else:
                    u = int(integers(v))
                chosen.add(u)
        else:
            chosen = set(range(v))  # first arrival wires the seed clique
        for u in sorted(chosen):
            eu.append(v)
            ev.append(u)
            ew.append(uniform(lo_w, hi_w) if draw else 1.0)
            push(v)
            push(u)
    return (
        np.asarray(eu, dtype=np.int64),
        np.asarray(ev, dtype=np.int64),
        np.asarray(ew, dtype=np.float64),
    )


def _attach_replay(
    n: int, rng: np.random.Generator, m: int, jitter: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_attach_loop` replayed over bulk ``PCG64`` output.

    A shadow ``PCG64`` started at the caller's state hands out raw 64-bit
    words one block at a time, and the loop turns them into the draws
    numpy's ``Generator`` would make, as plain Python ints:

    * ``random()`` is ``next_double``, ``(x >> 11) * 2**-53``;
    * ``integers(k)`` is Lemire's bounded draw over ``next_uint32``,
      which serves the high half of a word on the next call (``PCG64``'s
      ``has_uint32`` / ``uinteger`` carry);
    * ``uniform(lo, hi)`` is ``lo + (hi - lo) * next_double``; the raw
      words are kept and the weights computed with numpy at the end.

    The caller's generator is then set to its start state advanced by the
    words consumed, with the carry restored, so later draws from it are
    exactly those after the scalar loop.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    shadow = np.random.PCG64()
    shadow.state = start
    fetched = 0
    current: Iterator[int] = iter(())  # the block being consumed

    def raw_blocks():
        nonlocal fetched, current
        size = _RAW_BLOCK_FIRST
        while True:
            current = iter(shadow.random_raw(size).tolist())
            fetched += size
            yield current
            size = min(2 * size, _RAW_BLOCK)

    nxt = itertools.chain.from_iterable(raw_blocks()).__next__
    has32 = bool(start["has_uint32"])
    carry = int(start["uinteger"])

    endpoints: List[int] = []
    eu = array("q")
    ev = array("q")
    wraw = array("Q")
    draw = jitter > 0.0
    for v in range(m, n):
        if endpoints:
            chosen = set()
            while len(chosen) < m:
                if nxt() < _POOL_LIMIT:
                    k, pool = len(endpoints), True
                else:
                    k, pool = v, False
                # k >= 2 here, so integers(k) always draws.
                while True:
                    if has32:
                        x, has32 = carry, False
                    else:
                        x = nxt()
                        carry, x, has32 = x >> 32, x & _MASK32, True
                    prod = x * k
                    low = prod & _MASK32
                    # numpy rejects low < (2**32 - k) % k; low >= k passes
                    # that test without the modulo.
                    if low >= k or low >= (_TWO32 - k) % k:
                        break
                u = prod >> 32
                chosen.add(endpoints[u] if pool else u)
        else:
            chosen = set(range(v))
        for u in sorted(chosen):
            eu.append(v)
            ev.append(u)
            if draw:
                wraw.append(nxt())
            endpoints += (v, u)

    # The caller's generator is still at ``start``: only the shadow drew.
    consumed = fetched - operator.length_hint(current)
    if consumed:
        bitgen.advance(consumed)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(has32), carry
        bitgen.state = state

    if draw:
        lo_w, hi_w = 1.0 - jitter, 1.0 + jitter
        unit = (np.frombuffer(wraw, dtype=np.uint64) >> np.uint64(11)).astype(
            np.float64
        )
        unit *= 2.0**-53
        ew = lo_w + (hi_w - lo_w) * unit
    else:
        ew = np.ones(len(eu), dtype=np.float64)
    return (
        np.frombuffer(eu, dtype=np.int64),
        np.frombuffer(ev, dtype=np.int64),
        ew,
    )


def _isp_arrays(
    n: int,
    rng: np.random.Generator,
    hubs: int = 4,
    backbone_discount: float = 0.3,
) -> _Arrays:
    """Two-tier ISP: a cheap hub backbone ring plus geometric access links."""
    check_positive_int(n, "n")
    h = max(3, min(int(hubs), n))
    pts = rng.random((max(n, h), 2))
    num_nodes = max(n, h)

    # Backbone ring at a bulk discount (h >= 3, so no dup/self edges).
    ring_i = np.arange(h, dtype=np.int64)
    ring_j = (ring_i + 1) % h
    ring_d = np.hypot(
        pts[ring_i, 0] - pts[ring_j, 0], pts[ring_i, 1] - pts[ring_j, 1]
    )
    ring_w = backbone_discount * np.maximum(ring_d, 1e-3)

    # Access uplinks: each site to its two nearest hubs; the stable argsort
    # breaks distance ties by hub index.
    if n > h:
        sites = np.arange(h, n, dtype=np.int64)
        dx = pts[sites, 0][:, None] - pts[:h, 0][None, :]
        dy = pts[sites, 1][:, None] - pts[:h, 1][None, :]
        dist = np.hypot(dx, dy)
        near = np.argsort(dist, axis=1, kind="stable")[:, :2]
        rows = np.arange(len(sites))
        acc_u = np.repeat(sites, 2)
        acc_v = near.astype(np.int64).ravel()
        acc_w = np.maximum(
            np.column_stack(
                [dist[rows, near[:, 0]], dist[rows, near[:, 1]]]
            ).ravel(),
            1e-3,
        )
    else:
        acc_u = np.empty(0, dtype=np.int64)
        acc_v = np.empty(0, dtype=np.int64)
        acc_w = np.empty(0, dtype=np.float64)

    eu = np.concatenate([ring_i, acc_u])
    ev = np.concatenate([ring_j, acc_v])
    ew = np.concatenate([ring_w, acc_w])
    return num_nodes, eu, ev, ew


def _lower_bound_arrays(
    n: int, rng: np.random.Generator, shape: str = "cycle"
) -> _Arrays:
    """The paper's adversarial families: Theorem 11 cycles and spoked wheels."""
    check_positive_int(n, "n")
    if shape == "cycle":
        size = max(3, n)
        i = np.arange(size, dtype=np.int64)
        eu, ev = i, (i + 1) % size
        return size, eu, ev, np.ones(size, dtype=np.float64)
    if shape == "wheel":
        rim = max(3, n - 1)
        spokes_u = np.zeros(rim, dtype=np.int64)
        spokes_v = np.arange(1, rim + 1, dtype=np.int64)
        rim_u = np.arange(1, rim + 1, dtype=np.int64)
        rim_v = np.concatenate([np.arange(2, rim + 1), [1]]).astype(np.int64)
        eu = np.concatenate([spokes_u, rim_u])
        ev = np.concatenate([spokes_v, rim_v])
        ew = np.concatenate(
            [
                np.ones(rim, dtype=np.float64),
                np.full(rim, 4.0 / max(4, n), dtype=np.float64),
            ]
        )
        return rim + 1, eu, ev, ew
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
            _grid_arrays,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "hypercube",
            "hypercube Q_d on 2^d <= n nodes; jittered unit weights",
            _hypercube_arrays,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "augmented-cube",
            "augmented cube AQ_d: Q_d plus suffix-complement links",
            _augmented_cube_arrays,
            {"jitter": 0.25},
        ),
        ScenarioFamily(
            "power-law",
            "Barabasi-Albert preferential attachment (m links per arrival)",
            _power_law_arrays,
            {"m": 2, "jitter": 0.5},
        ),
        ScenarioFamily(
            "isp-like",
            "cheap hub backbone ring plus geometric access uplinks",
            _isp_arrays,
            {"hubs": 4, "backbone_discount": 0.3},
        ),
        ScenarioFamily(
            "lower-bound-cycle",
            "Theorem 11 unit cycle (or spoked wheel): the 1/e adversary",
            _lower_bound_arrays,
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


def resolve_params(
    name: str, params: Mapping[str, Any]
) -> Tuple[ScenarioFamily, str, Dict[str, Any], Dict[str, Any]]:
    """Split one scenario's parameters into ``(family, game, wrapper, topology)``.

    ``game`` is the game family (``broadcast`` when omitted or ``None``),
    ``wrapper`` holds the wrapper knobs the caller passed, and ``topology``
    is the family's defaults updated with the passed topology knobs.  An
    unknown name raises :class:`UnknownScenarioError` and an unknown
    parameter ``ValueError``; both builders parse their parameters here.
    """
    fam = get_scenario(name)
    params = dict(params)
    game_family = params.pop("game", None) or "broadcast"
    wrapper = {key: params.pop(key) for key in _WRAPPER_DEFAULTS if key in params}
    unknown = set(params) - set(fam.params)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for scenario {name!r}: "
            f"{', '.join(sorted(unknown))} (accepted: "
            f"{', '.join(sorted({**fam.params, **dict.fromkeys(GAME_PARAMS)}))})"
        )
    return fam, game_family, wrapper, {**fam.params, **params}


def _label_graph(arrays: _Arrays) -> Graph:
    """A kernel's edges as a :class:`Graph`: node 0, then the edges in order."""
    _, eu, ev, ew = arrays
    g = Graph()
    g.add_node(0)
    for u, v, w in zip(eu.tolist(), ev.tolist(), ew.tolist()):
        g.add_edge(u, v, w)
    return g


def build_scenario(name: str, n: int = 16, seed: int = 0, **params: Any):
    """Build one seeded scenario instance.

    The graph is the label view of the family's topology kernel: node 0,
    then the kernel's edges in order, so node and adjacency order are
    fixed by the kernel.

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
    fam, game_family, wrapper, topo = resolve_params(name, params)
    rng = ensure_rng(seed)
    graph = _label_graph(fam.build_graph(n, rng, **topo))
    return _wrap_game(graph, game_family, rng, **{**_WRAPPER_DEFAULTS, **wrapper})


def scenario_instances(
    game_family: str, n: int = 12, seed: int = 0, names: Optional[List[str]] = None
):
    """One instance of ``game_family`` per scenario family (test/report sweep)."""
    out = []
    for name in names or scenario_names():
        out.append((name, build_scenario(name, n=n, seed=seed, game=game_family)))
    return out
