"""Scale tier of the scenario catalogue: array-native instance builders.

:func:`repro.scenarios.build_scenario` materializes a dict-of-dicts
:class:`~repro.graphs.graph.Graph` and a game wrapper — comfortable up to a
few thousand nodes, but a 10^5–10^6-node instance would spend hundreds of
bytes per node on dict entries before any solver runs.  This module is the
memory-lean mirror: :func:`build_scenario_indexed` builds the *same* seeded
topology straight into :meth:`IndexedGraph.from_arrays
<repro.graphs.core.IndexedGraph.from_arrays>` (flat int32/float64 arrays,
identity labels, no per-node dicts) and wraps it in a :class:`ScaleInstance`
the approximate solvers (:func:`repro.subsidies.solve_sne_greedy_indexed`)
consume directly.

Draw-for-draw reproducibility
-----------------------------
Every builder here consumes the seeded RNG stream in *exactly* the order the
:mod:`repro.scenarios.families` builder does, so at any ``(name, n, seed,
params)`` the label-level ``(u, v, w)`` edge triples of the two paths are
identical (``tests/test_scale_tier.py`` asserts this).  The key fact making
vectorization legal is that ``rng.uniform(a, b, size=N)`` consumes the same
``N`` doubles, in the same order, as ``N`` scalar ``rng.uniform(a, b)``
calls — so a whole family's jittered weights can be drawn in one call as
long as the *edge order* matches the legacy loop.

Audit notes (large-``n`` behaviour of the legacy builders)
----------------------------------------------------------
* ``_power_law_graph`` — now a label view over :func:`_power_law_arrays`,
  the one preferential-attachment kernel.  Each pick depends on the degree
  pool so far, so the kernel stays a loop; on a ``PCG64`` stream it
  replays numpy's draws over bulk raw output instead of calling numpy once
  per draw (about 4x faster at ``n = 10^5``, same arrays, same stream
  position afterwards).
* ``_isp_graph`` — ``sorted(range(h), key=dist)`` per site is ``O(n h log
  h)`` time with ``h`` small (fine) but allocates a lambda + list per node;
  the indexed mirror computes the full ``(n - h) x h`` distance matrix with
  one vectorized ``np.hypot`` and a stable ``argsort`` (same tie-break as
  ``sorted``).
* ``grid`` / ``hypercube`` / ``augmented-cube`` / ``lower-bound-cycle`` —
  pure index arithmetic, fully vectorized here.

Only the (default) broadcast wrapping is supported at scale: the multicast /
weighted / directed wrappers need label-level game state the lean path
deliberately avoids.  Above :data:`LARGE_N_THRESHOLD` nodes, prefer this
entry point; below it the two paths agree, so tests can cross-check them.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.graphs.core import IndexedGraph
from repro.scenarios.families import (
    GAME_PARAMS,
    get_scenario,
    _cube_dim,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: above this node count, callers should prefer the indexed path; the CLI
#: and benchmarks use it as the auto-dispatch cutoff.
LARGE_N_THRESHOLD = 20_000


@dataclass(frozen=True)
class ScaleInstance:
    """One seeded broadcast instance built straight into flat arrays.

    The scale-tier analogue of a wrapped scenario game: the graph is an
    :class:`~repro.graphs.core.IndexedGraph` with identity labels, the game
    is implicitly broadcast from ``root`` (one player per non-root node),
    and the whole object is a pure function of ``(name, n, seed, params)``
    exactly like :func:`~repro.scenarios.families.build_scenario`.
    """

    name: str
    n: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    ig: IndexedGraph = None  # type: ignore[assignment]
    root: int = 0

    @property
    def num_nodes(self) -> int:
        return self.ig.num_nodes

    @property
    def num_edges(self) -> int:
        return self.ig.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScaleInstance({self.name!r}, n={self.n}, seed={self.seed}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


# ---------------------------------------------------------------------------
# Array-native topology builders (one per catalogue family)
# ---------------------------------------------------------------------------

_Arrays = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _draw_weights(rng: np.random.Generator, jitter: float, m: int) -> np.ndarray:
    """``m`` jittered unit weights — the vectorized ``_jittered`` loop."""
    if jitter <= 0.0:
        return np.ones(m, dtype=np.float64)
    return rng.uniform(1.0 - jitter, 1.0 + jitter, size=m)


def _grid_arrays(n: int, rng: np.random.Generator, jitter: float = 0.25) -> _Arrays:
    check_positive_int(n, "n")
    rows = max(1, math.isqrt(n))
    cols = math.ceil(n / rows)
    k = np.arange(n, dtype=np.int64)
    r, c = np.divmod(k, cols)
    has_right = (c + 1 < cols) & (k + 1 < n)
    has_down = (r + 1) * cols + c < n
    # Legacy edge order: per node k (row-major), right edge then down edge.
    u2 = np.column_stack([k, k])
    v2 = np.column_stack([k + 1, k + cols])
    m2 = np.column_stack([has_right, has_down]).ravel()
    eu = u2.ravel()[m2]
    ev = v2.ravel()[m2]
    return n, eu, ev, _draw_weights(rng, jitter, len(eu))


def _hypercube_arrays(
    n: int, rng: np.random.Generator, jitter: float = 0.25
) -> _Arrays:
    d = _cube_dim(n)
    size = 1 << d
    # Legacy edge order: u ascending, bit ascending; edge exists iff the bit
    # is clear in u (then u < u ^ bit).
    uu = np.repeat(np.arange(size, dtype=np.int64), d)
    bb = np.tile(np.arange(d, dtype=np.int64), size)
    vv = uu ^ (np.int64(1) << bb)
    keep = uu < vv
    eu, ev = uu[keep], vv[keep]
    return size, eu, ev, _draw_weights(rng, jitter, len(eu))


def _aq_edge_arrays(d: int) -> np.ndarray:
    """``_aq_edge_list(d)`` as an (m, 2) array (same recursion, same order)."""
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
    d = _cube_dim(n)
    size = 1 << d
    raw = _aq_edge_arrays(d)
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    keys = lo * np.int64(size) + hi
    # First-occurrence dedup preserving list order — matches the legacy
    # seen-set loop, so the weight draws line up edge for edge.
    _, first = np.unique(keys, return_index=True)
    order = np.sort(first)
    eu, ev = raw[order, 0], raw[order, 1]
    return size, eu, ev, _draw_weights(rng, jitter, len(eu))


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

    # Access uplinks: each site to its two nearest hubs.  Stable argsort
    # reproduces `sorted(range(h), key=dist)`'s index tie-break.
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


_INDEXED_BUILDERS = {
    "grid": _grid_arrays,
    "hypercube": _hypercube_arrays,
    "augmented-cube": _augmented_cube_arrays,
    "power-law": _power_law_arrays,
    "isp-like": _isp_arrays,
    "lower-bound-cycle": _lower_bound_arrays,
}


def build_scenario_indexed(
    name: str, n: int = 16, seed: int = 0, **params: Any
) -> ScaleInstance:
    """Build one seeded scenario instance straight into flat arrays.

    Accepts the same ``(name, n, seed, **topology params)`` signature as
    :func:`~repro.scenarios.families.build_scenario` and produces the same
    label-level ``(u, v, w)`` edge triples from the same RNG stream — but
    as an :class:`~repro.graphs.core.IndexedGraph` with identity labels
    and no dict intermediates, so ``n`` up to 10^6 stays within a flat
    handful of arrays.

    Only broadcast wrapping is supported (``game="broadcast"`` or omitted);
    the other game families need label-level state the lean path avoids.
    """
    fam = get_scenario(name)
    try:
        build = _INDEXED_BUILDERS[fam.name]
    except KeyError:  # pragma: no cover - catalogue and builders co-evolve
        raise ValueError(f"no indexed builder for scenario {fam.name!r}")
    params = dict(params)
    game_family = params.pop("game", None) or "broadcast"
    if game_family != "broadcast":
        raise ValueError(
            "build_scenario_indexed supports only the broadcast game "
            f"(got game={game_family!r}); use build_scenario for the "
            "label-level game families"
        )
    for knob in GAME_PARAMS:
        if knob in params:
            raise ValueError(
                f"game-wrapper knob {knob!r} is not supported at scale; "
                "build_scenario_indexed builds broadcast instances only"
            )
    topo = dict(fam.params)
    for key in list(params):
        if key in topo:
            topo[key] = params.pop(key)
    if params:
        raise ValueError(
            f"unknown parameter(s) for scenario {name!r}: "
            f"{', '.join(sorted(params))} (accepted: "
            f"{', '.join(sorted(fam.params))})"
        )
    rng = ensure_rng(seed)
    num_nodes, eu, ev, ew = build(n, rng, **topo)
    if num_nodes < 2:
        raise ValueError("scenario instance needs at least 2 nodes")
    ig = IndexedGraph.from_arrays(num_nodes, eu, ev, ew)
    return ScaleInstance(
        name=fam.name, n=n, seed=seed, params=dict(topo), ig=ig, root=0
    )
