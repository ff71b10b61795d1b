"""Scale tier of the scenario catalogue: the array view of each family.

One kernel, two views
---------------------
Every catalogue family has exactly one topology kernel in
:mod:`repro.scenarios.families` (``ScenarioFamily.build_graph``): a pure
function of ``(n, rng, **params)`` that returns the node count and the
edges as flat ``eu``/``ev``/``ew`` arrays.  Both entry points read the
same arrays from the same seeded stream:

* :func:`~repro.scenarios.families.build_scenario` is the *label view*.
  It inserts node 0 and then every edge, in kernel order, into a
  dict-of-dicts :class:`~repro.graphs.graph.Graph` and wraps it in any
  game family.
* :func:`build_scenario_indexed` is the *array view*.  It hands the arrays
  straight to :meth:`IndexedGraph.from_arrays
  <repro.graphs.core.IndexedGraph.from_arrays>` (flat int32/float64
  arrays, identity labels, no per-node dicts) and returns a
  :class:`ScaleInstance` that the approximate solvers
  (:func:`repro.subsidies.solve_sne_greedy_indexed`) consume directly.

So at any ``(name, n, seed, params)`` the two views hold the same
``(u, v, w)`` triples, and a 10^5–10^6-node instance never pays the label
graph's hundreds of bytes per node.  Both views also parse their
parameters with one resolver,
:func:`~repro.scenarios.families.resolve_params`, so an unknown parameter
is rejected with the same message by either.

Only the (default) broadcast wrapping is supported at scale: the multicast /
weighted / directed wrappers need label-level game state the lean path
deliberately avoids.  Above :data:`LARGE_N_THRESHOLD` nodes, prefer this
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.graphs.core import IndexedGraph
from repro.scenarios.families import resolve_params
from repro.utils.rng import ensure_rng

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


def build_scenario_indexed(
    name: str, n: int = 16, seed: int = 0, **params: Any
) -> ScaleInstance:
    """Build one seeded scenario instance straight into flat arrays.

    Accepts the same ``(name, n, seed, **topology params)`` signature as
    :func:`~repro.scenarios.families.build_scenario` and runs the same
    kernel on the same RNG stream, so the ``(u, v, w)`` edge triples are
    the same — but as an :class:`~repro.graphs.core.IndexedGraph` with
    identity labels and no dict intermediates, so ``n`` up to 10^6 stays
    within a flat handful of arrays.

    Only broadcast wrapping is supported (``game="broadcast"`` or omitted);
    the other game families need label-level state the lean path avoids.
    """
    fam, game_family, wrapper, topo = resolve_params(name, params)
    if game_family != "broadcast":
        raise ValueError(
            "build_scenario_indexed supports only the broadcast game "
            f"(got game={game_family!r}); use build_scenario for the "
            "label-level game families"
        )
    if wrapper:
        raise ValueError(
            f"game-wrapper knob {next(iter(wrapper))!r} is not supported at scale; "
            "build_scenario_indexed builds broadcast instances only"
        )
    rng = ensure_rng(seed)
    num_nodes, eu, ev, ew = fam.build_graph(n, rng, **topo)
    if num_nodes < 2:
        raise ValueError("scenario instance needs at least 2 nodes")
    ig = IndexedGraph.from_arrays(num_nodes, eu, ev, ew)
    return ScaleInstance(
        name=fam.name, n=n, seed=seed, params=dict(topo), ig=ig, root=0
    )
