"""Subsidy assignments (Section 2 of the paper).

A subsidy assignment maps edges to amounts ``b_a`` with ``0 <= b_a <= w_a``.
It behaves as a read-only mapping (so the game layer, which accepts any
``Mapping[Edge, float]``, consumes it directly) and knows its own cost,
all-or-nothing status and MST-weight fraction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np

from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.utils.tolerances import EQ_TOL


class SubsidyAssignment(Mapping):
    """An immutable, validated ``edge -> subsidy`` mapping.

    Parameters
    ----------
    graph:
        The game graph; validates ``0 <= b_a <= w_a`` for each entry.
    values:
        Edge-to-amount mapping; near-zero round-off (within ``tol``) is
        clipped into the valid range rather than rejected, since most
        assignments come out of an LP solver.  An entry in ``[-tol, 0]``
        is zero up to round-off and is dropped before any other check
        (an LP vector is mostly such entries), so it need not name a
        graph edge.
    """

    def __init__(
        self,
        graph: Graph,
        values: Mapping[Tuple[Node, Node], float],
        tol: float = 1e-6,
    ) -> None:
        self.graph = graph
        data: Dict[Edge, float] = {}
        for (u, v), b in values.items():
            bf = float(b)
            if -tol <= bf <= 0.0:
                continue
            e = canonical_edge(u, v)
            if not graph.has_edge(*e):
                raise ValueError(f"subsidized edge {e!r} is not a graph edge")
            w = graph.weight(*e)
            if bf < -tol * max(1.0, w) or bf > w + tol * max(1.0, w):
                raise ValueError(f"subsidy {bf} on edge {e!r} outside [0, {w}]")
            bf = min(max(bf, 0.0), w)
            if bf > 0.0:
                data[e] = bf
        self._data = data

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, edge: Tuple[Node, Node]) -> float:
        return self._data[canonical_edge(*edge)]

    def get(self, edge: Tuple[Node, Node], default: float = 0.0) -> float:
        return self._data.get(canonical_edge(*edge), default)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, edge: object) -> bool:
        try:
            u, v = edge  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        return canonical_edge(u, v) in self._data

    # -- paper quantities -----------------------------------------------------

    @property
    def cost(self) -> float:
        """``b(E)``: the total amount of subsidies."""
        return float(sum(self._data.values()))

    def cost_on(self, edges: Iterable[Tuple[Node, Node]]) -> float:
        """``b(A)`` for an edge subset A."""
        return float(sum(self.get(e) for e in edges))

    def fraction_of(self, weight: float) -> float:
        """Subsidy cost as a fraction of a reference weight (e.g. wgt(MST))."""
        if weight <= 0:
            raise ValueError("reference weight must be positive")
        return self.cost / weight

    def is_all_or_nothing(self, tol: float = EQ_TOL) -> bool:
        """True when every subsidized edge is fully subsidized."""
        for e, b in self._data.items():
            w = self.graph.weight(*e)
            if abs(b - w) > tol * max(1.0, w) and abs(b) > tol * max(1.0, w):
                return False
        return True

    def subsidized_edges(self) -> Tuple[Edge, ...]:
        return tuple(self._data)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, graph: Graph) -> "SubsidyAssignment":
        return cls(graph, {})

    @classmethod
    def full_on(cls, graph: Graph, edges: Iterable[Tuple[Node, Node]]) -> "SubsidyAssignment":
        """All-or-nothing assignment fully subsidizing the given edges."""
        return cls(graph, {canonical_edge(u, v): graph.weight(u, v) for u, v in edges})

    @classmethod
    def from_vector(
        cls,
        graph: Graph,
        edge_order: Iterable[Edge],
        x: np.ndarray,
        tol: float = 1e-6,
    ) -> "SubsidyAssignment":
        """Build from an LP solution vector aligned with ``edge_order``."""
        values = {e: float(b) for e, b in zip(edge_order, x)}
        return cls(graph, values, tol=tol)

    def combined_with(self, other: "SubsidyAssignment") -> "SubsidyAssignment":
        """Edge-wise sum (used to compose the per-level Theorem 6 subsidies)."""
        merged: Dict[Edge, float] = dict(self._data)
        for e, b in other._data.items():
            merged[e] = merged.get(e, 0.0) + b
        return SubsidyAssignment(self.graph, merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubsidyAssignment(n_edges={len(self)}, cost={self.cost:.6g})"
