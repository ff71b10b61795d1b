"""LP problem and result containers.

The canonical form used throughout the library is::

    minimize    c . x
    subject to  A_ub x <= b_ub
                lower <= x <= upper   (elementwise, optionally infinite)

which is exactly what both backends consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: cached ``(version, n_rows, rows_id, A_ub, b_ub)`` — see
#: :meth:`LinearProgram.matrices`
_MatCache = Optional[Tuple[int, int, int, np.ndarray, np.ndarray]]


class LPStatus(enum.Enum):
    """Solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    """Outcome of an LP solve: status, primal point and objective value."""

    status: LPStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@dataclass
class LinearProgram:
    """A dense LP in canonical ``min c.x : A x <= b, l <= x <= u`` form.

    Rows are appended incrementally (the cutting-plane driver does this), so
    the matrix is materialized lazily via :meth:`matrices`.
    """

    n_vars: int
    c: np.ndarray
    rows: List[np.ndarray] = field(default_factory=list)
    rhs: List[float] = field(default_factory=list)
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    _mat_cache: _MatCache = field(default=None, init=False, repr=False, compare=False)
    #: bumped on every mutation made through the construction API; part of
    #: the cache key so interleaved mutate/solve sequences (e.g. solving
    #: with one backend, adding a cut, solving with another) can never be
    #: served a stale compilation even when the row count ends up equal
    _version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.n_vars,):
            raise ValueError(f"objective has shape {self.c.shape}, expected ({self.n_vars},)")
        if self.lower is None:
            self.lower = np.zeros(self.n_vars)
        else:
            self.lower = np.asarray(self.lower, dtype=float)
        if self.upper is None:
            self.upper = np.full(self.n_vars, np.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound for some variable")

    def add_constraint(self, coeffs: Sequence[float] | np.ndarray, rhs: float) -> None:
        """Append the row ``coeffs . x <= rhs``."""
        row = np.asarray(coeffs, dtype=float)
        if row.shape != (self.n_vars,):
            raise ValueError(f"row has shape {row.shape}, expected ({self.n_vars},)")
        self.rows.append(row)
        self.rhs.append(float(rhs))
        self._version += 1
        self._mat_cache = None

    def add_sparse_constraint(self, entries: Sequence[Tuple[int, float]], rhs: float) -> None:
        """Append a row given as (index, coefficient) pairs.

        Duplicate indices accumulate; a column outside ``[0, n_vars)``
        raises ``IndexError`` (negative indices do not wrap around).
        """
        row = np.zeros(self.n_vars)
        for idx, coef in entries:
            if not 0 <= idx < self.n_vars:
                raise IndexError(f"column {idx} out of range for {self.n_vars} variables")
            row[idx] += coef
        self.add_constraint(row, rhs)

    @property
    def n_constraints(self) -> int:
        return len(self.rows)

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(A_ub, b_ub)``; zero-row matrix when unconstrained.

        The compiled pair is cached so callers that re-solve an unchanged
        program (the cutting-plane driver does, once per round before the
        oracle adds cuts) stop paying a dense re-materialization each
        time.  The cache key is the mutation version bumped by
        :meth:`add_constraint` plus the row count and the identity of the
        ``rows`` list, so any mutate-then-resolve ordering — including a
        backend swap right after a cut append, or replacing ``rows``
        wholesale — recompiles instead of serving stale matrices.  (An
        in-place element assignment like ``lp.rows[0] = r`` is outside the
        construction API and not detected; mutate through
        :meth:`add_constraint`.)  Treat the returned arrays as read-only —
        they are shared with later callers.
        """
        cached = self._mat_cache
        if (
            cached is not None
            and cached[0] == self._version
            and cached[1] == len(self.rows)
            and cached[2] == id(self.rows)
        ):
            return cached[3], cached[4]
        if not self.rows:
            A, b = np.zeros((0, self.n_vars)), np.zeros(0)
        else:
            A, b = np.vstack(self.rows), np.asarray(self.rhs, dtype=float)
        self._mat_cache = (self._version, len(self.rows), id(self.rows), A, b)
        return A, b
