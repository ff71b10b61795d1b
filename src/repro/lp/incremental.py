"""Incremental LP with sparse row storage and warm-started re-solves.

The cutting-plane driver's access pattern — solve, append a few cut rows,
solve again — is pathological for the dense :class:`~repro.lp.problem.
LinearProgram`: every round re-materializes the full ``A_ub`` and every
backend solve starts from scratch.  :class:`IncrementalLP` is the fast
path built for exactly that pattern:

* the constraint store is CSR-shaped from the start (``data`` / ``indices``
  / ``indptr`` growth buffers with amortized-doubling capacity), so a cut
  appends in ``O(nnz(row))`` and nothing dense is ever materialized;
  :meth:`IncrementalLP.add_rows` appends a whole CSR block at once (the
  LP (2) builder assembles its entire program that way), and the one-row
  methods are one-row blocks of it;
* each backend from the :mod:`repro.lp.backends` registry holds its warm
  state in a per-program *session* (``spec.make_session(inc)``): the
  ``highs-sparse`` session feeds the rows as a ``scipy.sparse.csr_matrix``
  *view* over the buffers and re-solves the whole grown program, so its
  answers stay bit-identical to a cold solve; the ``warm-tableau``
  session resumes from the previous optimal basis via
  :class:`~repro.lp.simplex.WarmSimplex` (dual-simplex warm start);
  backends without incremental machinery fall back to a cold
  dense-rebuild session.

Exact parity with the dense path is part of the contract: the HiGHS
backend receives bit-identical matrices either way (scipy canonicalizes
dense input to the same sparse form), and :meth:`IncrementalLP.
to_linear_program` materializes the dense twin the parity tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

# Import via the package so the built-in backends are always registered.
from repro.lp.backends import get_backend
from repro.lp.problem import LinearProgram, LPResult


def sparse_row(
    entries: Sequence[Tuple[int, float]], n_vars: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted columns and values of a row given as (index, coefficient) pairs.

    Duplicate indices accumulate and zero sums are dropped, exactly as
    :meth:`~repro.lp.problem.LinearProgram.add_sparse_constraint` builds
    its dense row; raises ``IndexError`` for a column outside ``[0, n_vars)``.
    """
    acc: dict = {}
    for idx, coef in entries:
        if not 0 <= idx < n_vars:
            raise IndexError(f"column {idx} out of range for {n_vars} variables")
        acc[idx] = acc.get(idx, 0.0) + float(coef)
    cols = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
    vals = np.array([acc[int(i)] for i in cols], dtype=np.float64)
    keep = vals != 0.0
    return cols[keep], vals[keep]


@dataclass
class LPStats:
    """Solve-path bookkeeping for one :class:`IncrementalLP`."""

    #: backend solves requested (including ones answered without a solver run)
    solves: int = 0
    #: re-solves served from warm state: a resumed simplex basis or the
    #: cached optimum of an unchanged program — anything cheaper than cold
    warm_start_hits: int = 0
    #: rows appended over the program's lifetime
    rows_added: int = 0

    def as_dict(self) -> dict:
        return {
            "solves": self.solves,
            "warm_start_hits": self.warm_start_hits,
            "rows_added": self.rows_added,
        }


class IncrementalLP:
    """A ``min c.x : A x <= b, l <= x <= u`` LP built for row appends.

    Mirrors the :class:`~repro.lp.problem.LinearProgram` construction API
    (``add_constraint`` / ``add_sparse_constraint``) so the cutting-plane
    driver and the LP(1)/LP(2) builders can use either interchangeably;
    see the module docstring for what changes under the hood.  Variable
    bounds are fixed at construction — the incremental machinery assumes
    only rows ever change.
    """

    def __init__(
        self,
        n_vars: int,
        c: np.ndarray,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
    ) -> None:
        self.n_vars = n_vars
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (n_vars,):
            raise ValueError(f"objective has shape {self.c.shape}, expected ({n_vars},)")
        self.lower = np.zeros(n_vars) if lower is None else np.asarray(lower, dtype=float)
        self.upper = (
            np.full(n_vars, np.inf) if upper is None else np.asarray(upper, dtype=float)
        )
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound for some variable")
        self.stats = LPStats()

        # CSR growth buffers: rows occupy data/indices[indptr[i]:indptr[i+1]].
        self._data = np.empty(16, dtype=np.float64)
        self._indices = np.empty(16, dtype=np.int64)
        self._indptr = np.zeros(17, dtype=np.int64)
        self._m = 0
        self._nnz = 0
        self._rhs: List[float] = []

        #: last solve per canonical backend name: (rows_solved, LPResult)
        self._last: dict = {}
        #: warm-state session per canonical backend name
        self._sessions: dict = {}

    # -- construction --------------------------------------------------------

    @property
    def n_constraints(self) -> int:
        return self._m

    @property
    def rhs(self) -> List[float]:
        """Right-hand sides, in row order (read-only by convention)."""
        return self._rhs

    def add_constraint(self, coeffs: Sequence[float] | np.ndarray, rhs: float) -> None:
        """Append the row ``coeffs . x <= rhs`` (dense input, sparse storage)."""
        row = np.asarray(coeffs, dtype=float)
        if row.shape != (self.n_vars,):
            raise ValueError(f"row has shape {row.shape}, expected ({self.n_vars},)")
        idx = np.nonzero(row)[0]
        self._append_row(idx.astype(np.int64), row[idx], rhs)

    def add_sparse_constraint(self, entries: Sequence[Tuple[int, float]], rhs: float) -> None:
        """Append a row given as (index, coefficient) pairs.

        Duplicate indices accumulate, matching
        :meth:`~repro.lp.problem.LinearProgram.add_sparse_constraint`.
        """
        cols, vals = sparse_row(entries, self.n_vars)
        self._append_row(cols, vals, rhs)

    def _append_row(self, cols: np.ndarray, vals: np.ndarray, rhs: float) -> None:
        """Append one row with sorted, distinct columns (a one-row block)."""
        self.add_rows((0, len(cols)), cols, vals, (rhs,))

    def add_rows(
        self,
        indptr: Sequence[int] | np.ndarray,
        indices: Sequence[int] | np.ndarray,
        data: Sequence[float] | np.ndarray,
        rhs: Sequence[float] | np.ndarray,
    ) -> None:
        """Append a block of rows given in CSR form.

        Row ``r`` of the block is ``data[indptr[r]:indptr[r+1]]`` at the
        columns ``indices[indptr[r]:indptr[r+1]]``, bounded by ``rhs[r]``.
        Columns must be sorted and distinct within a row.  Entries are
        stored as given (explicit zeros included), so a block of nonzero
        entries is byte-identical to the same rows appended one at a time
        through :meth:`add_sparse_constraint`.  The buffers grow at most once per
        block (amortized doubling).  Raises ``IndexError`` for a column
        outside ``[0, n_vars)`` and ``ValueError`` for inconsistent block
        shapes; either way the program is left unchanged.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        bounds = np.asarray(rhs, dtype=np.float64)
        rows = len(indptr) - 1
        k = len(indices)
        if (
            rows < 0
            or indptr[0] != 0
            or indptr[-1] != k
            or data.shape != (k,)
            or bounds.shape != (rows,)
        ):
            raise ValueError(
                f"inconsistent CSR block: {len(indptr)} indptr entries, "
                f"{k} indices, {data.size} values, {bounds.size} right-hand sides"
            )
        if k and (indices.min() < 0 or indices.max() >= self.n_vars):
            bad = indices[(indices < 0) | (indices >= self.n_vars)][0]
            raise IndexError(f"column {bad} out of range for {self.n_vars} variables")
        nnz, m = self._nnz, self._m
        if nnz + k > len(self._data):
            cap = max(2 * len(self._data), nnz + k)
            grown = np.empty(cap, dtype=np.float64)
            grown[:nnz] = self._data[:nnz]
            grown_idx = np.empty(cap, dtype=np.int64)
            grown_idx[:nnz] = self._indices[:nnz]
            self._data, self._indices = grown, grown_idx
        if m + rows + 1 > len(self._indptr):
            grown_ptr = np.zeros(max(2 * len(self._indptr), m + rows + 1), dtype=np.int64)
            grown_ptr[: m + 1] = self._indptr[: m + 1]
            self._indptr = grown_ptr
        self._data[nnz : nnz + k] = data
        self._indices[nnz : nnz + k] = indices
        self._indptr[m + 1 : m + rows + 1] = nnz + indptr[1:]
        self._nnz = nnz + k
        self._m = m + rows
        self._rhs.extend(bounds.tolist())
        self.stats.rows_added += rows

    # -- materialization -----------------------------------------------------

    def sparse_matrix(self) -> sp.csr_matrix:
        """The rows as a ``csr_matrix`` sharing the growth buffers.

        Safe against later appends: new rows write past ``nnz``, and a
        capacity doubling swaps in fresh buffers without touching the old
        ones a previously returned matrix still references.
        """
        return sp.csr_matrix(
            (
                self._data[: self._nnz],
                self._indices[: self._nnz],
                self._indptr[: self._m + 1],
            ),
            shape=(self._m, self.n_vars),
            copy=False,
        )

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(A_ub, b_ub)`` (debug/parity aid; the solvers never call it)."""
        return (
            self.sparse_matrix().toarray(),
            np.asarray(self._rhs, dtype=float),
        )

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` densified (feeds the warm tableau and the tests)."""
        if not 0 <= i < self._m:
            raise IndexError(f"row {i} out of range for {self._m} constraints")
        out = np.zeros(self.n_vars)
        lo, hi = self._indptr[i], self._indptr[i + 1]
        out[self._indices[lo:hi]] = self._data[lo:hi]
        return out

    def to_linear_program(self) -> LinearProgram:
        """The dense cold-path twin with identical rows, in order."""
        lp = LinearProgram(
            n_vars=self.n_vars,
            c=self.c.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
        )
        for i in range(self._m):
            lp.add_constraint(self.row(i), self._rhs[i])
        return lp

    # -- solving -------------------------------------------------------------

    def solve(self, method: str = "highs", max_iter: int = 20_000) -> LPResult:
        """Solve with the chosen backend, warm-starting where possible.

        ``method`` is any :mod:`repro.lp.backends` registry name or alias;
        warm state (and the last-result cache) is keyed by the canonical
        backend name, so ``"highs"`` and ``"highs-sparse"`` share a
        session.
        """
        spec = get_backend(method)
        self.stats.solves += 1
        cached = self._last.get(spec.name)
        if cached is not None and cached[0] == self._m:
            self.stats.warm_start_hits += 1
            return cached[1]
        session = self._sessions.get(spec.name)
        if session is None:
            session = self._sessions[spec.name] = spec.make_session(self)
        result, warm = session.solve(cached, max_iter=max_iter)
        if warm:
            self.stats.warm_start_hits += 1
        self._last[spec.name] = (self._m, result)
        return result
