"""Dense two-phase primal simplex, built from scratch.

This is the reference LP solver the cutting-plane driver was developed
against; production solves go through scipy's HiGHS (see
:mod:`repro.lp.backends`).  The implementation is a textbook tableau method:

* finite lower/upper variable bounds are compiled into shift + extra rows,
  so the core solves ``min c.x : A x <= b, x >= 0``;
* rows with negative right-hand side get artificial variables and a phase-1
  feasibility solve;
* pivoting uses Dantzig's rule with an automatic switch to Bland's rule
  (which guarantees termination) once the iteration count gets large.

:class:`WarmSimplex` is the basis-resuming entry point the incremental
cutting-plane path uses: the first solve runs the same two-phase method
(identical pivot sequence, hence identical answers) but keeps the final
tableau alive; appended cut rows enter with their slack basic, and the next
solve restores primal feasibility with *dual*-simplex pivots from the
previous optimal basis instead of starting over.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lp.problem import LinearProgram, LPResult, LPStatus

_PIVOT_EPS = 1e-10


def _compile_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Shift out lower bounds and compile finite upper bounds into rows.

    The one compilation pipeline behind both :func:`simplex_solve` and
    :class:`WarmSimplex` — sharing it is what makes the warm path's
    "identical cold answers" contract hold by construction.  Returns
    ``(A', b', shift, m)`` for the shifted problem
    ``min c.x' : A' x' <= b', x' >= 0`` with ``x = x' + shift``.
    """
    shift = lower
    b = b - A @ shift if A.size else b
    ub_shifted = upper - lower

    # Finite upper bounds become rows  x'_j <= u_j.
    finite_ub = np.where(np.isfinite(ub_shifted))[0]
    if finite_ub.size:
        ub_rows = np.zeros((finite_ub.size, len(c)))
        ub_rows[np.arange(finite_ub.size), finite_ub] = 1.0
        A = np.vstack([A, ub_rows]) if A.size else ub_rows
        b = np.concatenate([b, ub_shifted[finite_ub]])

    m = A.shape[0] if A.size else 0
    return A, b, shift, m


def simplex_solve(problem: LinearProgram, max_iter: int = 20_000) -> LPResult:
    """Solve a :class:`LinearProgram` with the two-phase tableau simplex."""
    A, b = problem.matrices()
    c = problem.c.copy()
    lower = problem.lower.copy()
    upper = problem.upper.copy()

    if np.any(np.isinf(lower)):
        raise ValueError("simplex_solve requires finite lower bounds")

    # Shift x' = x - lower so all variables are >= 0.
    A, b, shift, m = _compile_standard_form(A, b, c, lower, upper)
    if m == 0:
        # Unconstrained besides x >= 0: optimum at 0 unless some c_j < 0.
        if np.any(c < -_PIVOT_EPS):
            return LPResult(LPStatus.UNBOUNDED)
        return LPResult(
            LPStatus.OPTIMAL, x=shift.copy(), objective=float(c @ shift)
        )

    status, x_shifted = _two_phase(A, b, c, max_iter)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status)
    x = x_shifted + shift
    return LPResult(LPStatus.OPTIMAL, x=x, objective=float(problem.c @ x))


def _two_phase(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int
) -> Tuple[LPStatus, Optional[np.ndarray]]:
    """Solve min c.x : A x <= b, x >= 0 (b may be negative)."""
    status, tableau = _two_phase_tableau(A, b, c, max_iter)
    if status is not LPStatus.OPTIMAL or tableau is None:
        return status, None
    T, rhs, basis, _ = tableau
    x = np.zeros(T.shape[1])
    x[basis] = rhs
    return LPStatus.OPTIMAL, x[: A.shape[1]]


def _pivot(T: np.ndarray, rhs: np.ndarray, row: int, col: int, basis: np.ndarray) -> None:
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > _PIVOT_EPS:
            factor = T[i, col]
            T[i] -= factor * T[row]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def _run_simplex(
    T: np.ndarray,
    rhs: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    max_iter: int,
    frozen: Optional[set] = None,
) -> Tuple[LPStatus, float]:
    """Iterate pivots in place; returns (status, objective value)."""
    m, total = T.shape
    bland_after = max(200, 5 * total)
    for it in range(max_iter):
        # Reduced costs: r = obj - obj_B . T   (computed densely).
        y = obj[basis]
        reduced = obj - y @ T
        if frozen:
            reduced = reduced.copy()
            reduced[list(frozen)] = 0.0
        if it < bland_after:
            col = int(np.argmin(reduced))
            if reduced[col] >= -1e-9:
                return LPStatus.OPTIMAL, float(y @ rhs)
        else:
            candidates = np.where(reduced < -1e-9)[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL, float(y @ rhs)
            col = int(candidates[0])  # Bland: lowest index
        column = T[:, col]
        positive = column > _PIVOT_EPS
        if not positive.any():
            return LPStatus.UNBOUNDED, float("nan")
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        row = int(np.argmin(ratios))
        if it >= bland_after:
            # Bland's rule also needs lowest basis index among tied rows.
            best = ratios[row]
            tied = np.where(np.abs(ratios - best) <= 1e-12)[0]
            row = int(min(tied, key=lambda i: basis[i]))
        _pivot(T, rhs, row, col, basis)
    return LPStatus.ITERATION_LIMIT, float("nan")


# ---------------------------------------------------------------------------
# Warm-started re-solves (the cutting-plane fast path)
# ---------------------------------------------------------------------------


def _dual_simplex(
    T: np.ndarray,
    rhs: np.ndarray,
    obj: np.ndarray,
    basis: np.ndarray,
    max_iter: int,
    frozen: Optional[List[int]] = None,
) -> LPStatus:
    """Restore primal feasibility of a dual-feasible tableau in place.

    The classic dual-simplex step: pick the most negative basic value,
    leave on that row, and enter the column minimizing the reduced-cost
    ratio (ties break to the lowest index, which keeps the pivot choice
    deterministic).  ``frozen`` columns (retired phase-1 artificials) are
    never eligible.  Returns OPTIMAL once every basic value is
    nonnegative, INFEASIBLE when a negative row has no negative entry —
    that row then certifies an empty feasible region regardless of the
    objective — and ITERATION_LIMIT when the pivot budget runs out
    (callers fall back to a cold solve).
    """
    for _ in range(max_iter):
        row = int(np.argmin(rhs))
        if rhs[row] >= -1e-9:
            return LPStatus.OPTIMAL
        rowvals = T[row]
        eligible = rowvals < -_PIVOT_EPS
        if frozen:
            eligible[frozen] = False
        if not eligible.any():
            return LPStatus.INFEASIBLE
        y = obj[basis]
        reduced = obj - y @ T
        # The previous solve left reduced >= -1e-9; clip the noise so the
        # ratio test never sees a (spuriously) negative numerator.
        np.maximum(reduced, 0.0, out=reduced)
        ratios = np.full(T.shape[1], np.inf)
        ratios[eligible] = reduced[eligible] / -rowvals[eligible]
        col = int(np.argmin(ratios))
        _pivot(T, rhs, row, col, basis)
    return LPStatus.ITERATION_LIMIT


class WarmSimplex:
    """A bounded LP whose tableau survives across cut-appending re-solves.

    The problem starts as ``min c.x : l <= x <= u`` and accumulates rows
    ``a.x <= b`` over time (the cutting-plane driver's access pattern).
    The first :meth:`solve` compiles bounds and rows exactly like
    :func:`simplex_solve` — same normalization, same two-phase pivots,
    same answers — but keeps the final tableau, basis and rhs.  Rows added
    afterwards are priced into the tableau directly (slack basic, basic
    columns eliminated), and the next :meth:`solve` resumes from the
    previous optimal basis via :func:`_dual_simplex` plus a primal polish
    pass, which typically costs a handful of pivots instead of a full
    re-solve.  Any non-optimal warm outcome falls back to the cold path,
    so results never depend on the warm machinery succeeding.
    """

    def __init__(
        self,
        n_vars: int,
        c: np.ndarray,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        max_iter: int = 20_000,
    ) -> None:
        self.n_vars = n_vars
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (n_vars,):
            raise ValueError(f"objective has shape {self.c.shape}, expected ({n_vars},)")
        self.lower = np.zeros(n_vars) if lower is None else np.asarray(lower, dtype=float)
        self.upper = (
            np.full(n_vars, np.inf) if upper is None else np.asarray(upper, dtype=float)
        )
        if np.any(np.isinf(self.lower)):
            raise ValueError("WarmSimplex requires finite lower bounds")
        self.max_iter = max_iter
        #: every row ever added, in original variable space (cold fallback)
        self._rows: List[np.ndarray] = []
        self._rhs: List[float] = []
        #: rows already priced into the live tableau
        self._compiled_rows = 0
        # live tableau state (None until an optimal cold solve built one)
        self._T: Optional[np.ndarray] = None
        self._trhs: Optional[np.ndarray] = None
        self._basis: Optional[np.ndarray] = None
        self._frozen: List[int] = []
        self._last: Optional[LPResult] = None

    # -- row accumulation ---------------------------------------------------

    def add_row(self, coeffs: Sequence[float], rhs: float) -> None:
        """Append the cut ``coeffs . x <= rhs``."""
        row = np.asarray(coeffs, dtype=float)
        if row.shape != (self.n_vars,):
            raise ValueError(f"row has shape {row.shape}, expected ({self.n_vars},)")
        self._rows.append(row)
        self._rhs.append(float(rhs))
        self._last = None

    # -- solving ------------------------------------------------------------

    def solve(self) -> Tuple[LPResult, bool]:
        """Solve the current LP; returns ``(result, warm_started)``."""
        if self._last is not None:
            return self._last, True
        if self._T is not None:
            result = self._warm_solve()
            if result is not None:
                self._last = result
                return result, True
            # warm resolve hit its pivot budget: rebuild from scratch
            self._reset_tableau()
        result = self._cold_solve()
        self._last = result
        return result, False

    # -- internals ----------------------------------------------------------

    def _reset_tableau(self) -> None:
        self._T = None
        self._trhs = None
        self._basis = None
        self._frozen = []
        self._compiled_rows = 0

    def _problem(self) -> LinearProgram:
        lp = LinearProgram(
            n_vars=self.n_vars,
            c=self.c.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
        )
        for row, rhs in zip(self._rows, self._rhs):
            lp.add_constraint(row, rhs)
        return lp

    def _cold_solve(self) -> LPResult:
        """From-scratch two-phase solve that leaves the tableau resumable.

        Runs the exact :func:`simplex_solve` pipeline (same
        :func:`_compile_standard_form`, same :func:`_two_phase_tableau`
        pivots), so the returned result is bit-for-bit what the cold
        reference produces.
        """
        A, b = self._problem().matrices()
        c = self.c.copy()
        A, b, shift, m = _compile_standard_form(A, b, c, self.lower, self.upper)
        self._compiled_rows = len(self._rows)
        if m == 0:
            if np.any(c < -_PIVOT_EPS):
                return LPResult(LPStatus.UNBOUNDED)
            return LPResult(
                LPStatus.OPTIMAL, x=shift.copy(), objective=float(self.c @ shift)
            )

        status, tableau = _two_phase_tableau(A, b, c, self.max_iter)
        if status is not LPStatus.OPTIMAL:
            return LPResult(status)
        T, rhs, basis, art_cols = tableau
        self._T, self._trhs, self._basis = T, rhs, basis
        self._frozen = art_cols
        return self._extract()

    def _warm_solve(self) -> Optional[LPResult]:
        """Price pending rows into the tableau and dual-resolve.

        Returns ``None`` when the dual pass ran out of pivots (caller
        rebuilds cold).
        """
        T, rhs, basis = self._T, self._trhs, self._basis
        assert T is not None and rhs is not None and basis is not None
        pending = range(self._compiled_rows, len(self._rows))
        if len(pending):
            m, total = T.shape
            k = len(pending)
            # k new rows, each with one fresh slack column appended.
            grown = np.zeros((m + k, total + k))
            grown[:m, :total] = T
            new_rhs = np.empty(m + k)
            new_rhs[:m] = rhs
            new_basis = np.empty(m + k, dtype=int)
            new_basis[:m] = basis
            for j, idx in enumerate(pending):
                row = np.zeros(total + k)
                row[: self.n_vars] = self._rows[idx]
                row[total + j] = 1.0
                r = self._rhs[idx] - float(self._rows[idx] @ self.lower)
                # Express the row in the current basis: subtract each basic
                # column's multiple (unit columns make this exact).
                coefs = row[new_basis[: m + j]]
                if np.any(coefs):
                    row[: total + k] -= coefs @ grown[: m + j]
                    r -= float(coefs @ new_rhs[: m + j])
                grown[m + j] = row
                new_rhs[m + j] = r
                new_basis[m + j] = total + j
            T, rhs, basis = grown, new_rhs, new_basis
            self._T, self._trhs, self._basis = T, rhs, basis
            self._compiled_rows = len(self._rows)

        obj = np.zeros(T.shape[1])
        obj[: self.n_vars] = self.c
        status = _dual_simplex(T, rhs, obj, basis, self.max_iter, frozen=self._frozen or None)
        if status is LPStatus.ITERATION_LIMIT:
            return None
        if status is not LPStatus.OPTIMAL:
            return LPResult(status)
        # Primal polish: usually returns immediately, but guards against
        # reduced-cost drift accumulated over many warm rounds.
        status, _ = _run_simplex(
            T, rhs, obj, basis, self.max_iter,
            frozen=set(self._frozen) if self._frozen else None,
        )
        if status is not LPStatus.OPTIMAL:
            return None if status is LPStatus.ITERATION_LIMIT else LPResult(status)
        return self._extract()

    def _extract(self) -> LPResult:
        T, rhs, basis = self._T, self._trhs, self._basis
        assert T is not None and rhs is not None and basis is not None
        x_full = np.zeros(T.shape[1])
        x_full[basis] = rhs
        x = x_full[: self.n_vars] + self.lower
        return LPResult(LPStatus.OPTIMAL, x=x, objective=float(self.c @ x))


def _two_phase_tableau(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int
) -> Tuple[LPStatus, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]]]:
    """The :func:`_two_phase` pipeline, returning the live tableau.

    Identical pivot sequence to :func:`_two_phase`; used by
    :class:`WarmSimplex` so warm re-solves can resume from the final
    basis.  Returns ``(status, (T, rhs, basis, art_cols))`` with the
    tableau ``None`` on non-optimal outcomes.
    """
    m, n = A.shape

    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    slack_sign = np.where(neg, -1.0, 1.0)

    n_art = int(neg.sum())
    total = n + m + n_art
    T = np.zeros((m, total))
    T[:, :n] = A
    T[np.arange(m), n + np.arange(m)] = slack_sign
    art_cols: List[int] = []
    k = 0
    basis = np.empty(m, dtype=int)
    for i in range(m):
        if neg[i]:
            col = n + m + k
            T[i, col] = 1.0
            art_cols.append(col)
            basis[i] = col
            k += 1
        else:
            basis[i] = n + i

    rhs = b.copy()

    if n_art:
        obj1 = np.zeros(total)
        obj1[art_cols] = 1.0
        status, val = _run_simplex(T, rhs, obj1, basis, max_iter)
        if status is not LPStatus.OPTIMAL:
            return (
                status if status is not LPStatus.UNBOUNDED else LPStatus.INFEASIBLE,
                None,
            )
        if val > 1e-7:
            return LPStatus.INFEASIBLE, None
        for i in range(m):
            if basis[i] in art_cols and rhs[i] <= 1e-9:
                pivot_col = next(
                    (j for j in range(n + m) if abs(T[i, j]) > _PIVOT_EPS), None
                )
                if pivot_col is not None:
                    _pivot(T, rhs, i, pivot_col, basis)
        art_set = set(art_cols)
        if any(bv in art_set for bv in basis):
            for i in range(m):
                if basis[i] in art_set:
                    T[i, :] = 0.0
                    T[i, basis[i]] = 1.0
                    rhs[i] = 0.0
        T[:, art_cols] = 0.0
        for i in range(m):
            if basis[i] in art_set:
                T[i, basis[i]] = 1.0

    obj2 = np.zeros(total)
    obj2[:n] = c
    status, _ = _run_simplex(
        T, rhs, obj2, basis, max_iter, frozen=set(art_cols) if n_art else None
    )
    if status is not LPStatus.OPTIMAL:
        return status, None
    return LPStatus.OPTIMAL, (T, rhs, basis, art_cols)
