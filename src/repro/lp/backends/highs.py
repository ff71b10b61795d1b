"""The ``highs-sparse`` backend: scipy's HiGHS, fed sparse.

The production default.  The cold dense path is what ``solve_lp`` always
did; the incremental session feeds the same solver from the sparse row
store:

* every re-solve of a grown program runs HiGHS on the whole program, so
  its optimum is bit-identical to a cold solve of the dense twin (a
  previous optimum that already satisfies the new rows is still optimal,
  but need not be the point a cold solve returns);
* a rowless LP with strictly positive costs is answered analytically at
  the lower-bound vertex (bit-for-bit what HiGHS returns);
* otherwise the HiGHS core is driven directly through handles captured
  once from scipy's private glue (same library, same options, same
  matrices — bit-identical answers to the public ``linprog`` path), with
  ``linprog`` as the drift-safe fallback.

The cold dense path enters the core through the same helper
(:func:`_solve_core`), so dense and sparse programs see one HiGHS entry
and ``linprog`` only runs when scipy's internals drift.

Every path runs HiGHS with presolve off: on the subsidy LPs it removes
almost nothing yet costs about half of each LP (2) solve, at unchanged
dual-simplex iteration counts (``docs/lp-backends.md``, "HiGHS
configuration").  The public ``linprog`` calls pass the same setting, so
the cold path, the fallback and the direct path agree bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.lp.problem import LinearProgram, LPResult, LPStatus

_SCIPY_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
}

#: the HiGHS options of every public ``linprog`` call (see the module docstring)
_LINPROG_OPTIONS = {"presolve": False}


def _capture_highs_direct():
    """Bind HiGHS core handles once, skipping scipy's per-call pipeline.

    ``scipy.optimize.linprog`` spends a large, problem-size-independent
    slice of each call parsing arguments, re-validating options and
    rebuilding solver state.  The cutting-plane loop calls with the same
    (validated, canonical) structures every round, so the fast path feeds
    the HiGHS core directly: one prebuilt ``HighsOptions`` carrying
    exactly the values scipy's ``method="highs"`` path sets with
    ``presolve=False`` (dual simplex strategy, output off), the CSC
    arrays handed over in one ``passModel`` call, then ``run``.  Same
    library, same options, same matrices — bit-identical answers
    (``tests/test_highs_handoff.py`` asserts this against the public
    ``linprog`` path).  Returns ``None`` when scipy's private layout
    changed; callers then fall back to ``linprog``.
    """
    try:
        from scipy.optimize import _linprog_highs as glue
        from scipy.optimize._highspy import _core as core

        options = core.HighsOptions()
        # Exactly the non-default values _highs_wrapper applies for
        # scipy's method="highs" with presolve=False (everything else it
        # leaves at default).
        options.presolve = "off"
        options.highs_debug_level = int(glue.HighsDebugLevel.kHighsDebugLevelNone)
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = int(glue.s_c.SimplexStrategy.kSimplexStrategyDual)
        return {
            "core": core,
            "version": _core_version(core),
            "inf": glue.kHighsInf,
            "to_scipy": glue._highs_to_scipy_status_message,
            "options": options,
            "colwise": int(core.MatrixFormat.kColwise),
            "minimize": int(core.ObjSense.kMinimize),
        }
    except Exception:  # pragma: no cover - exercised only on scipy drift
        return None


def _core_version(core) -> Optional[str]:
    try:
        return (
            f"{core.HIGHS_VERSION_MAJOR}.{core.HIGHS_VERSION_MINOR}."
            f"{core.HIGHS_VERSION_PATCH}"
        )
    except AttributeError:  # pragma: no cover - exercised only on scipy drift
        return None


_HIGHS_DIRECT = _capture_highs_direct()

#: version of the HiGHS library scipy bundles, read from the captured core
#: (``None`` when scipy's internals drift).  LP (2)'s optimal vertex
#: depends on how this library pivots, so benchmark records carry it.
HIGHS_VERSION: Optional[str] = (
    _HIGHS_DIRECT["version"] if _HIGHS_DIRECT is not None else None
)


def _solve_core(
    direct: dict,
    c: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    A,
    rhs: np.ndarray,
) -> LPResult:
    """One HiGHS solve of ``min c x, A x <= rhs, lb <= x <= ub`` (see above).

    ``A`` is a CSC matrix and the bounds already carry HiGHS's infinity.
    Raises on anything the core rejects; callers fall back to ``linprog``.
    """
    core = direct["core"]
    inf = direct["inf"]
    m, n = A.shape
    if A.nnz >= 2**31:
        raise OverflowError("HiGHS indexes the matrix with 32-bit integers")
    highs = core._Highs()
    if highs.passOptions(direct["options"]) == core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the prebuilt options")
    # One call hands the numpy arrays over; filling HighsLp fields
    # instead copies them element by element.  An empty integrality
    # array is rejected, so every column is marked continuous.
    status = highs.passModel(
        n,
        m,
        A.nnz,
        direct["colwise"],
        direct["minimize"],
        0.0,
        c,
        lb,
        ub,
        np.full(m, -inf),
        rhs,
        A.indptr[:-1].astype(np.int32),
        A.indices.astype(np.int32),
        A.data,
        np.zeros(n, dtype=np.int32),
    )
    if status == core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the model")
    highs.run()
    model_status = highs.getModelStatus()
    if model_status != core.HighsModelStatus.kOptimal:
        scipy_status, _msg = direct["to_scipy"](
            model_status, highs.modelStatusToString(model_status)
        )
        return LPResult(_SCIPY_STATUS.get(scipy_status, LPStatus.INFEASIBLE))
    solution = highs.getSolution()
    info = highs.getInfo()
    x = np.asarray(solution.col_value, dtype=float)
    return LPResult(LPStatus.OPTIMAL, x=x, objective=float(info.objective_function_value))


def _core_bounds(direct: dict, lower: np.ndarray, upper: np.ndarray):
    """``(lb, ub)`` with infinities replaced by HiGHS's own."""
    inf = direct["inf"]
    return np.where(np.isinf(lower), -inf, lower), np.where(np.isinf(upper), inf, upper)


def _linprog(c, A, b, lower, upper) -> LPResult:
    """The public ``linprog`` solve: the fallback when scipy's internals drift."""
    res = linprog(
        c,
        A_ub=A,
        b_ub=b,
        bounds=list(zip(lower, upper)),
        method="highs",
        options=_LINPROG_OPTIONS,
    )
    status = _SCIPY_STATUS.get(res.status, LPStatus.INFEASIBLE)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status)
    x = np.asarray(res.x, dtype=float)
    return LPResult(LPStatus.OPTIMAL, x=x, objective=float(res.fun))


def solve_dense(problem: LinearProgram, max_iter: int = 20_000) -> LPResult:
    """One cold HiGHS solve of a dense :class:`LinearProgram`."""
    A, b = problem.matrices()
    direct = _HIGHS_DIRECT
    if direct is not None:
        try:
            lb, ub = _core_bounds(direct, problem.lower, problem.upper)
            return _solve_core(direct, problem.c, lb, ub, sp.csc_matrix(A), b)
        except Exception:  # scipy drift safety net
            pass
    return _linprog(
        problem.c,
        A if A.size else None,
        b if b.size else None,
        problem.lower,
        problem.upper,
    )


class HighsSession:
    """Warm state for one :class:`~repro.lp.incremental.IncrementalLP`."""

    def __init__(self, spec, inc) -> None:
        self._inc = inc
        #: (lb, ub) with infinities replaced for the HiGHS core, built once
        self._highs_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def solve(
        self, cached: Optional[Tuple[int, LPResult]], max_iter: int = 20_000
    ) -> Tuple[LPResult, bool]:
        inc = self._inc
        # Rowless LP with strictly positive costs: the optimum is exactly
        # the lower-bound vertex (unique, and what HiGHS returns bit-for-bit
        # — LP (1)'s first round hits this every solve).
        if inc._m == 0 and np.all(inc.c > 0.0) and np.all(np.isfinite(inc.lower)):
            x = inc.lower.copy()
            return LPResult(LPStatus.OPTIMAL, x=x, objective=float(inc.c @ x)), False
        direct = _HIGHS_DIRECT
        if direct is not None:
            try:
                return self._solve_direct(direct), False
            except Exception:  # scipy drift safety net
                pass
        result = _linprog(
            inc.c,
            inc.sparse_matrix() if inc._m else None,
            np.asarray(inc._rhs, dtype=float) if inc._m else None,
            inc.lower,
            inc.upper,
        )
        return result, False

    def _solve_direct(self, direct: dict) -> LPResult:
        """One HiGHS solve through the captured core handles (see above)."""
        inc = self._inc
        if self._highs_bounds is None:
            # Bounds are fixed at construction; replace infinities once.
            self._highs_bounds = _core_bounds(direct, inc.lower, inc.upper)
        lb, ub = self._highs_bounds
        A = inc.sparse_matrix().tocsc()
        return _solve_core(direct, inc.c, lb, ub, A, np.asarray(inc._rhs, dtype=float))
