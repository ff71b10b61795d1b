"""Linear programming substrate.

Every LP solve goes through the :mod:`repro.lp.backends` registry — a
catalogue of :class:`~repro.lp.backends.LPBackendSpec` entries with
capability flags (``warm_start`` / ``sparse`` / ``exact`` /
``incremental``), looked up by name or alias via :func:`solve_lp`:

* ``"highs-sparse"`` (alias ``"highs"``) — scipy's HiGHS (production
  default), fed sparse CSC straight to the HiGHS core,
* ``"warm-tableau"`` (alias ``"simplex"``) — the from-scratch dense
  two-phase simplex in :mod:`repro.lp.simplex`, kept as an
  independently-tested reference with dual-simplex warm restarts,
* ``"exact"`` — a Fraction-arithmetic two-phase simplex whose verdicts
  come with :class:`~repro.lp.backends.ExactCertificate` proofs,
* ``"pulp-cbc"`` — COIN-OR CBC via PuLP, an independent conformance
  implementation (available only when ``pulp`` is installed).

:mod:`repro.lp.cutting_plane` provides the constraint-generation driver used
to solve the paper's exponential-size LP (1) with a shortest-path separation
oracle (the practical stand-in for the ellipsoid method cited in Theorem 1).

:mod:`repro.lp.incremental` is the fast path for that driver's access
pattern: :class:`IncrementalLP` stores rows sparsely (``O(nnz)`` cut
appends) and holds one warm-state session per backend — a dual-simplex
basis resume on ``"warm-tableau"``, a sparse CSC feed straight to the
HiGHS core on ``"highs-sparse"`` — while returning exactly the answers of the
dense cold path.
"""

from repro.lp.problem import LinearProgram, LPResult, LPStatus
from repro.lp.simplex import WarmSimplex, simplex_solve
from repro.lp.backends import (
    BackendUnavailableError,
    ExactCertificate,
    LPBackendSpec,
    UnknownBackendError,
    backend_names,
    certify_result,
    exact_solve_certified,
    get_backend,
    list_backends,
    register_backend,
    solve_lp,
)
from repro.lp.incremental import IncrementalLP, LPStats
from repro.lp.cutting_plane import (
    CuttingPlaneResult,
    cutting_plane_rounds,
    solve_with_cutting_planes,
)

__all__ = [
    "BackendUnavailableError",
    "CuttingPlaneResult",
    "ExactCertificate",
    "IncrementalLP",
    "LinearProgram",
    "LPBackendSpec",
    "LPResult",
    "LPStats",
    "LPStatus",
    "UnknownBackendError",
    "WarmSimplex",
    "backend_names",
    "certify_result",
    "cutting_plane_rounds",
    "exact_solve_certified",
    "get_backend",
    "list_backends",
    "register_backend",
    "simplex_solve",
    "solve_lp",
    "solve_with_cutting_planes",
]
