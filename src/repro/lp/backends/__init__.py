"""Pluggable LP backends: registry + the four built-in implementations.

One layer below :mod:`repro.api`'s solver registry sits this one: every
way the repo can solve ``min c.x : A x <= b, l <= x <= u`` is an
:class:`LPBackendSpec` with capability flags, and everything above —
:class:`~repro.lp.incremental.IncrementalLP`, the cutting-plane driver,
the LP(1)/LP(2)/LP(3) subsidy solvers, the approx tier, the CLI and the
serve daemon — selects backends by name or capability instead of
hard-coded branches.

Built-ins registered on import:

==============  =======================  ==============================
name            aliases                  what it is
==============  =======================  ==============================
``highs-sparse``  ``highs``              scipy's HiGHS, sparse CSC fed
                                         straight to the solver core
``warm-tableau``  ``simplex``            the repo's two-phase tableau
                                         simplex with dual-simplex warm
                                         restarts
``exact``         ``fraction``,          Fraction-arithmetic two-phase
                  ``rational``           simplex; emits
                                         :class:`ExactCertificate`
``pulp-cbc``      ``cbc``                COIN-OR CBC via PuLP
                                         (conformance; needs ``pulp``)
==============  =======================  ==============================

The legacy spellings ``method="highs"`` / ``method="simplex"`` remain
valid everywhere a backend name is accepted.
"""

from __future__ import annotations

from repro.lp.backends import cbc as _cbc
from repro.lp.backends import exact as _exact
from repro.lp.backends import highs as _highs
from repro.lp.backends import tableau as _tableau
from repro.lp.backends.exact import (
    RHS_RELAX,
    ExactCertificate,
    certify_result,
    exact_solve_certified,
    exact_solve_certified_auto,
)
from repro.lp.backends.registry import (
    BackendUnavailableError,
    LPBackendSpec,
    UnknownBackendError,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
    solve_lp,
)

HIGHS_SPARSE = register_backend(
    LPBackendSpec(
        name="highs-sparse",
        description="scipy HiGHS fed sparse CSC straight to the solver core",
        solve=_highs.solve_dense,
        warm_start=True,
        sparse=True,
        incremental=True,
        aliases=("highs",),
        session_factory=_highs.HighsSession,
    )
)

WARM_TABLEAU = register_backend(
    LPBackendSpec(
        name="warm-tableau",
        description="in-repo two-phase tableau simplex with dual-simplex warm restarts",
        solve=_tableau.solve_dense,
        warm_start=True,
        incremental=True,
        aliases=("simplex",),
        session_factory=_tableau.TableauSession,
    )
)

EXACT = register_backend(
    LPBackendSpec(
        name="exact",
        description="Fraction-arithmetic two-phase simplex emitting exact certificates",
        solve=_exact.exact_solve,
        exact=True,
        aliases=("fraction", "rational"),
    )
)

PULP_CBC = register_backend(
    LPBackendSpec(
        name="pulp-cbc",
        description="COIN-OR CBC via PuLP (independent conformance implementation)",
        solve=_cbc.solve_dense,
        aliases=("cbc",),
        requires="pulp",
    )
)

__all__ = [
    "BackendUnavailableError",
    "EXACT",
    "ExactCertificate",
    "HIGHS_SPARSE",
    "LPBackendSpec",
    "PULP_CBC",
    "RHS_RELAX",
    "UnknownBackendError",
    "WARM_TABLEAU",
    "backend_names",
    "certify_result",
    "exact_solve_certified",
    "exact_solve_certified_auto",
    "get_backend",
    "list_backends",
    "register_backend",
    "solve_lp",
]
