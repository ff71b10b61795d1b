"""Cross-backend conformance: every LP backend, every game family, LP(1)+LP(2).

The backend registry's contract is that *which* LP engine answers is an
implementation detail: any registered backend must reproduce the same
subsidy verdicts on the same instances.  This suite pins that down three
ways:

* **matrix** — every registered backend x all five game families x the
  LP (1) and LP (2) solvers, agreeing with the default backend's optimal
  budget within the backend's documented tolerance;
* **determinism** — per backend, repeat solves are byte identical;
* **corpus replay** — the pinned hard instances in
  ``tests/conformance_corpus/`` (augmented-cube, lower-bound-cycle; see
  ``tools/gen_conformance_corpus.py``) reproduce their sha256 digest on
  the default backend and their budget everywhere else.

Unavailable backends (``pulp-cbc`` without ``pulp``) are *skipped*, not
failed — the CI conformance job runs one leg with pulp installed and one
without, so both the adapter and the skip path stay exercised.

Tolerances: alternate optima at degenerate vertices make cross-backend
*vertex* equality impossible (HiGHS and the tableau legitimately return
different optimal corners), so cross-backend assertions compare optimal
*objectives*; byte-level identity is asserted per backend.  The exact
backend's tolerance covers its knife-edge fallback: when a float-built LP
is exactly infeasible by one ulp it answers for the ``2**-30``-relaxed LP,
shifting the optimum by up to ``||duals||_1 * 2**-30`` (observed ~5e-9;
bounded here by 5e-8).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import api
from repro.games.broadcast import BroadcastGame
from repro.games.directed import DirectedNetworkDesignGame
from repro.games.game import NetworkDesignGame
from repro.games.multicast import MulticastGame
from repro.games.weighted import WeightedNetworkDesignGame
from repro.graphs.generators import random_tree_plus_chords
from repro.lp import backend_names, get_backend, list_backends
from repro.runtime.spec import generate_instance

CORPUS_DIR = Path(__file__).parent / "conformance_corpus"

SOLVERS = ("sne-cutting-plane", "sne-poly")

#: |budget - reference budget| allowed per backend (None = byte-identical
#: canonical reports, the reference backend itself)
TOLERANCE = {
    "highs-sparse": None,
    "warm-tableau": 1e-7,
    "exact": 5e-8,  # strict, or the 2**-30-relaxed LP on knife-edge cells
    "pulp-cbc": 1e-6,  # CBC rounds harder than HiGHS
}

#: conformance rows collected for the CI artifact (see _report_sink)
_REPORT_ROWS = []


def _require(spec):
    """Skip (not fail) the cell when the backend's dependency is missing."""
    if not spec.available:
        pytest.skip(f"backend {spec.name!r} unavailable (needs {spec.requires})")


def _canonical_bytes(report) -> bytes:
    payload = api.serialize.canonical_report_json(report)
    return json.dumps(payload, sort_keys=True).encode()


@pytest.fixture(scope="module", autouse=True)
def _report_sink():
    """Write the collected matrix to ``$REPRO_CONFORMANCE_REPORT`` (CI artifact)."""
    yield
    out = os.environ.get("REPRO_CONFORMANCE_REPORT")
    if not out:
        return
    Path(out).write_text(
        json.dumps(
            {
                "kind": "backend-conformance-report",
                "backends": backend_names(),
                "available": [s.name for s in list_backends(available_only=True)],
                "rows": _REPORT_ROWS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


# ---------------------------------------------------------------------------
# the backend x family x solver matrix
# ---------------------------------------------------------------------------


def _family_zoo():
    """One small instance per game family, every family needing subsidies.

    Sized so the Fraction-arithmetic backend stays affordable on LP (2)
    (its tableau has ``players x nodes`` variables); seed 9 picked so all
    five families need a *nonzero* optimal budget — a zero optimum would
    let a broken backend conform vacuously.
    """
    g = random_tree_plus_chords(7, 4, seed=9, chord_factor=1.1)
    others = [u for u in g.nodes if u != 0]
    demands = [1.0 + (i % 3) * 0.5 for i in range(5)]
    return {
        "broadcast": BroadcastGame(g, root=0),
        "multicast": MulticastGame(g, 0, others[:4]),
        "general": NetworkDesignGame(g, [(u, 0) for u in others[:5]]),
        "weighted": WeightedNetworkDesignGame(g, [(u, 0) for u in others[:5]], demands),
        "directed": DirectedNetworkDesignGame(g, [(u, 0) for u in others[:5]]),
    }


@pytest.fixture(scope="module")
def zoo():
    return _family_zoo()


@pytest.fixture(scope="module")
def reference(zoo):
    """Default-backend reports: the matrix's comparison baseline."""
    return {
        (family, solver): api.solve(game, solver)
        for family, game in zoo.items()
        for solver in SOLVERS
    }


@pytest.mark.parametrize("backend", sorted(TOLERANCE))
@pytest.mark.parametrize("solver", SOLVERS)
def test_matrix_all_families(backend, solver, zoo, reference):
    spec = get_backend(backend, require_available=False)
    _require(spec)
    for family, game in zoo.items():
        ref = reference[(family, solver)]
        report = api.solve(game, solver, method=backend)
        assert report.feasible and report.verified, (backend, family, solver)
        assert report.metadata["backend"] == spec.name
        assert ref.budget_used > 1e-9  # a trivial zoo would prove nothing
        tol = TOLERANCE[backend]
        if tol is None:
            assert _canonical_bytes(report) == _canonical_bytes(ref)
        else:
            assert abs(report.budget_used - ref.budget_used) <= tol, (
                backend,
                family,
                solver,
                report.budget_used,
                ref.budget_used,
            )
        _REPORT_ROWS.append(
            {
                "check": "matrix",
                "backend": spec.name,
                "family": family,
                "solver": solver,
                "budget": report.budget_used,
                "reference": ref.budget_used,
            }
        )


@pytest.mark.parametrize("backend", sorted(TOLERANCE))
def test_per_backend_determinism(backend, zoo):
    """The same backend must answer byte-identically on repeat solves."""
    spec = get_backend(backend, require_available=False)
    _require(spec)
    game = zoo["general"]
    for solver in SOLVERS:
        first = api.solve(game, solver, method=backend)
        again = api.solve(game, solver, method=backend)
        assert _canonical_bytes(first) == _canonical_bytes(again), (backend, solver)


def test_certified_matrix_cells(zoo, reference):
    """``certify=True`` re-derives the float verdicts as exact rationals.

    LP (2) certifies the full LP, so the certificate optimum must match
    the float budget (to the exact backend's documented bound); LP (1)
    certifies the final cutting-plane *relaxation*, whose exact optimum
    can only be at or below the converged float budget.
    """
    game = zoo["broadcast"]
    lp2 = api.solve(game, "sne-poly", certify=True)
    cert = lp2.metadata["exact_certificate"]
    assert cert["status"] == "OPTIMAL"
    assert abs(cert["objective_float"] - lp2.budget_used) <= 5e-8
    lp1 = api.solve(game, "sne-cutting-plane", certify=True)
    cert1 = lp1.metadata["exact_certificate"]
    assert cert1["status"] == "OPTIMAL"
    assert cert1["objective_float"] <= lp1.budget_used + 5e-8
    assert cert1["subject"]["formulation"] == "lp1-relaxation"


# ---------------------------------------------------------------------------
# pinned hard-instance corpus replay
# ---------------------------------------------------------------------------


def _corpus_cases():
    cases = [json.loads(p.read_text()) for p in sorted(CORPUS_DIR.glob("*.json"))]
    assert cases, f"conformance corpus missing from {CORPUS_DIR}"
    return cases


@pytest.mark.parametrize(
    "case", _corpus_cases(), ids=lambda case: case["name"]
)
def test_corpus_replay(case):
    game = generate_instance(case["model"], case["n"], case["seed"], **case["params"])
    expected = case["expected"]
    assert api.get_solver(case["solver"]).version == expected["solver_version"], (
        "solver version changed — regenerate the corpus "
        "(PYTHONPATH=src python tools/gen_conformance_corpus.py) after review"
    )
    for spec in list_backends():
        if spec.exact and not case["exact_ok"]:
            continue  # exact pivoting unaffordable on this cell (documented)
        if not spec.available:
            continue  # the matrix tests cover the skip message
        report = api.solve(game, case["solver"], method=spec.name)
        assert report.feasible and report.verified, (case["name"], spec.name)
        if TOLERANCE[spec.name] is None:
            digest = hashlib.sha256(_canonical_bytes(report)).hexdigest()
            assert digest == expected["sha256"], (
                f"{case['name']}: canonical report drifted on {spec.name} — "
                "if intentional, regenerate the corpus"
            )
        else:
            assert abs(report.budget_used - expected["budget"]) <= TOLERANCE[spec.name], (
                case["name"],
                spec.name,
            )
        _REPORT_ROWS.append(
            {
                "check": "corpus",
                "backend": spec.name,
                "case": case["name"],
                "budget": report.budget_used,
                "reference": expected["budget"],
            }
        )
