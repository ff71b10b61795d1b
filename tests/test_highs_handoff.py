"""The ``highs-sparse`` hand-off: direct core path against public ``linprog``.

The session drives the HiGHS core through handles captured from scipy's
private glue and hands it the CSC arrays in one call.  These tests pin
what that path promises: the same answers, byte for byte, as
``linprog(..., method="highs", options={"presolve": False})`` on the
programs the solvers really build, the same status mapping on infeasible
and unbounded programs, byte-identical reports when the direct path is
unavailable or the core rejects the model, and a live direct path
whenever scipy ships its core module.  Dense programs (``solve_dense``)
and sparse sessions enter the core through the same helper.
"""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from repro import api
from repro.lp import IncrementalLP, LPStatus
from repro.lp.backends import highs
from repro.scenarios import build_scenario

#: one genuinely family-specific instance per game family (LP (1)/(2))
FAMILY_PARAMS = {
    "broadcast": {},
    "multicast": {"terminals": "half"},
    "general": {"pairs": "random"},
    "weighted": {"demands": "random"},
    "directed": {"orientation": "oneway-chords"},
}


def _linprog_reference(inc):
    res = linprog(
        inc.c,
        A_ub=inc.sparse_matrix(),
        b_ub=np.asarray(inc.rhs, dtype=float),
        bounds=list(zip(inc.lower, inc.upper)),
        method="highs",
        options={"presolve": False},
    )
    return highs._SCIPY_STATUS.get(res.status, LPStatus.INFEASIBLE), res


def _direct(inc):
    return highs.HighsSession(None, inc)._solve_direct(highs._HIGHS_DIRECT)


@pytest.fixture()
def captured_programs(monkeypatch):
    """Every program a ``highs-sparse`` session is opened for."""
    programs = []
    init = highs.HighsSession.__init__

    def spy(self, spec, inc):
        programs.append(inc)
        init(self, spec, inc)

    monkeypatch.setattr(highs.HighsSession, "__init__", spy)
    return programs


def _family_games(family):
    """Instances of ``family``; at least two need subsidies (LP (1) cuts)."""
    params = FAMILY_PARAMS[family]
    return [
        build_scenario(topology, n=12, seed=seed, game=family, **params)
        for topology, seed in (("isp-like", 3), ("isp-like", 5), ("augmented-cube", 5))
    ]


needs_direct = pytest.mark.skipif(
    highs._HIGHS_DIRECT is None, reason="scipy's HiGHS core module is unavailable"
)


@needs_direct
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_direct_path_matches_linprog_without_presolve(family, captured_programs):
    """LP (1)'s final relaxation, LP (2) and LP (3): same bytes, same status."""
    for game in _family_games(family):
        api.solve(game, "sne-lp1")
        api.solve(game, "sne-lp2")
    # LP (3) needs a broadcast target: the family's default instance lies
    # inside the broadcast overlap.
    api.solve(build_scenario("augmented-cube", n=12, seed=3, game=family), "sne-lp3")
    programs = [inc for inc in captured_programs if inc.n_constraints]
    assert len(programs) >= 6
    for inc in programs:
        result = _direct(inc)
        status, ref = _linprog_reference(inc)
        assert result.status is status
        assert result.status is LPStatus.OPTIMAL
        assert result.x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
        assert result.objective == float(ref.fun)


def _infeasible_lp():
    inc = IncrementalLP(2, c=np.ones(2))
    inc.add_constraint([1.0, 1.0], -1.0)  # x >= 0 cannot sum below zero
    return inc


def _unbounded_lp():
    inc = IncrementalLP(2, c=np.array([-1.0, 0.0]))
    inc.add_constraint([-1.0, 1.0], 1.0)
    return inc


@needs_direct
@pytest.mark.parametrize(
    "build,expected",
    [(_infeasible_lp, LPStatus.INFEASIBLE), (_unbounded_lp, LPStatus.UNBOUNDED)],
)
def test_status_mapping_matches_linprog(build, expected):
    inc = build()
    status, _ref = _linprog_reference(inc)
    assert status is expected
    assert _direct(inc).status is expected
    assert inc.solve("highs").status is expected
    assert highs.solve_dense(inc.to_linear_program()).status is expected


def _reports(solvers_by_family):
    out = []
    for family, solvers in solvers_by_family.items():
        game = _family_games(family)[2]
        for solver in solvers:
            report = api.solve(game, solver)
            payload = api.serialize.canonical_report_json(report)
            out.append(json.dumps(payload, sort_keys=True))
    return out


def test_reports_identical_without_the_direct_path(monkeypatch):
    solvers = {
        "broadcast": ["sne-lp1", "sne-lp2", "sne-lp3", "approx-greedy", "aon-exact"],
        "multicast": ["sne-lp1", "sne-lp2"],
        "general": ["sne-lp1", "sne-lp2", "approx-primal-dual"],
        "weighted": ["sne-lp1", "sne-lp2"],
        "directed": ["sne-lp1", "sne-lp2"],
    }
    direct = _reports(solvers)
    monkeypatch.setattr(highs, "_HIGHS_DIRECT", None)
    fallback = _reports(solvers)
    assert direct == fallback


class _FailingPassModel:
    """A HiGHS instance whose ``passModel`` raises; all else is the real one."""

    def __init__(self, highs_obj):
        self._highs = highs_obj

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, *args):
        raise RuntimeError("injected passModel failure")


class _CoreWithFailingPassModel:
    """The captured core module, handing out :class:`_FailingPassModel`."""

    def __init__(self, core):
        self._core = core

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        return _FailingPassModel(self._core._Highs())


@needs_direct
def test_pass_model_failure_falls_back_with_identical_reports(monkeypatch):
    """A core that rejects the model mid-call: both paths fall back to linprog."""
    sparse = {
        "broadcast": ["sne-lp1", "sne-lp2", "sne-lp3"],
        "general": ["sne-lp1", "sne-lp2"],
        "directed": ["sne-lp2"],
    }
    dense = {"broadcast": ["approx-greedy", "aon-exact"], "weighted": ["approx-greedy"]}
    expected = (_reports(sparse), _reports(dense))

    fallbacks = []

    def counting_linprog(*args, **kwargs):
        fallbacks.append(type(kwargs["A_ub"]))
        return linprog(*args, **kwargs)

    monkeypatch.setitem(
        highs._HIGHS_DIRECT, "core", _CoreWithFailingPassModel(highs._HIGHS_DIRECT["core"])
    )
    monkeypatch.setattr(highs, "linprog", counting_linprog)
    assert _reports(sparse) == expected[0]
    sparse_fallbacks = len(fallbacks)
    assert sparse_fallbacks and all(t is not np.ndarray for t in fallbacks)
    assert _reports(dense) == expected[1]
    assert np.ndarray in fallbacks[sparse_fallbacks:]


def test_highs_version_comes_from_the_captured_core():
    if highs._HIGHS_DIRECT is None:
        assert highs.HIGHS_VERSION is None
    else:
        assert highs.HIGHS_VERSION == highs._HIGHS_DIRECT["core"]._Highs().version()


def test_direct_path_is_live_when_core_imports(monkeypatch):
    """A silently dead direct path would fall back and lose the speed."""
    pytest.importorskip("scipy.optimize._highspy._core")
    assert highs._HIGHS_DIRECT is not None

    def no_fallback(*args, **kwargs):
        raise AssertionError("the session fell back to linprog")

    monkeypatch.setattr(highs, "linprog", no_fallback)
    inc = IncrementalLP(3, c=np.array([1.0, 2.0, 0.5]), upper=np.full(3, 4.0))
    inc.add_constraint([-1.0, -1.0, 0.0], -1.0)
    inc.add_constraint([0.0, -1.0, -1.0], -2.0)
    result = inc.solve("highs")
    assert result.ok
    assert result.objective == pytest.approx(2.0)
