"""Tests for the LP substrate: simplex vs HiGHS, cutting planes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import (
    LinearProgram,
    LPStatus,
    cutting_plane_rounds,
    simplex_solve,
    solve_lp,
    solve_with_cutting_planes,
)


def _lp(c, rows, rhs, lower=None, upper=None):
    lp = LinearProgram(n_vars=len(c), c=np.array(c, float), lower=lower, upper=upper)
    for row, b in zip(rows, rhs):
        lp.add_constraint(np.array(row, float), b)
    return lp


class TestProblemContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(n_vars=2, c=np.array([1.0]))

    def test_row_shape_validation(self):
        lp = LinearProgram(n_vars=2, c=np.zeros(2))
        with pytest.raises(ValueError):
            lp.add_constraint(np.array([1.0]), 0.0)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(
                n_vars=1, c=np.zeros(1), lower=np.array([2.0]), upper=np.array([1.0])
            )

    def test_sparse_constraint(self):
        lp = LinearProgram(n_vars=4, c=np.zeros(4))
        lp.add_sparse_constraint([(0, 1.0), (3, -2.0), (0, 0.5)], 7.0)
        A, b = lp.matrices()
        assert A[0].tolist() == [1.5, 0.0, 0.0, -2.0]
        assert b[0] == 7.0

    def test_empty_matrices(self):
        lp = LinearProgram(n_vars=3, c=np.zeros(3))
        A, b = lp.matrices()
        assert A.shape == (0, 3)
        assert b.shape == (0,)


class TestSimplexBasics:
    def test_simple_2d(self):
        # max x+y s.t. x+2y<=4, 3x+y<=6 -> min -(x+y); optimum (8/5, 6/5).
        lp = _lp([-1, -1], [[1, 2], [3, 1]], [4, 6])
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(-(8 / 5 + 6 / 5))

    def test_degenerate_vertex(self):
        lp = _lp([-1, 0], [[1, 0], [1, 0], [0, 1]], [1, 1, 1])
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(-1.0)

    def test_unbounded(self):
        lp = _lp([-1, 0], [[0, 1]], [1])
        assert simplex_solve(lp).status is LPStatus.UNBOUNDED

    def test_infeasible(self):
        # x <= -1 with x >= 0.
        lp = _lp([1], [[1]], [-1])
        assert simplex_solve(lp).status is LPStatus.INFEASIBLE

    def test_negative_rhs_feasible(self):
        # x >= 2 encoded as -x <= -2; minimize x -> 2.
        lp = _lp([1], [[-1]], [-2])
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(2.0)

    def test_upper_bounds(self):
        lp = _lp([-1, -1], [], [], upper=np.array([1.0, 2.0]))
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(-3.0)

    def test_lower_bound_shift(self):
        lp = _lp([1, 1], [[-1, -1]], [-5], lower=np.array([1.0, 1.0]))
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(5.0)

    def test_no_constraints_min_at_lower(self):
        lp = _lp([2, 3], [], [], lower=np.array([1.0, 2.0]))
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(8.0)

    def test_no_constraints_unbounded(self):
        lp = _lp([-1], [], [])
        assert simplex_solve(lp).status is LPStatus.UNBOUNDED

    def test_equality_via_two_rows(self):
        # x + y == 3 and min x -> x=0, y=3 with y <= 10.
        lp = _lp([1, 0], [[1, 1], [-1, -1]], [3, -3], upper=np.array([10.0, 10.0]))
        res = simplex_solve(lp)
        assert res.ok
        assert res.objective == pytest.approx(0.0)
        assert res.x[0] + res.x[1] == pytest.approx(3.0)


class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_lps_agree(self, seed):
        """Simplex and HiGHS agree on random bounded-feasible LPs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 2.0, size=n)  # feasible interior point
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        upper = np.full(n, 10.0)  # keep it bounded
        lp1 = _lp(c, A, b, upper=upper)
        lp2 = _lp(c, A, b, upper=upper)
        r_highs = solve_lp(lp1, method="highs")
        r_simplex = solve_lp(lp2, method="simplex")
        assert r_highs.ok and r_simplex.ok
        assert r_simplex.objective == pytest.approx(r_highs.objective, abs=1e-6)

    def test_infeasible_agreement(self):
        rows, rhs = [[1.0], [-1.0]], [1.0, -2.0]  # x<=1 and x>=2
        assert solve_lp(_lp([1], rows, rhs), "highs").status is LPStatus.INFEASIBLE
        assert solve_lp(_lp([1], rows, rhs), "simplex").status is LPStatus.INFEASIBLE

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_lp(_lp([1], [], []), method="ellipsoid")


class TestCuttingPlanes:
    def test_converges_on_box(self):
        # min -x - y over the unit box, described only through the oracle.
        lp = _lp([-1, -1], [], [], upper=np.array([5.0, 5.0]))

        def oracle(x):
            cuts = []
            if x[0] > 1 + 1e-9:
                cuts.append((np.array([1.0, 0.0]), 1.0))
            if x[1] > 1 + 1e-9:
                cuts.append((np.array([0.0, 1.0]), 1.0))
            return cuts

        out = solve_with_cutting_planes(lp, oracle)
        assert out.ok
        assert out.result.objective == pytest.approx(-2.0)
        assert out.cuts_added == 2

    def test_no_cuts_needed(self):
        lp = _lp([1, 1], [], [])
        out = solve_with_cutting_planes(lp, lambda x: [])
        assert out.ok
        assert out.rounds == 1
        assert out.cuts_added == 0

    def test_max_rounds(self):
        lp = _lp([0.0], [], [], upper=np.array([1.0]))
        # Oracle always returns a (redundant) cut: never converges.
        out = solve_with_cutting_planes(
            lp, lambda x: [(np.array([1.0]), 2.0)], max_rounds=3
        )
        assert not out.converged
        assert out.rounds == 3

    def test_max_rounds_below_one_is_a_value_error(self):
        # A caller's bad option (serve answers it 400), not an internal fault.
        lp = _lp([0.0], [], [], upper=np.array([1.0]))
        with pytest.raises(ValueError, match="max_rounds"):
            solve_with_cutting_planes(lp, lambda x: [], max_rounds=0)

    def test_rounds_are_yielded_before_their_cuts_are_added(self):
        lp = _lp([0.0], [], [], upper=np.array([1.0]))
        cut = (np.array([1.0]), 2.0)
        seen = []
        for round_idx, result, violated in cutting_plane_rounds(
            lp, lambda x: [cut], max_rounds=3
        ):
            seen.append((round_idx, len(lp.rows), violated == [cut]))
            if round_idx == 2:
                break  # round 2's cut is never added
        assert seen == [(1, 0, True), (2, 1, True)]
        assert len(lp.rows) == 1

    def test_infeasible_cut(self):
        lp = _lp([1.0], [], [], upper=np.array([1.0]))

        def oracle(x):
            if x[0] >= -0.5:  # force x <= -1: infeasible with x >= 0
                return [(np.array([1.0]), -1.0)]
            return []

        out = solve_with_cutting_planes(lp, oracle)
        assert not out.ok
        assert out.result.status is LPStatus.INFEASIBLE

    def test_simplex_backend(self):
        lp = _lp([-1.0], [], [], upper=np.array([3.0]))
        out = solve_with_cutting_planes(
            lp, lambda x: [(np.array([1.0]), 1.0)] if x[0] > 1 + 1e-9 else [], method="simplex"
        )
        assert out.ok
        assert out.result.objective == pytest.approx(-1.0)
