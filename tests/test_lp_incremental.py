"""Incremental-vs-from-scratch LP parity: the warm path may never change answers.

Property tests drive random constraint streams through an
:class:`~repro.lp.incremental.IncrementalLP` (warm-started re-solves) and
its dense :class:`~repro.lp.problem.LinearProgram` twin (cold re-solves),
asserting identical statuses, identical optimal objectives, and — on the
HiGHS backend — bit-identical optimal points.  Infeasible, unbounded and
degenerate (Bland's-rule fallback) programs are covered explicitly, as is
the cutting-plane driver running both problem kinds side by side.
"""

import numpy as np
import pytest

from repro.lp import (
    IncrementalLP,
    LinearProgram,
    LPStatus,
    WarmSimplex,
    solve_lp,
    solve_with_cutting_planes,
)

METHODS = ("highs", "simplex")


def _random_pair(rng, n):
    c = rng.normal(size=n)
    upper = np.where(rng.random(n) < 0.5, rng.random(n) * 5 + 0.5, np.inf)
    inc = IncrementalLP(n, c, upper=upper)
    dense = LinearProgram(n_vars=n, c=c.copy(), upper=upper.copy())
    return inc, dense


def _assert_agree(inc, dense, method, context):
    ri = inc.solve(method=method)
    rd = solve_lp(dense, method=method)
    assert ri.status == rd.status, (context, method, ri.status, rd.status)
    if ri.ok:
        scale = max(1.0, abs(rd.objective))
        assert abs(ri.objective - rd.objective) <= 1e-7 * scale, (
            context,
            method,
            ri.objective,
            rd.objective,
        )
        if method == "highs":
            # Same matrices reach the same solver: bit-identical points.
            assert np.array_equal(ri.x, rd.x), context


#: one fixed stream seed per method (``hash(str)`` changes per process)
STREAM_SEEDS = {"highs": 2012, "simplex": 2013}


def _check_random_constraint_streams(method, seed):
    rng = np.random.default_rng(seed)
    for trial in range(25):
        n = int(rng.integers(3, 12))
        inc, dense = _random_pair(rng, n)
        _assert_agree(inc, dense, method, (trial, "empty"))
        for batch in range(int(rng.integers(1, 4))):
            for _ in range(int(rng.integers(1, 5))):
                row = rng.normal(size=n)
                row[rng.random(n) < 0.5] = 0.0
                rhs = float(rng.normal())
                inc.add_constraint(row, rhs)
                dense.add_constraint(row, rhs)
            _assert_agree(inc, dense, method, (trial, batch))


@pytest.mark.parametrize("method", METHODS)
def test_parity_over_random_constraint_streams(method):
    _check_random_constraint_streams(method, STREAM_SEEDS[method])


@pytest.mark.parametrize("method", METHODS)
def test_parity_pinned_stream_seed_15(method):
    """Seed 15 once broke HiGHS bit-identity (trial 14, batch 1): a re-solve
    answered from the previous optimum instead of solving the grown LP."""
    _check_random_constraint_streams(method, 15)


@pytest.mark.parametrize("method", METHODS)
def test_unbounded_then_bounded_then_infeasible(method):
    inc = IncrementalLP(2, np.array([-1.0, 0.0]))
    assert inc.solve(method=method).status is LPStatus.UNBOUNDED
    inc.add_constraint([1.0, 0.0], 3.0)
    res = inc.solve(method=method)
    assert res.ok and res.objective == pytest.approx(-3.0)
    inc.add_constraint([-1.0, 0.0], -10.0)  # x0 >= 10 contradicts x0 <= 3
    assert inc.solve(method=method).status is LPStatus.INFEASIBLE
    inc.add_constraint([0.0, 1.0], 1.0)  # still infeasible with more rows
    assert inc.solve(method=method).status is LPStatus.INFEASIBLE


def test_degenerate_bland_fallback_case():
    """Beale's cycling example: Dantzig stalls, the Bland switch resolves it.

    Both the cold reference and a warm re-solve (after appending a
    redundant cut) must find the known optimum -0.05.
    """
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    rows = [
        ([0.25, -60.0, -0.04, 9.0], 0.0),
        ([0.5, -90.0, -0.02, 3.0], 0.0),
        ([0.0, 0.0, 1.0, 0.0], 1.0),
    ]
    inc = IncrementalLP(4, c)
    dense = LinearProgram(n_vars=4, c=c.copy())
    for row, rhs in rows:
        inc.add_constraint(row, rhs)
        dense.add_constraint(row, rhs)
    ri = inc.solve(method="simplex")
    rd = solve_lp(dense, method="simplex")
    assert ri.ok and rd.ok
    assert ri.objective == pytest.approx(-0.05)
    assert rd.objective == pytest.approx(-0.05)
    # Warm resolve from the optimal basis after a non-binding cut.
    inc.add_constraint([1.0, 0.0, 0.0, 0.0], 100.0)
    dense.add_constraint([1.0, 0.0, 0.0, 0.0], 100.0)
    _assert_agree(inc, dense, "simplex", "beale+cut")
    assert inc.stats.warm_start_hits >= 1


def test_cutting_plane_driver_identical_cut_sets():
    """The driver admits the same cuts through either problem kind."""
    rng = np.random.default_rng(5)
    n = 6
    c = -np.ones(n)
    upper = rng.random(n) * 2 + 1
    targets = rng.random(n) * 0.5

    def oracle_for(log):
        def oracle(x):
            cuts = []
            for j in range(n):
                if x[j] > targets[j] + 1e-9:
                    row = np.zeros(n)
                    row[j] = 1.0
                    cuts.append((row, float(targets[j])))
            log.append(len(cuts))
            return cuts

        return oracle

    for method in METHODS:
        log_inc, log_dense = [], []
        inc = IncrementalLP(n, c.copy(), upper=upper.copy())
        dense = LinearProgram(n_vars=n, c=c.copy(), upper=upper.copy())
        out_inc = solve_with_cutting_planes(inc, oracle_for(log_inc), method=method)
        out_dense = solve_with_cutting_planes(
            dense, oracle_for(log_dense), method=method
        )
        assert out_inc.ok and out_dense.ok
        assert log_inc == log_dense
        assert (out_inc.rounds, out_inc.cuts_added) == (
            out_dense.rounds,
            out_dense.cuts_added,
        )
        assert out_inc.result.objective == pytest.approx(out_dense.result.objective)
        A_inc, b_inc = inc.matrices()
        A_dense, b_dense = dense.matrices()
        assert np.array_equal(A_inc, A_dense) and np.array_equal(b_inc, b_dense)


def test_incremental_lp_row_store_and_twin():
    lp = IncrementalLP(4, np.ones(4))
    lp.add_sparse_constraint([(2, 1.5), (0, -1.0), (2, 0.5)], 3.0)
    lp.add_constraint([0.0, 2.0, 0.0, -1.0], -1.0)
    assert lp.n_constraints == 2
    assert np.array_equal(lp.row(0), [-1.0, 0.0, 2.0, 0.0])
    A, b = lp.matrices()
    assert A.shape == (2, 4) and list(b) == [3.0, -1.0]
    twin = lp.to_linear_program()
    assert twin.n_constraints == 2
    A2, b2 = twin.matrices()
    assert np.array_equal(A, A2) and np.array_equal(b, b2)
    with pytest.raises(IndexError):
        lp.row(2)
    with pytest.raises(IndexError):
        lp.add_sparse_constraint([(7, 1.0)], 0.0)
    with pytest.raises(ValueError):
        lp.add_constraint([1.0, 2.0], 0.0)


def test_sparse_matrix_survives_growth():
    """Previously returned matrices must not see later appends."""
    lp = IncrementalLP(3, np.ones(3))
    lp.add_constraint([1.0, 0.0, 2.0], 1.0)
    first = lp.sparse_matrix()
    for i in range(40):  # force several capacity doublings
        lp.add_constraint([float(i + 1), 1.0, 0.0], float(i))
    assert first.shape == (1, 3)
    assert np.array_equal(first.toarray(), [[1.0, 0.0, 2.0]])
    assert lp.sparse_matrix().shape == (41, 3)


def test_warm_start_bookkeeping():
    lp = IncrementalLP(3, np.ones(3), upper=np.array([1.0, 2.0, 3.0]))
    lp.add_constraint([-1.0, -1.0, 0.0], -1.0)  # x0 + x1 >= 1
    first = lp.solve(method="highs")
    assert first.ok
    hits0 = lp.stats.warm_start_hits
    # Unchanged program: answered from the cached result.
    again = lp.solve(method="highs")
    assert again is first
    assert lp.stats.warm_start_hits == hits0 + 1
    # A row the optimum already satisfies still triggers a real re-solve,
    # whose point is bit-equal to a cold solve of the dense twin.
    lp.add_constraint([1.0, 1.0, 1.0], 100.0)
    resolved = lp.solve(method="highs")
    assert resolved.ok and resolved is not first
    cold = solve_lp(lp.to_linear_program(), method="highs")
    assert np.array_equal(resolved.x, cold.x)
    assert lp.stats.warm_start_hits == hits0 + 1
    # A violated row (x2 >= 0.5 while the optimum has x2 = 0) forces a
    # real re-solve.
    assert first.x is not None and first.x[2] == 0.0
    lp.add_constraint([0.0, 0.0, -1.0], -0.5)
    res = lp.solve(method="highs")
    assert res.ok and res is not first
    assert res.x is not None and res.x[2] == pytest.approx(0.5)
    assert lp.stats.solves == 4 and lp.stats.rows_added == 3


def test_warm_simplex_rejects_bad_rows():
    warm = WarmSimplex(3, np.ones(3))
    with pytest.raises(ValueError):
        warm.add_row([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        WarmSimplex(2, np.ones(2), lower=np.array([-np.inf, 0.0]))


def test_linear_program_matrices_cache():
    lp = LinearProgram(n_vars=2, c=np.ones(2))
    lp.add_constraint([1.0, 0.0], 1.0)
    A1, b1 = lp.matrices()
    A2, b2 = lp.matrices()
    assert A1 is A2 and b1 is b2  # cached until the next append
    lp.add_constraint([0.0, 1.0], 2.0)
    A3, b3 = lp.matrices()
    assert A3 is not A1 and A3.shape == (2, 2)
    assert list(b3) == [1.0, 2.0]


def test_matrices_cache_invalidated_across_backend_swap():
    """Regression: append-then-swap-backend must never serve stale matrices.

    The old memo keyed on ``len(rows)`` alone could hand backend B the
    matrices snapshotted for backend A *before* an ``add_constraint`` if a
    row list was swapped wholesale; the version-counter key closes that.
    Every registered always-available backend must see the fresh row.
    """
    lp = LinearProgram(n_vars=2, c=np.array([1.0, 1.0]))
    lp.add_constraint([-1.0, 0.0], -1.0)  # x1 >= 1
    first = solve_lp(lp, method="highs")
    assert first.objective == pytest.approx(1.0)
    lp.add_constraint([0.0, -1.0], -2.0)  # x2 >= 2, added after a solve
    for method in ("warm-tableau", "exact", "highs-sparse"):
        res = solve_lp(lp, method=method)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0), method


def _buffers(lp):
    """The four row-store buffers, as bytes."""
    A = lp.sparse_matrix()
    return (
        A.data.tobytes(),
        A.indices.tobytes(),
        A.indptr.tobytes(),
        np.asarray(lp.rhs, dtype=float).tobytes(),
    )


def _random_sparse_rows(rng, n, count):
    rows = []
    for _ in range(count):
        cols = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        rows.append((cols, rng.normal(size=len(cols)), float(rng.normal())))
    return rows


def test_add_rows_matches_row_by_row_appends():
    rng = np.random.default_rng(3)
    n = 9
    head = _random_sparse_rows(rng, n, 3)
    block = _random_sparse_rows(rng, n, 30)  # crosses several doublings
    by_row = IncrementalLP(n, np.ones(n))
    by_block = IncrementalLP(n, np.ones(n))
    for cols, vals, rhs in head:
        by_row.add_sparse_constraint(list(zip(cols.tolist(), vals)), rhs)
        by_block.add_sparse_constraint(list(zip(cols.tolist(), vals)), rhs)
    for cols, vals, rhs in block:
        by_row.add_sparse_constraint(list(zip(cols.tolist(), vals)), rhs)
    indptr = np.cumsum([0] + [len(cols) for cols, _, _ in block])
    by_block.add_rows(
        indptr,
        np.concatenate([cols for cols, _, _ in block]),
        np.concatenate([vals for _, vals, _ in block]),
        [rhs for _, _, rhs in block],
    )
    assert indptr[-1] + 3 > 16  # the block outgrew the initial capacity
    assert _buffers(by_block) == _buffers(by_row)
    assert by_block.n_constraints == by_row.n_constraints == 33
    assert by_block.stats.rows_added == by_row.stats.rows_added == 33
    res_block = by_block.solve(method="highs")
    res_row = by_row.solve(method="highs")
    assert res_block.status == res_row.status
    if res_row.ok:
        assert np.array_equal(res_block.x, res_row.x)


def test_add_rows_empty_block_is_a_no_op():
    lp = IncrementalLP(3, np.ones(3))
    lp.add_constraint([1.0, 0.0, 2.0], 1.0)
    before = _buffers(lp)
    lp.add_rows([0], [], [], [])
    assert _buffers(lp) == before
    assert lp.n_constraints == 1 and lp.stats.rows_added == 1


@pytest.mark.parametrize("bad_column", [-1, 3, 99])
def test_add_rows_rejects_out_of_range_columns(bad_column):
    lp = IncrementalLP(3, np.ones(3))
    lp.add_constraint([1.0, 0.0, 2.0], 1.0)
    before = _buffers(lp)
    with pytest.raises(IndexError):
        lp.add_rows([0, 2, 3], [0, 1, bad_column], [1.0, 2.0, 3.0], [0.0, 1.0])
    assert _buffers(lp) == before
    assert lp.n_constraints == 1 and lp.stats.rows_added == 1


def test_add_rows_rejects_inconsistent_blocks():
    lp = IncrementalLP(3, np.ones(3))
    with pytest.raises(ValueError):
        lp.add_rows([0, 2], [0, 1], [1.0, 2.0], [0.0, 1.0])  # rhs too long
    with pytest.raises(ValueError):
        lp.add_rows([0, 3], [0, 1], [1.0, 2.0], [0.0])  # indptr past indices
    with pytest.raises(ValueError):
        lp.add_rows([], [], [], [])  # no indptr at all
    assert lp.n_constraints == 0


@pytest.mark.parametrize("bad_column", [-1, 2])
def test_dense_sparse_constraint_rejects_out_of_range_columns(bad_column):
    """The dense twin range-checks like IncrementalLP: -1 must not wrap."""
    lp = LinearProgram(n_vars=2, c=np.ones(2))
    with pytest.raises(IndexError):
        lp.add_sparse_constraint([(bad_column, 2.0)], 1.0)
    assert lp.n_constraints == 0
    with pytest.raises(IndexError):
        IncrementalLP(2, np.ones(2)).add_sparse_constraint([(bad_column, 2.0)], 1.0)
