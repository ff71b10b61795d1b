"""Constraint generation ("cutting planes") for exponential-size LPs.

Theorem 1 of the paper solves SNE through an LP with one constraint per
player-deviation *path* — exponentially many — and notes it is solvable in
polynomial time via the ellipsoid method given a separation oracle.  The
standard practical counterpart is constraint generation: solve a relaxation
with few rows, ask the oracle for violated constraints at the optimum, add
them and repeat.  The oracle here is the same one the paper describes
(a shortest-path computation per player).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lp.backends import solve_lp
from repro.lp.incremental import IncrementalLP
from repro.lp.problem import LinearProgram, LPResult, LPStatus

#: A cut is ``(coefficient row, rhs)`` meaning ``row . x <= rhs``.
Cut = Tuple[np.ndarray, float]

#: Oracle: given the current LP optimum, return violated cuts (empty = done).
SeparationOracle = Callable[[np.ndarray], Sequence[Cut]]


@dataclass
class CuttingPlaneResult:
    """Final LP result plus convergence bookkeeping."""

    result: LPResult
    rounds: int
    cuts_added: int
    converged: bool

    @property
    def ok(self) -> bool:
        return self.converged and self.result.ok


#: One round of the loop: ``(round number, LP result, violated cuts)``;
#: ``violated`` is None when the relaxation was not solved to optimality.
Round = Tuple[int, LPResult, Optional[List[Cut]]]


def cutting_plane_rounds(
    problem: Union[LinearProgram, IncrementalLP],
    oracle: SeparationOracle,
    method: str = "highs",
    max_rounds: int = 200,
) -> Iterator[Round]:
    """The cutting-plane loop, one ``(round, result, violated)`` at a time.

    Each round solves the relaxation and asks ``oracle`` for the cuts its
    optimum violates.  The cuts are added when the consumer asks for the
    next round, so a consumer that stops early leaves them out.  The loop
    ends after a solve that is not optimal (``violated`` is None), after a
    round with no violated cut, or after ``max_rounds`` rounds.
    """
    incremental = isinstance(problem, IncrementalLP)
    for round_idx in range(1, max_rounds + 1):
        if incremental:
            result = problem.solve(method=method)
        else:
            result = solve_lp(problem, method=method)
        if result.status is not LPStatus.OPTIMAL:
            yield round_idx, result, None
            return
        assert result.x is not None
        violated: List[Cut] = list(oracle(result.x))
        yield round_idx, result, violated
        if not violated:
            return
        for row, rhs in violated:
            problem.add_constraint(row, rhs)


def solve_with_cutting_planes(
    problem: Union[LinearProgram, IncrementalLP],
    oracle: SeparationOracle,
    method: str = "highs",
    max_rounds: int = 200,
) -> CuttingPlaneResult:
    """Iteratively solve ``problem``, adding oracle cuts until none violate.

    ``method`` is any :mod:`repro.lp.backends` registry name or alias; the
    relaxation re-solves each round go through that backend uniformly.

    The ``problem`` object is mutated (rows accumulate), which lets callers
    inspect the final working LP — the ``--certify`` path exact-solves
    exactly this accumulated relaxation.  Raises no exception on
    non-convergence; check :attr:`CuttingPlaneResult.converged`.

    An :class:`~repro.lp.incremental.IncrementalLP` problem takes the fast
    path: cut rows append in O(nnz) and each round's re-solve warm-starts
    from the previous one (resumed simplex basis / sparse HiGHS re-solve)
    instead of rebuilding dense matrices from scratch.  The admissible cuts
    and the returned result are the same either way — only the solve path
    changes.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    cuts_added = 0
    last: Optional[LPResult] = None
    for round_idx, last, violated in cutting_plane_rounds(
        problem, oracle, method, max_rounds
    ):
        if not violated:
            converged = violated is not None
            return CuttingPlaneResult(last, round_idx, cuts_added, converged)
        cuts_added += len(violated)
    assert last is not None
    return CuttingPlaneResult(last, max_rounds, cuts_added, converged=False)
