"""A fixed reference task that tells how fast the host runs right now.

On a shared host the same code runs 1.3-2x slower for seconds to minutes
at a time.  ``probe()`` times a fixed task built from no code of the
package under test, with the same mix of work as the solvers: a
pure-Python heap Dijkstra on a dict-of-lists graph and a small sparse LP
solved by scipy's HiGHS.  Measured on a shared 2-vCPU
x86_64 host, its slowdown during a slow episode matched that of the
``solve-exact`` solves within about 10%, where a dict-and-numpy task
read 1.5-2x too slow.

The workloads time the probe next to each unit of work and report the
unit's time times ``PROBE_NOMINAL_MS / probe``: what it would take on the
host running at the speed where the probe takes ``PROBE_NOMINAL_MS``
(``common.slot_times``).
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: the probe's time on a quiet 2-vCPU x86_64 host (Python 3.11, scipy 1.17)
PROBE_NOMINAL_MS = 5.0

_NODES = 400


def _graph() -> Dict[int, List[Tuple[int, float]]]:
    rng = random.Random(5)
    adj: Dict[int, List[Tuple[int, float]]] = {u: [] for u in range(_NODES)}
    for u in range(_NODES):
        for _ in range(4):
            v, w = rng.randrange(_NODES), rng.random()
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


def _lp() -> tuple:
    rng = np.random.default_rng(5)
    a = sparse.random(60, 120, density=0.08, random_state=rng, format="csr")
    a = a + sparse.eye(60, 120, format="csr")
    return -rng.random(120), a, np.ones(60)


_ADJ = _graph()
_C, _A, _B = _lp()


def _dijkstra(src: int) -> Dict[int, float]:
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def probe() -> float:
    """Run the reference task once; returns its wall time in ms.

    The collector is off while it runs, so the heap the workload built
    does not bill its collections to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _dijkstra(0)
        _dijkstra(1)
        linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")
        return 1000.0 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def probe_point(repeats: int = 5) -> float:
    """The median of ``repeats`` probes, for a point between long stages.

    A shared host's speed changes from one probe to the next, and the
    first probe after a stage of large arrays runs on caches that stage
    filled; the median reads the host's speed at that point.
    """
    return statistics.median(probe() for _ in range(repeats))
