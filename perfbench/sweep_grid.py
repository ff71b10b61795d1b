"""``sweep-grid``: many small cells through ``SweepRunner(jobs=2)``.

One cycle is a cold pass into a fresh ``ResultCache`` followed by a warm
pass over the same grid, each rendering the ``--json-out`` bytes.  Each
cycle runs the grid drawn from ``(seed, draw)``; cycles take turns over
``DRAWS`` draws, so a run averages over several grids and still repeats
each one.  The unit of the latency figures is one cold-pass job, timed
from the start of its pass to the moment the runner hands its outcome
over.  The host probe runs before, between and after the passes; each
figure is the median of a draw's repeats, scaled by the mean of the
probes around its pass (``common.slot_times``).
"""

from __future__ import annotations

import hashlib
import io
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from common import WORK_DIR, derive_seed, median, run_cycles, slot_times
from hostprobe import probe_point

MODELS = ["grid", "power-law", "isp-like", "augmented-cube"]
SIZES = [16, 24, 32, 48, 60]
SOLVERS = ["sne-lp1", "sne-lp3", "theorem6", "approx-greedy"]
JOBS = 2
#: grids a run takes turns over
DRAWS = 8


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepGrid:
    name = "sweep-grid"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.paired = False
        self.draws = {0: self._jobs(0)}
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
        probe_point()

    def _jobs(self, draw: int) -> List[Any]:
        from repro.runtime import SweepSpec

        return SweepSpec(
            solvers=SOLVERS[:2] if self.tiny else SOLVERS,
            models=MODELS[:2] if self.tiny else MODELS,
            sizes=[8] if self.tiny else SIZES,
            count=1,
            seed=derive_seed(self.seed, draw),
        ).expand()

    def _pass(self, jobs: List[Any], cache_dir: str,
              latencies: Optional[List[float]]) -> Dict[str, Any]:
        from repro.runtime import ResultCache, SweepRunner

        clock = time.perf_counter
        start = clock()

        def progress(_outcome: Any, _done: int, _total: int) -> None:
            if latencies is not None:
                latencies.append(1000.0 * (clock() - start))

        result = SweepRunner(cache=ResultCache(cache_dir), jobs=JOBS, progress=progress).run(jobs)
        buf = io.StringIO()
        result.write_json(buf)
        return {"wall": clock() - start, "result": result, "bytes": buf.getvalue()}

    def _prepare(self, k: int) -> tuple:
        draw = (k // 2 if self.paired else k) % DRAWS
        if draw not in self.draws:
            self.draws[draw] = self._jobs(draw)
        return draw, self.draws[draw]

    def _cycle(self, prepared: tuple) -> Dict[str, Any]:
        draw, jobs = prepared
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        latencies: List[float] = []
        try:
            before = probe_point()
            cold = self._pass(jobs, cache_dir, latencies)
            between = probe_point()
            warm = self._pass(jobs, cache_dir, None)
            after = probe_point()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        errors: List[str] = []
        busy = dijkstra = batched = 0
        for outcome in cold["result"]:
            busy += outcome.elapsed_seconds
            if not outcome.ok:
                errors.append(f"{outcome.job.label}: {outcome.status} {outcome.error}")
            elif not (outcome.report or {}).get("verified"):
                errors.append(f"{outcome.job.label}: report not verified")
            profile = (outcome.report or {}).get("metadata", {}).get("profile") or {}
            dijkstra += profile.get("dijkstra_calls", 0)
            batched += profile.get("players_batched", 0)
        if warm["result"].cache_hits != len(warm["result"]):
            errors.append(
                f"warm pass served {warm['result'].cache_hits} of "
                f"{len(warm['result'])} jobs from the cache"
            )
        cold_jobs = len(cold["result"])
        return {
            "draw": draw,
            "units": cold_jobs + len(warm["result"]),
            "busy_s": cold["wall"] + warm["wall"],
            "latencies_ms": latencies,
            "cold_jobs": cold_jobs,
            "cold_ok": cold_jobs - len(errors),
            "cold_wall_s": cold["wall"],
            "warm_jobs": len(warm["result"]),
            # cold wall, warm wall and cold job latency p50, and the probe
            # that scales each; ``probes_ms`` feeds ``host_slowdown``
            "pass_ms": [1000.0 * cold["wall"], 1000.0 * warm["wall"], median(latencies)],
            "pass_probes_ms": [(before + between) / 2, (between + after) / 2,
                               (before + between) / 2],
            "probes_ms": [before, between, after],
            "worker_busy_s": busy,
            "dijkstra_calls": dijkstra,
            "players_batched": batched,
            # digests, not the documents: a run must not hold every cycle's
            # JSON, or peak RSS would grow with the number of cycles
            "digests": (_digest(cold["bytes"]), _digest(warm["bytes"])),
            "errors": errors,
        }

    def measure(self, seconds: float, hook: Optional[Callable] = None,
                min_cycles: int = 1) -> List[Dict[str, Any]]:
        """Cycles until ``seconds``; with a tracing ``hook``, cycles 2j and
        2j+1 run the same draw, so traced and untraced cycles compare."""
        self.paired = hook is not None
        return run_cycles(self._cycle, seconds, hook, min_cycles, self._prepare)

    def check(self, cycles: List[Dict[str, Any]], corrupt: bool = False) -> List[str]:
        """Every job ok and verified; cold and warm ``--json-out`` bytes equal."""
        failures = [e for c in cycles for e in c["errors"]]
        digests = [c["digests"] for c in cycles]
        if corrupt and digests:
            digests[0] = (digests[0][0], _digest("corrupted"))
        for i, (cold, warm) in enumerate(digests):
            if cold != warm:
                failures.append(f"cycle {i}: cold and warm sweep JSON differ")
        return failures

    def summary(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        """Cold-pass jobs per second and median job latency, each draw's
        figures the median of its scaled repeats."""
        ok = sum(c["cold_ok"] for c in cycles) / sum(c["cold_jobs"] for c in cycles)
        cold_ms, _warm_ms, p50_ms = self._passes(cycles)
        return {
            "solves_per_s": ok * self._jobs_per_draw(cycles, "cold_jobs") / (sum(cold_ms) / 1000.0),
            "latency_ms_p50": median(p50_ms),
        }

    @staticmethod
    def _passes(cycles: List[Dict[str, Any]]) -> tuple:
        """Per draw: (cold pass ms, warm pass ms, cold job latency p50 ms)."""
        flat = slot_times(cycles, "pass_ms", "pass_probes_ms")
        return flat[0::3], flat[1::3], flat[2::3]

    @staticmethod
    def _jobs_per_draw(cycles: List[Dict[str, Any]], key: str) -> int:
        """Jobs of one pass, summed over the draws the run took turns over."""
        return sum({c["draw"]: c[key] for c in cycles}.values())

    def e2e_extras(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        _cold_ms, warm_ms, _p50_ms = self._passes(cycles)
        jobs = self._jobs_per_draw(cycles, "warm_jobs")
        return {"warm_solves_per_s": jobs / (sum(warm_ms) / 1000.0)}

    def layer_extras(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        cold_jobs = max(1, sum(c["cold_jobs"] for c in cycles))
        busy = sum(c["worker_busy_s"] for c in cycles)
        cold_wall = sum(c["cold_wall_s"] for c in cycles)
        return {
            "games.dijkstra_calls": sum(c["dijkstra_calls"] for c in cycles) / cold_jobs,
            "games.players_batched": sum(c["players_batched"] for c in cycles) / cold_jobs,
            "runtime.worker_busy_ms": 1000.0 * busy / cold_jobs,
            # worker capacity of the cold passes not spent solving, per job
            "runtime.parent_overhead_ms": 1000.0 * (JOBS * cold_wall - busy) / cold_jobs,
        }

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
