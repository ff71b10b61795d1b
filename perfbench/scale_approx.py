"""``scale-approx``: the numpy-indexed tier at n = 10^5, build plus solve.

Each unit is one instance: ``scenarios.build_scenario_indexed`` then
``subsidies.solve_sne_greedy_indexed``.  A cycle runs the three families
in sequence; a run repeats whole cycles on the same instances.  An
instance's time is the median of its repeats, scaled by the median of the
host probes the run takes between the stages (``hostprobe.py``).  A
stage runs for seconds while the host's speed changes from one probe to
the next: scaling each stage by the probes around it made the repeats of
an instance spread more than leaving them unscaled.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional

from common import derive_seed, median, run_cycles
from hostprobe import PROBE_NOMINAL_MS, probe_point

FAMILIES = ("grid", "power-law", "augmented-cube")
N = 100_000
TINY_N = 2_000


class ScaleApprox:
    name = "scale-approx"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.scenarios import build_scenario_indexed
        from repro.subsidies import solve_sne_greedy_indexed

        self.n = TINY_N if tiny else N
        self.seeds = {fam: derive_seed(seed, fam, self.n) for fam in FAMILIES}
        # Warm the numpy/indexed code paths on a small instance.
        inst = build_scenario_indexed("grid", n=200, seed=seed)
        solve_sne_greedy_indexed(inst.ig, inst.root)
        probe_point()

    def _cycle(self, _k: int) -> Dict[str, Any]:
        from repro.scenarios import build_scenario_indexed
        from repro.subsidies import solve_sne_greedy_indexed

        latencies: List[float] = []
        probes: List[float] = []
        outputs: List[Dict[str, Any]] = []
        errors: List[str] = []
        clock = time.perf_counter
        for fam in FAMILIES:
            probes.append(probe_point())
            t0 = clock()
            paused = 0.0
            res = None
            try:
                inst = build_scenario_indexed(fam, n=self.n, seed=self.seeds[fam])
                t1 = clock()
                probes.append(probe_point())
                paused = clock() - t1
                res = solve_sne_greedy_indexed(inst.ig, inst.root)
            except Exception as exc:  # noqa: BLE001 - a failed instance is counted
                errors.append(f"{fam}: {exc!r}")
            latencies.append(1000.0 * (clock() - t0 - paused))
            if res is not None:
                cert = res.certificate
                outputs.append({
                    "family": fam,
                    "cost": res.cost,
                    "feasible": res.feasible,
                    "verified": res.verified,
                    "lower_bound": cert.lower_bound,
                    "relative_gap": cert.relative_gap,
                })
            inst = res = None
            gc.collect()
        busy = sum(latencies) / 1000.0
        return {
            "draw": 0,
            "units": len(latencies),
            "busy_s": busy,
            "solves": sum(1 for o in outputs if o["verified"]),
            "latencies_ms": latencies,
            "probes_ms": probes,
            "outputs": outputs,
            "errors": errors,
        }

    def summary(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        scale = PROBE_NOMINAL_MS / median([p for c in cycles for p in c["probes_ms"]])
        per_instance = [scale * median(ts) for ts in zip(*(c["latencies_ms"] for c in cycles))]
        ok = sum(c["solves"] for c in cycles) / sum(c["units"] for c in cycles)
        return {
            "solves_per_s": ok * len(per_instance) / (sum(per_instance) / 1000.0),
            "latency_ms_p50": median(per_instance),
        }

    def measure(self, seconds: float, hook: Optional[Callable] = None,
                min_cycles: int = 1) -> List[Dict[str, Any]]:
        return run_cycles(self._cycle, seconds, hook, min_cycles)

    def check(self, cycles: List[Dict[str, Any]], corrupt: bool = False) -> List[str]:
        """Verified, feasible, ``lower_bound <= cost``, same cost every cycle."""
        failures = [e for c in cycles for e in c["errors"]]
        outputs = [o for c in cycles for o in c["outputs"]]
        if corrupt and outputs:
            outputs[0] = {**outputs[0], "lower_bound": outputs[0]["cost"] + 1.0}
        costs: Dict[str, float] = {}
        for out in outputs:
            fam = out["family"]
            if not (out["verified"] and out["feasible"]):
                failures.append(f"{fam}: result not verified/feasible")
            if not out["lower_bound"] <= out["cost"]:
                failures.append(
                    f"{fam}: certificate lower bound {out['lower_bound']!r} > "
                    f"cost {out['cost']!r}"
                )
            prev = costs.setdefault(fam, out["cost"])
            if prev != out["cost"]:
                failures.append(f"{fam}: cost changed between cycles")
        return failures

    def e2e_extras(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        gaps = [o["relative_gap"] for c in cycles for o in c["outputs"]]
        return {"gap_rel_mean": sum(gaps) / len(gaps) if gaps else 0.0}

    def close(self) -> None:
        pass
