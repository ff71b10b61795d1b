"""``solve-exact``: the library path, JSON in, report JSON out, one thread.

Each unit is one (instance, solver) pair pushed through
``api.serialize.game_from_json`` -> ``api.solve`` -> ``report_to_json``.
A cycle solves one instance set: every topology x plan row, drawn from
``(seed, draw)``.  Cycles take turns over ``DRAWS`` draws, so a run
averages over several instance sets and still repeats each one.  The host
probe runs before every unit, and a slot's time is the median of its
repeats, each scaled by its probe (``common.slot_times``).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

from common import derive_seed, harrell_davis_median, run_cycles, slot_times
from hostprobe import probe

TOPOLOGIES = ("grid", "power-law", "isp-like", "augmented-cube")

#: (game family, n, wrapper params, solvers).  Multicast keeps ``terminals``
#: at "half" and n <= 24: with the default "all" the Steiner target runs
#: Dreyfus-Wagner over every node (see README.md, known defect).
PLAN = (
    ("broadcast", 48, {}, ("sne-lp1", "sne-lp2", "sne-lp3")),
    ("broadcast", 200, {}, ("sne-lp1", "sne-lp3")),
    ("general", 32, {"pairs": "random"}, ("sne-lp1", "sne-lp2")),
    ("weighted", 32, {"demands": "random"}, ("sne-lp1", "sne-lp2")),
    ("directed", 32, {"orientation": "oneway-chords"}, ("sne-lp1", "sne-lp2")),
    ("multicast", 16, {"terminals": "half"}, ("sne-lp1", "sne-lp2")),
)

#: LP(1)/LP(2)/LP(3) budget agreement, relative to max(1, |budget|).  The
#: separation oracle accepts a deviation within ``LP_TOL`` (1e-7) of
#: improving, so LP(1)'s optimum may undercut LP(2)'s by a multiple of it
#: (measured: 1.96e-7 on a grid broadcast n=48 instance); 1e-6 is the
#: tolerance ``tests/test_sne_lp.py`` uses for the same comparison.  The
#: largest disagreement seen is printed with every run.
AGREE_TOL = 1e-6

#: instance sets a run takes turns over
DRAWS = 6

TINY_PLAN = (
    ("broadcast", 10, {}, ("sne-lp1", "sne-lp2", "sne-lp3")),
    ("general", 10, {"pairs": "random"}, ("sne-lp1", "sne-lp2")),
)


def _solve(unit: Dict[str, Any]) -> Dict[str, Any]:
    from repro import api
    from repro.api import serialize

    game = serialize.game_from_json(unit["text"])
    report = api.solve(game, unit["solver"])
    return serialize.report_to_json(report)


def _budgets(outputs: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Budget per solver, per instance and cycle, from (cycle, output) pairs."""
    budgets: Dict[str, Dict[str, float]] = {}
    for k, out in outputs:
        budgets.setdefault(f"{out['label']} (cycle {k})", {})[out["solver"]] = out["budget"]
    return budgets


def _disagreements(budgets: Dict[str, Dict[str, float]]) -> List[tuple]:
    """(instance, largest |budget - LP(1) budget|, LP(1) budget) per instance."""
    out = []
    for label, by_solver in budgets.items():
        ref = by_solver.get("sne-lp1")
        if ref is not None:
            out.append((label, max(abs(b - ref) for b in by_solver.values()), ref))
    return out


class SolveExact:
    name = "solve-exact"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.topologies = TOPOLOGIES[:1] if tiny else TOPOLOGIES
        self.plan = TINY_PLAN if tiny else PLAN
        self.draws = {0: self._units(0)}
        self.paired = False
        # First calls pay lazy initialisation (backend capture, registry
        # imports); users pay it once per process, so it belongs to set-up.
        for unit in self.draws[0][:3]:
            _solve(unit)
            probe()

    def _units(self, draw: int) -> List[Dict[str, Any]]:
        from repro.api import serialize
        from repro.scenarios import build_scenario

        units = []
        for topo in self.topologies:
            for family, n, params, solvers in self.plan:
                inst_seed = derive_seed(self.seed, draw, topo, family, n)
                game = build_scenario(topo, n=n, seed=inst_seed, game=family, **params)
                text = json.dumps(serialize.game_to_json(game))
                label = f"{draw}/{topo}/{family}/n{n}"
                for solver in solvers:
                    units.append({"label": label, "solver": solver, "text": text})
        return units

    def _prepare(self, k: int) -> tuple:
        draw = (k // 2 if self.paired else k) % DRAWS
        if draw not in self.draws:
            self.draws[draw] = self._units(draw)
        return draw, self.draws[draw]

    def _cycle(self, prepared: tuple) -> Dict[str, Any]:
        draw, units = prepared
        latencies: List[float] = []
        probes: List[float] = []
        outputs: List[Dict[str, Any]] = []
        errors: List[str] = []
        clock = time.perf_counter
        for unit in units:
            probes.append(probe())
            t0 = clock()
            try:
                out = _solve(unit)
            except Exception as exc:  # noqa: BLE001 - a failed solve is counted
                errors.append(f"{unit['label']} x {unit['solver']}: {exc!r}")
                out = None
            latencies.append(1000.0 * (clock() - t0))
            if out is not None:
                profile = out["metadata"].get("profile") or {}
                outputs.append({
                    "label": unit["label"],
                    "solver": unit["solver"],
                    "budget": out["budget_used"],
                    "verified": out["verified"],
                    "dijkstra_calls": profile.get("dijkstra_calls", 0),
                    "players_batched": profile.get("players_batched", 0),
                })
        busy = sum(latencies) / 1000.0
        return {
            "draw": draw,
            "units": len(latencies),
            "busy_s": busy,
            "solves": sum(1 for o in outputs if o["verified"]),
            "latencies_ms": latencies,
            "probes_ms": probes,
            "outputs": outputs,
            "errors": errors,
        }

    def summary(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        """Throughput is the verified share of the units over the sum of the
        slot times; latency is the Harrell-Davis median of the slot times."""
        slots = slot_times(cycles)
        ok = sum(c["solves"] for c in cycles) / sum(c["units"] for c in cycles)
        return {
            "solves_per_s": ok * len(slots) / (sum(slots) / 1000.0),
            "latency_ms_p50": harrell_davis_median(slots),
        }

    def measure(self, seconds: float, hook: Optional[Callable] = None,
                min_cycles: int = 1) -> List[Dict[str, Any]]:
        """Cycles until ``seconds``; with a tracing ``hook``, cycles 2j and
        2j+1 solve the same draw, so traced and untraced cycles compare."""
        self.paired = hook is not None
        return run_cycles(self._cycle, seconds, hook, min_cycles, self._prepare)

    def check(self, cycles: List[Dict[str, Any]], corrupt: bool = False) -> List[str]:
        """Every report verified; LP(1) = LP(2) (= LP(3)) budgets on each
        instance, in every cycle that solved it."""
        failures = [e for c in cycles for e in c["errors"]]
        outputs = [(k, o) for k, c in enumerate(cycles) for o in c["outputs"]]
        if corrupt and outputs:
            k, first = outputs[0]
            outputs[0] = (k, {**first, "budget": first["budget"] + 1e-3})
        for _k, out in outputs:
            if not out["verified"]:
                failures.append(f"{out['label']} x {out['solver']}: report not verified")
        for label, diff, ref in _disagreements(_budgets(outputs)):
            if diff > AGREE_TOL * max(1.0, abs(ref)):
                failures.append(f"{label}: budgets differ from sne-lp1 {ref!r} by {diff:.3g}")
        return failures

    def e2e_extras(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        outputs = [(k, o) for k, c in enumerate(cycles) for o in c["outputs"]]
        diffs = [diff for _label, diff, _ref in _disagreements(_budgets(outputs))]
        return {"lp_budget_max_diff": max(diffs, default=0.0)}

    def layer_extras(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        outputs = [o for c in cycles for o in c["outputs"]]
        units = max(1, sum(c["units"] for c in cycles))
        return {
            "games.dijkstra_calls": sum(o["dijkstra_calls"] for o in outputs) / units,
            "games.players_batched": sum(o["players_batched"] for o in outputs) / units,
        }

    def close(self) -> None:
        pass
