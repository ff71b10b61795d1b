"""Span tracer that times calls into the package's layers from outside.

The benchmark does not edit the package: :func:`install` replaces each
public layer function listed in :data:`LAYER_FUNCTIONS` with a wrapper that
records a span (key, duration, self time) and :func:`Installed.remove`
puts the originals back.  A span's *self time* is its duration minus the
time covered by the spans it directly caused, so summing self times over
every key never counts an interval twice.

Spans nest per thread (the serve daemon handles each connection on its
own thread).  Aggregates are kept per thread and merged on read, so the
hot path takes no lock.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: keys whose individual durations are kept (for percentiles)
SAMPLED_KEYS = (
    "subsidies.sne-lp1",
    "subsidies.sne-lp2",
    "subsidies.sne-lp3",
    "serve.handler",
)

#: keys whose raw (start, end, thread) spans are kept (request matching)
RAW_KEYS = ("serve.handler",)


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[dict] = []
        self._lock = threading.Lock()

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "agg": {}, "samples": {}, "raw": [], "counts": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, by: float = 1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + by

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, key: str, on_result: Optional[Callable] = None,
             span: bool = True) -> Callable:
        """``fn`` timed as a ``key`` span; ``on_result(tracer, result)`` counts.

        ``span=False`` only counts: the call's time stays with its caller.
        """
        tracer = self
        sampled = key in SAMPLED_KEYS
        raw = key in RAW_KEYS
        clock = time.perf_counter

        if not span:
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result

            counted.__wrapped__ = fn  # type: ignore[attr-defined]
            return counted

        def timed(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            stack = state["stack"]
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                agg = state["agg"].get(key)
                if agg is None:
                    agg = state["agg"][key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if sampled:
                    state["samples"].setdefault(key, []).append(dur)
                if raw:
                    state["raw"].append((key, start, end, threading.get_ident()))
            if on_result is not None:
                on_result(tracer, result)
            return result

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Merged aggregates: ``{"spans": {key: [calls, total_s, self_s]},
        "samples": {key: [s, ...]}, "raw": [...], "counts": {...}}``."""
        spans: Dict[str, List[float]] = {}
        samples: Dict[str, List[float]] = {}
        raw: List[Tuple[str, float, float, int]] = []
        counts: Dict[str, float] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for key, (calls, total, self_time) in list(state["agg"].items()):
                cur = spans.setdefault(key, [0, 0.0, 0.0])
                cur[0] += calls
                cur[1] += total
                cur[2] += self_time
            for key, values in list(state["samples"].items()):
                samples.setdefault(key, []).extend(values)
            raw.extend(state["raw"])
            for name, value in list(state["counts"].items()):
                counts[name] = counts.get(name, 0) + value
        return {"spans": spans, "samples": samples, "raw": raw, "counts": counts}


# ---------------------------------------------------------------------------
# The layer map: which public functions belong to which layer
# ---------------------------------------------------------------------------


def _count_cutting_plane(tracer: Tracer, result: Any) -> None:
    tracer.count("lp.cut_rounds", result.rounds)
    tracer.count("lp.cuts", result.cuts_added)


def _count_approx_rounds(tracer: Tracer, result: Any) -> None:
    tracer.count("subsidies.approx_rounds", result.rounds)


#: (module, attribute path, span key, on_result, span?) — a dotted attribute
#: path names a method on a class.  The key's first component is the layer.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    # api: serialization and the solve facade
    ("repro.api.serialize", "game_from_json", "api.deserialize", None, True),
    ("repro.api.serialize", "game_to_json", "api.serialize", None, True),
    ("repro.api.serialize", "report_to_json", "api.serialize", None, True),
    ("repro.api.serialize", "canonical_report_json", "api.canonical", None, True),
    ("repro.utils.hashing", "stable_hash", "api.canonical", None, True),
    ("repro.api.facade", "solve", "api.solve", None, True),
    # scenarios: instance generation
    ("repro.scenarios.families", "build_scenario", "scenarios.build", None, True),
    ("repro.scenarios.scale", "build_scenario_indexed", "scenarios.build", None, True),
    # games: target states (MST, shortest paths, Steiner) and the engine
    ("repro.games.broadcast", "BroadcastGame.mst_state", "games.target_state", None, True),
    ("repro.games.game", "NetworkDesignGame.default_state", "games.target_state", None, True),
    ("repro.games.multicast", "MulticastGame.default_state", "games.target_state", None, True),
    ("repro.games.weighted", "WeightedNetworkDesignGame.default_state",
     "games.target_state", None, True),
    ("repro.graphs.mst", "kruskal_mst_ids", "games.target_state", None, True),
    ("repro.games.engine", "BestResponseEngine.for_graph", "games.engine_build", None, True),
    ("repro.games.engine", "BestResponseEngine.bind", "games.engine_build", None, True),
    ("repro.games.engine", "_TreeBinding.scan", "games.scan", None, True),
    ("repro.games.engine", "_GeneralBinding.scan", "games.scan", None, True),
    ("repro.games.engine", "_RuleBinding.scan", "games.scan", None, True),
    ("repro.games.equilibrium", "check_equilibrium", "games.verify", None, True),
    # lp: row assembly and backend solves
    ("repro.lp.incremental", "IncrementalLP.add_sparse_constraint", "lp.assemble", None, True),
    ("repro.lp.incremental", "IncrementalLP.add_constraint", "lp.assemble", None, True),
    ("repro.lp.problem", "LinearProgram.add_sparse_constraint", "lp.assemble", None, True),
    ("repro.lp.problem", "LinearProgram.add_constraint", "lp.assemble", None, True),
    ("repro.lp.incremental", "IncrementalLP.solve", "lp.solve", None, True),
    ("repro.lp.backends.registry", "solve_lp", "lp.solve", None, True),
    ("repro.lp.cutting_plane", "solve_with_cutting_planes", "lp.cutting_plane",
     _count_cutting_plane, False),
    # subsidies: solver orchestration
    ("repro.subsidies.sne_lp", "solve_sne_cutting_plane_lp1", "subsidies.sne-lp1", None, True),
    ("repro.subsidies.sne_lp", "solve_sne_polynomial_lp2", "subsidies.sne-lp2", None, True),
    ("repro.subsidies.sne_lp", "solve_sne_broadcast_lp3", "subsidies.sne-lp3", None, True),
    ("repro.subsidies.theorem6", "theorem6_subsidies", "subsidies.theorem6", None, True),
    ("repro.subsidies.approx", "solve_sne_greedy", "subsidies.approx-greedy", None, True),
    ("repro.subsidies.approx", "solve_sne_greedy_indexed", "subsidies.approx_solve",
     _count_approx_rounds, True),
    # runtime: sweep runner, result cache, job records
    ("repro.runtime.runner", "SweepRunner.run", "runtime.run", None, True),
    ("repro.runtime.cache", "solve_job_key", "runtime.key", None, True),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache_get", None, True),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache_put", None, True),
    ("repro.runtime.runner", "job_record", "runtime.record", None, True),
    ("repro.runtime.runner", "dump_job_record", "runtime.record", None, True),
    # serve: the daemon core (HTTP-free)
    ("repro.serve.service", "SolverService.solve_json", "serve.handler", None, True),
    ("repro.serve.service", "InstanceLRU.intern", "serve.intern", None, True),
)


class Installed:
    """The replacements made by :func:`install`, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install(tracer: Tracer) -> Installed:
    """Wrap every function of :data:`LAYER_FUNCTIONS` (importing its module).

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name (``from x import f``), so callers see the
    wrapper no matter how they imported it.
    """
    done = Installed()
    for module_name, path, key, on_result, span in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                new: Any = classmethod(tracer.wrap(orig.__func__, key, on_result, span))
            elif isinstance(orig, staticmethod):
                new = staticmethod(tracer.wrap(orig.__func__, key, on_result, span))
            else:
                new = tracer.wrap(orig, key, on_result, span)
            done._set(cls, attr, new)
            continue
        orig = getattr(module, path)
        new = tracer.wrap(orig, key, on_result, span)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    done._set(mod, name, new)
    return done


def layer_self_ms(snapshot: dict) -> Dict[str, float]:
    """Self time per layer (first key component), in milliseconds."""
    out: Dict[str, float] = {}
    for key, (_calls, _total, self_time) in snapshot["spans"].items():
        layer = key.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + 1000.0 * self_time
    return out
