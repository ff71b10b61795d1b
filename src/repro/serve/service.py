"""Transport-independent core of the solver daemon.

:class:`SolverService` is everything the daemon does minus HTTP: it can be
driven directly from tests (no sockets), from the stdlib HTTP front end
(:mod:`repro.serve.app`), or from any future transport.  One request flows
through four layers, cheapest first:

1. **result cache** — the request's content address
   (:func:`repro.runtime.cache.solve_job_key`, the *same* key the sweep
   runtime uses) is looked up in the shared
   :class:`~repro.runtime.cache.ResultCache`; a hit short-circuits solving
   entirely, and daemon solves conversely pre-warm later sweeps;
2. **coalescing** — concurrent identical requests collapse into one solve
   (:class:`~repro.serve.coalesce.Coalescer`): one engine scan through the
   batched separation oracle serves the whole group;
3. **instance interning** — the payload digest indexes an LRU of live game
   objects (:class:`InstanceLRU`); a warm instance carries its cached
   :class:`~repro.games.engine.BestResponseEngine` (interned CSR arrays)
   and state bindings, so repeat traffic skips graph indexing and binding
   translation;
4. **solve** — :func:`repro.api.solve` through the ordinary registry.

Admission control (:class:`AdmissionControl`) bounds the work the daemon
accepts: at most ``workers`` solves run concurrently, at most ``queue``
more may wait, and anything beyond that is rejected up front (the HTTP
layer renders the rejection as ``429 Retry-After``) instead of building an
unbounded backlog.

Responses are canonical: the report JSON with the wall clock zeroed
(:func:`repro.api.serialize.canonical_report_json`), byte-identical to
``repro-experiments solve --json --canonical`` for the same instance.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__, api
from repro.lp import list_backends
from repro.net import RequestError
from repro.runtime.cache import AnyCache, coerce_cache, solve_job_key
from repro.serve.coalesce import Coalescer
from repro.utils.hashing import UnhashablePayloadError, stable_hash

JSONDict = Dict[str, Any]


#: a malformed or unserviceable request (maps to an HTTP 4xx)
ServeRequestError = RequestError


#: seconds suggested to a 429'd client before retrying
RETRY_AFTER_SECONDS = 1


class Saturated(RequestError):
    """The daemon is at capacity: HTTP 429 with a ``Retry-After`` header."""

    def __init__(self, message: str):
        super().__init__(429, message, RETRY_AFTER_SECONDS)


@dataclass
class ServeConfig:
    """Daemon knobs (the ``repro-experiments serve`` flags).

    ``cache`` follows the repo-wide convention of
    :func:`repro.runtime.cache.coerce_cache`: ``None`` selects the default
    directory (``$REPRO_CACHE_DIR``, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``), a path selects that directory, ``False`` disables
    the response store entirely.
    """

    #: max solves running concurrently (worker slots)
    workers: int = 4
    #: max additional requests allowed to wait for a worker slot; beyond
    #: ``workers + queue`` in flight, new solve requests are rejected
    queue: int = 16
    #: seconds a coalescing leader lingers before solving so identical
    #: requests can join its flight (0 = pure single-flight dedup)
    batch_window: float = 0.0
    #: interned live instances kept resident (graphs + engines + bindings)
    lru_size: int = 128
    #: response store (shared with the sweep runtime's result cache)
    cache: Union[AnyCache, str, Path, bool, None] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue < 0:
            raise ValueError(f"queue must be >= 0, got {self.queue}")
        if self.lru_size < 1:
            raise ValueError(f"lru_size must be >= 1, got {self.lru_size}")
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")


class InstanceLRU:
    """Digest-keyed LRU of live, interned game instances.

    Two logically-equal payloads (key order, whitespace, provenance all
    irrelevant — :func:`~repro.utils.hashing.stable_hash` canonicalizes)
    intern to the *same* live object, so every request for an instance the
    daemon has seen recently reuses the graph's cached engine and binding
    state instead of re-deserializing and re-indexing from cold.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def intern(self, payload: JSONDict) -> Tuple[str, Any]:
        """``(digest, game)`` for a serialized instance, warm when possible."""
        digest = stable_hash(payload)
        with self._lock:
            game = self._entries.get(digest)
            if game is not None:
                self._entries.move_to_end(digest)
                self.hits += 1
                return digest, game
        # Deserialize outside the lock: interning must not serialize the
        # daemon's solve threads behind one slow graph build.
        game = api.serialize.game_from_json(payload)
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:  # a racing thread interned it first
                self._entries.move_to_end(digest)
                self.hits += 1
                return digest, existing
            self.misses += 1
            self._entries[digest] = game
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return digest, game

    def stats(self) -> JSONDict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class AdmissionControl:
    """Bounds in-flight solve requests; rejects instead of queueing forever.

    ``capacity = workers + queue``: at most ``workers`` requests hold a
    worker slot at once (the semaphore), the next ``queue`` wait their
    turn, and anything beyond is refused immediately — a saturated daemon
    answers "try again" in microseconds rather than timing clients out.
    """

    def __init__(self, workers: int, queue: int):
        self.workers = workers
        self.capacity = workers + queue
        self._slots = threading.BoundedSemaphore(workers)
        self._lock = threading.Lock()
        self._inflight = 0
        self.rejected = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def admit(self) -> None:
        """Claim an admission ticket or raise :class:`Saturated`."""
        with self._lock:
            if self._inflight >= self.capacity:
                self.rejected += 1
                raise Saturated(
                    f"{self._inflight} requests in flight >= capacity "
                    f"{self.capacity} (workers={self.workers})"
                )
            self._inflight += 1

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1

    def worker_slot(self) -> threading.BoundedSemaphore:
        """The semaphore actually serializing solve work."""
        return self._slots

    def stats(self) -> JSONDict:
        with self._lock:
            return {
                "workers": self.workers,
                "capacity": self.capacity,
                "inflight": self._inflight,
                "rejected": self.rejected,
            }


class _Counters:
    """Lock-protected monotone counters for ``/stats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + by

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._values.items()))


def _request_field(data: JSONDict, name: str, kind: type, required: bool = True) -> Any:
    value = data.get(name)
    if value is None:
        if required:
            raise ServeRequestError(400, f"request is missing {name!r}")
        return None
    if not isinstance(value, kind):
        raise ServeRequestError(
            400, f"{name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


class SolverService:
    """The daemon's brain: caching, interning, coalescing, solving.

    Stateless transports (HTTP, tests) call the ``*_json`` methods, each
    returning the exact response body bytes; request problems raise
    :class:`ServeRequestError` (status + message), saturation raises
    :class:`Saturated`.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.cache: AnyCache = coerce_cache(self.config.cache)
        self.instances = InstanceLRU(self.config.lru_size)
        self.admission = AdmissionControl(self.config.workers, self.config.queue)
        self.coalescer = Coalescer()
        self.counters = _Counters()
        self.started_at = time.time()

    # -- request plumbing ---------------------------------------------------

    def _solve_request(self, data: JSONDict) -> Tuple[JSONDict, str, JSONDict]:
        instance = _request_field(data, "instance", dict)
        solver = _request_field(data, "solver", str)
        opts = _request_field(data, "opts", dict, required=False) or {}
        return instance, solver, opts

    def _solve_one(self, instance: JSONDict, solver: str, opts: JSONDict) -> JSONDict:
        """One solve through cache -> coalescer -> LRU -> registry.

        Returns the *canonical* report JSON (wall clock zeroed).
        """
        try:
            spec = api.get_solver(solver)
        except api.UnknownSolverError as exc:
            raise ServeRequestError(400, str(exc)) from None
        try:
            key: Optional[str] = solve_job_key(instance, spec.name, spec.version, opts)
        except UnhashablePayloadError as exc:
            raise ServeRequestError(400, f"options are not cacheable JSON: {exc}") from None

        entry = self.cache.get(key)
        if entry is not None and entry.get("status") == "ok":
            self.counters.bump("result_cache_hits")
            return api.serialize.canonical_report_json(entry["report"])
        self.counters.bump("result_cache_misses")

        def compute() -> JSONDict:
            _digest, game = self.instances.intern(instance)
            with self.admission.worker_slot():
                start = time.perf_counter()
                try:
                    report = api.solve(game, spec.name, **opts)
                except (ValueError, TypeError) as exc:
                    # Bad options / instance-solver mismatch: the caller's
                    # fault, not the daemon's.
                    raise ServeRequestError(400, f"{type(exc).__name__}: {exc}") from exc
                elapsed = time.perf_counter() - start
            self.counters.bump("solves")
            self._bump_report_counters(report.metadata)
            payload = api.serialize.report_to_json(report)
            try:
                # Same entry shape as SweepRunner.run stores, so the daemon
                # and the sweep runtime share one response store.
                self.cache.put(
                    key,
                    {
                        "kind": "solve-entry",
                        "key": key,
                        "status": "ok",
                        "solver": spec.name,
                        "report": payload,
                        "elapsed_seconds": elapsed,
                        "created_at": time.time(),
                    },
                )
            except OSError:
                pass  # unwritable cache degrades to uncached, not a crash
            return api.serialize.canonical_report_json(payload)

        result, joined = self.coalescer.run(key, compute, self.config.batch_window)
        if joined:
            self.counters.bump("coalesced_joins")
        return result

    def _bump_report_counters(self, metadata: Optional[JSONDict]) -> None:
        """Fold a report's engine profile / anytime log into ``/stats``.

        Solvers that ran the best-response engine attach an ``OracleStats``
        delta as ``metadata["profile"]``; the anytime solvers attach their
        ``(round, ub, lb)`` trajectory as ``metadata["anytime"]``.  Both
        aggregate into monotone daemon-wide counters (``engine_*`` /
        ``anytime_*``) surfaced as sections of ``GET /stats``.
        """
        meta = metadata or {}
        profile = meta.get("profile")
        if isinstance(profile, dict):
            for name, value in profile.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self.counters.bump(f"engine_{name}", value)
        anytime = meta.get("anytime")
        if isinstance(anytime, dict):
            self.counters.bump("anytime_solves")
            iterates = anytime.get("iterates")
            if isinstance(iterates, list):
                self.counters.bump("anytime_iterates", len(iterates))
            stopped = anytime.get("stopped")
            if isinstance(stopped, str):
                self.counters.bump(f"anytime_stopped_{stopped.replace('-', '_')}")
        backend = meta.get("backend")
        if isinstance(backend, str) and backend:
            self.counters.bump(f"backend_{backend.replace('-', '_')}")
        if "exact_certificate" in meta:
            self.counters.bump("certified_solves")

    # -- endpoint bodies ----------------------------------------------------

    @staticmethod
    def _body(payload: Any) -> bytes:
        """Render a response exactly like ``cli.py``'s ``--json`` output."""
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    def solve_json(self, data: JSONDict) -> bytes:
        """``POST /solve`` body: one canonical report."""
        instance, solver, opts = self._solve_request(data)
        return self._body(self._solve_one(instance, solver, opts))

    def solve_batch_json(self, data: JSONDict) -> bytes:
        """``POST /solve-batch`` body: ``grid[i][j]`` = solver j on instance i.

        Matches ``repro-experiments solve-batch --json --canonical`` byte
        for byte.  Cells run sequentially inside this request (the request
        already holds an admission ticket); each cell still passes through
        the cache and coalescer, so concurrent batches share work.
        """
        instances = data.get("instances")
        if isinstance(instances, dict) and instances.get("kind") == "instance-set":
            instances = instances["instances"]
        if not isinstance(instances, list) or not instances:
            raise ServeRequestError(
                400, "'instances' must be a non-empty list or an instance-set payload"
            )
        solvers = data.get("solvers")
        if isinstance(solvers, str):
            solvers = [solvers]
        if not isinstance(solvers, list) or not solvers:
            raise ServeRequestError(400, "'solvers' must be a non-empty list")
        opts = _request_field(data, "opts", dict, required=False) or {}
        grid: List[List[JSONDict]] = []
        for instance in instances:
            if not isinstance(instance, dict):
                raise ServeRequestError(400, "each instance must be a game JSON object")
            grid.append([self._solve_one(instance, name, opts) for name in solvers])
        return self._body(grid)

    def sweep_json(self, data: JSONDict) -> bytes:
        """``POST /sweep`` body: the deterministic sweep-result JSON.

        Runs the grid through the ordinary :class:`~repro.runtime.runner.
        SweepRunner` *inline* (``jobs=1`` — the daemon's parallelism is
        across requests, not within one), sharing the daemon's result
        cache; the body is byte-identical to the file ``repro-experiments
        sweep --json-out`` writes for the same spec.
        """
        from repro.runtime import SweepRunner, SweepSpec

        spec_data = _request_field(data, "spec", dict)
        try:
            spec = SweepSpec.from_mapping(spec_data)
            jobs = spec.expand()
        except (ValueError, TypeError, KeyError) as exc:
            raise ServeRequestError(400, f"bad sweep spec: {exc}") from None
        with self.admission.worker_slot():
            result = SweepRunner(jobs=1, cache=self.cache).run(jobs)
        self.counters.bump("sweep_jobs", len(jobs))
        self.counters.bump("sweep_cache_hits", result.cache_hits)
        return (
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")

    def solvers_json(self) -> bytes:
        """``GET /solvers``: the registry, JSON-shaped."""
        rows = [
            {
                "name": spec.name,
                "problem": spec.problem,
                "exact": spec.exact,
                "broadcast_only": spec.broadcast_only,
                "requires_tree_state": spec.requires_tree_state,
                "version": spec.version,
                "aliases": list(spec.aliases),
                "description": spec.description,
            }
            for spec in api.list_solvers()
        ]
        return self._body({"kind": "solver-list", "solvers": rows})

    def families_json(self) -> bytes:
        """``GET /families``: scenario families + game families."""
        from repro.games.base import describe_families
        from repro.scenarios import SCENARIOS, scenario_names

        scenarios = [
            {
                "name": name,
                "stochastic": SCENARIOS[name].stochastic,
                "description": SCENARIOS[name].description,
                "params": dict(SCENARIOS[name].params),
            }
            for name in scenario_names()
        ]
        return self._body(
            {
                "kind": "family-list",
                "scenarios": scenarios,
                "games": describe_families(),
            }
        )

    def health_json(self) -> bytes:
        return self._body({"status": "ok", "version": __version__})

    def version_json(self) -> bytes:
        return self._body({"version": __version__})

    def stats_json(self) -> bytes:
        """``GET /stats``: counters, LRU occupancy, admission, engine work."""
        root = getattr(self.cache, "root", None)
        counters = self.counters.as_dict()
        engine = {
            name[len("engine_"):]: value
            for name, value in counters.items()
            if name.startswith("engine_")
        }
        anytime = {
            name[len("anytime_"):]: value
            for name, value in counters.items()
            if name.startswith("anytime_")
        }
        backends = {
            "registry": [
                {
                    "name": spec.name,
                    "aliases": list(spec.aliases),
                    "available": spec.available,
                    **spec.capabilities(),
                }
                for spec in list_backends()
            ],
            # solves routed through each LP backend (from report metadata)
            "usage": {
                name[len("backend_"):]: value
                for name, value in counters.items()
                if name.startswith("backend_")
            },
            "certified_solves": counters.get("certified_solves", 0),
        }
        return self._body(
            {
                "kind": "serve-stats",
                "version": __version__,
                "uptime_seconds": time.time() - self.started_at,
                "counters": counters,
                "engine": engine,
                "anytime": anytime,
                "backends": backends,
                "result_cache": {
                    "root": str(root) if root else None,
                    "hits": counters.get("result_cache_hits", 0),
                    "misses": counters.get("result_cache_misses", 0),
                },
                "instances": self.instances.stats(),
                "admission": self.admission.stats(),
                "coalescer": {"open_flights": self.coalescer.inflight()},
                "config": {
                    "workers": self.config.workers,
                    "queue": self.config.queue,
                    "batch_window": self.config.batch_window,
                    "lru_size": self.config.lru_size,
                },
            }
        )
