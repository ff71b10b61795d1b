"""Distributed sweep runtime: coordinator/worker sharding with work-stealing.

The single-host :class:`~repro.runtime.runner.SweepRunner` caps sweep
throughput at one machine's cores and holds every report in memory.  This
module generalizes the executor to a **coordinator/worker** protocol:

* the **coordinator** (:class:`SweepCoordinator`) expands a sweep into a
  job queue, serves it to workers — over a pure-stdlib HTTP/JSON protocol
  (:mod:`repro.net`, the transport the solver daemon also runs on) or a
  shared **spool directory** for filesystem clusters — and folds every
  arriving outcome *streamingly* into per-grid-cell Welford statistics,
  the content-addressed :class:`~repro.runtime.cache.ResultCache`, and an
  incremental ``--json-out`` writer (records spill to a sorted spool; the
  canonical document is emitted at close), so coordinator memory stays
  O(cells), never O(reports);
* **workers** (:func:`run_worker`, CLI ``sweep-worker``) pull jobs in
  *leases*, execute them through the same
  :func:`~repro.runtime.workers.run_solve_job` payload path as every other
  execution mode, write successes into their local shard of the result
  cache, and report outcomes back.

**Work-stealing** falls out of lease expiry: a worker that dies (SIGKILL,
OOM) or stalls past its lease stops heartbeating, the lease lapses, and
the job is reassigned to the next worker that asks — the same containment
philosophy as the fork pool's respawn logic, minus any need to observe the
death directly.  A job whose lease keeps expiring (it kills every worker
that touches it) is failed after :data:`DEFAULT_MAX_STEALS` steals instead
of bouncing forever.  Completions are idempotent: two workers finishing
the same stolen job is safe by construction, because results are
content-addressed and the first accepted record wins (both are identical
bytes for a deterministic solver).

Determinism: expansion happens once in the coordinator, workers run the
same ``run_solve_job`` code as ``--jobs N`` pools, and the final JSON is
written through the same :func:`~repro.runtime.runner.job_record` /
:func:`~repro.runtime.runner.write_sweep_json` path as the single-host
sweep — so ``cli sweep --json-out`` is byte-identical across one host,
one worker, N workers, warm caches, and runs where a worker was killed
mid-lease (see ``tests/test_distributed.py``).

HTTP protocol (all bodies ``application/json``)::

    POST /lease      {"worker": id}                  -> {"job": {...}|null,
                                                         "lease": id|null,
                                                         "done": bool, ...}
    POST /complete   {"worker", "lease", "index",
                      "outcome": {...}}              -> {"accepted", "duplicate"}
    POST /heartbeat  {"worker": id}                  -> {"ok": true, "done": bool}
    GET  /stats                                      -> coordinator counters
    GET  /healthz                                    -> liveness + role

Spool-directory protocol (shared filesystem, no sockets)::

    <spool>/coordinator.json      readiness + lease metadata
    <spool>/jobs/NNNNNNNN.json    queued job (index + run_solve_job payload)
    <spool>/claims/NNNNNNNN.json  leased job (atomic rename from jobs/);
                                  the worker re-touches it as its heartbeat
    <spool>/results/NNNNNNNN.json outcome (tmp write + atomic rename)
    <spool>/done                  coordinator's completion marker

Claiming is ``os.rename(jobs/X, claims/X)`` — atomic on POSIX, so exactly
one worker wins a job; a claim whose mtime goes stale past the lease
timeout is renamed back into ``jobs/`` (a steal).
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.net import JSONClient, JSONDict, JSONServer, RequestError, Route
from repro.runtime.cache import AnyCache, atomic_write_text, coerce_cache
from repro.runtime.runner import (
    JobOutcome,
    dump_job_record,
    job_record,
    store_solve_entry,
    sweep_job_key,
    write_sweep_json,
)
from repro.runtime.spec import SweepJob
from repro.runtime.workers import run_solve_job

ProgressFn = Callable[[JobOutcome, int, int], None]

#: default lease duration when neither ``lease_timeout`` nor a per-job
#: ``timeout`` suggests one
DEFAULT_LEASE_TIMEOUT = 30.0

#: lease expiries tolerated per job before it is failed outright — the
#: distributed analogue of the fork pool's ``_MAX_JOB_RETRIES``: one
#: worker-killing cell must not take every worker (and the sweep) with it
DEFAULT_MAX_STEALS = 3

#: suggested worker poll interval when the queue is momentarily empty
IDLE_POLL_SECONDS = 0.2

#: test/chaos hook: seconds a worker sleeps between leasing a job and
#: executing it, giving crash-containment tests a deterministic window to
#: SIGKILL the worker mid-lease (unset/0 in normal operation)
STALL_ENV = "REPRO_SWEEP_WORKER_STALL_S"


def default_lease_timeout(job_timeout: Optional[float]) -> float:
    """Lease duration derived from the per-job budget.

    Twice the job timeout plus grace — a healthy worker heartbeats well
    within that, so only death or a genuine stall loses the lease.
    """
    if job_timeout:
        return max(2.0 * float(job_timeout) + 5.0, DEFAULT_LEASE_TIMEOUT)
    return DEFAULT_LEASE_TIMEOUT


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------


class Welford:
    """Online mean/variance (Welford's algorithm) — O(1) memory per cell."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two samples)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    def to_json(self) -> JSONDict:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "min": self.min,
            "max": self.max,
        }


def cell_of_label(label: str) -> str:
    """The grid cell a job belongs to: its label minus the replica index.

    ``"tree-chords-n12[3] x sne-lp3"`` → ``"tree-chords-n12 x sne-lp3"``,
    so the K replicas of one (model, size, solver) cell aggregate
    together.  Labels without a replica suffix (explicit instance lists)
    are their own cells.
    """
    stem, sep, solver = label.rpartition(" x ")
    if not sep:
        return label
    if stem.endswith("]"):
        cut = stem.rfind("[")
        if cut > 0 and stem[cut + 1 : -1].isdigit():
            stem = stem[:cut]
    return f"{stem} x {solver}"


class _CellStats:
    """Per-grid-cell streaming aggregates over arriving ok outcomes."""

    def __init__(self) -> None:
        self._cells: Dict[str, Dict[str, Welford]] = {}

    def fold(self, label: str, report: Optional[JSONDict], elapsed: float, cached: bool) -> None:
        if not isinstance(report, dict):
            return
        cell = self._cells.setdefault(
            cell_of_label(label), {"budget": Welford(), "elapsed": Welford()}
        )
        budget = report.get("budget_used")
        if isinstance(budget, (int, float)):
            cell["budget"].update(float(budget))
        if not cached:  # cache hits carry the *original* solve time
            cell["elapsed"].update(elapsed)

    def to_json(self) -> JSONDict:
        return {
            name: {metric: w.to_json() for metric, w in cell.items()}
            for name, cell in sorted(self._cells.items())
        }


# ---------------------------------------------------------------------------
# the lease board (HTTP transport state)
# ---------------------------------------------------------------------------


class LeaseBoard:
    """Thread-safe job queue with leases, expiry-based stealing, heartbeats.

    Pure bookkeeping — it never executes anything and never touches the
    outcome payloads.  All methods take the lock; ``reap()`` hands back
    jobs that exhausted their steal budget so the owner (the coordinator)
    can fold synthetic failures for them.
    """

    def __init__(
        self,
        total: int,
        queued: Sequence[int],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_steals: int = DEFAULT_MAX_STEALS,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.total = total
        self.lease_timeout = float(lease_timeout)
        self.max_steals = max_steals
        self._lock = threading.Lock()
        self._queue: deque = deque(queued)
        #: lease id -> (job index, worker, absolute deadline)
        self._leases: Dict[str, Tuple[int, str, float]] = {}
        #: job index -> its *current* lease id
        self._lease_of: Dict[int, str] = {}
        self._done: set = set(range(total)) - set(queued)
        self._steals: Dict[int, int] = {}
        self._gave_up: List[Tuple[int, str]] = []
        self.stolen = 0
        self.duplicates = 0
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.first_lease_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.all_done = threading.Event()
        if len(self._done) >= total:
            self.finished_at = time.monotonic()
            self.all_done.set()

    # -- internals (lock held) ----------------------------------------------

    def _worker(self, worker: str, now: float) -> Dict[str, Any]:
        record = self.workers.setdefault(
            worker,
            {"completed": 0, "failed_jobs": 0, "duplicates": 0, "stolen_from": 0},
        )
        record["last_seen"] = now
        return record

    def _reclaim(self, now: float) -> None:
        """Requeue (or give up on) every lease past its deadline."""
        for lease_id, (index, worker, deadline) in list(self._leases.items()):
            if now < deadline:
                continue
            del self._leases[lease_id]
            self._lease_of.pop(index, None)
            self.stolen += 1
            self._steals[index] = self._steals.get(index, 0) + 1
            if worker in self.workers:
                self.workers[worker]["stolen_from"] += 1
            if self._steals[index] >= self.max_steals:
                self._done.add(index)
                self._gave_up.append(
                    (
                        index,
                        f"lease expired {self._steals[index]} times "
                        f"(last worker {worker!r}); giving up on this job",
                    )
                )
            else:
                self._queue.append(index)
        self._check_done()

    def _check_done(self) -> None:
        if len(self._done) >= self.total and not self.all_done.is_set():
            if self.finished_at is None:
                self.finished_at = time.monotonic()
            self.all_done.set()

    # -- the protocol verbs -------------------------------------------------

    def lease(self, worker: str, now: Optional[float] = None) -> Optional[Tuple[int, str]]:
        """Assign the next queued job to ``worker``; ``None`` when starved."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._worker(worker, now)
            self._reclaim(now)
            if not self._queue:
                return None
            index = self._queue.popleft()
            lease_id = uuid.uuid4().hex
            self._leases[lease_id] = (index, worker, now + self.lease_timeout)
            self._lease_of[index] = lease_id
            if self.first_lease_at is None:
                self.first_lease_at = now
            return index, lease_id

    def complete(
        self, worker: str, lease_id: Optional[str], index: int, ok: bool,
        now: Optional[float] = None,
    ) -> bool:
        """Record a finished job; returns ``False`` for duplicates.

        Keyed on the job index, not the lease: a worker finishing a job
        whose lease was already stolen still did valid work (results are
        content-addressed), so its outcome is accepted *unless* another
        worker already completed the job — then it is a duplicate and the
        first accepted record stands.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            record = self._worker(worker, now)
            if lease_id is not None and lease_id in self._leases:
                held_index, _, _ = self._leases.pop(lease_id)
                self._lease_of.pop(held_index, None)
            if index in self._done:
                record["duplicates"] += 1
                self.duplicates += 1
                self._reclaim(now)
                return False
            # Late complete after a steal: the index may be back in the
            # queue or re-leased to someone else — claim it in either case.
            current = self._lease_of.pop(index, None)
            if current is not None:
                self._leases.pop(current, None)
            try:
                self._queue.remove(index)
            except ValueError:
                pass
            self._done.add(index)
            record["completed"] += 1
            if not ok:
                record["failed_jobs"] += 1
            self._reclaim(now)
            return True

    def heartbeat(self, worker: str, now: Optional[float] = None) -> None:
        """Mark ``worker`` alive and extend every lease it holds."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._worker(worker, now)
            for lease_id, (index, owner, _) in list(self._leases.items()):
                if owner == worker:
                    self._leases[lease_id] = (index, owner, now + self.lease_timeout)
            self._reclaim(now)

    def reap(self, now: Optional[float] = None) -> List[Tuple[int, str]]:
        """Jobs that exhausted their steal budget since the last call."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._reclaim(now)
            gave_up, self._gave_up = self._gave_up, []
            return gave_up

    # -- spool-transport bookkeeping ----------------------------------------
    # In spool mode the *filesystem* is the lease store (a claim file is a
    # lease; its mtime is the heartbeat), so the board only keeps counters
    # and terminal state consistent between the two transports.

    def spool_steal(self, index: int, worker: Optional[str]) -> Optional[int]:
        """Record an expired claim; returns the job's steal count so far.

        ``None`` means the job is already done (the claim is a leftover and
        should simply be deleted, not re-queued).
        """
        with self._lock:
            if index in self._done:
                return None
            self.stolen += 1
            self._steals[index] = self._steals.get(index, 0) + 1
            if worker and worker in self.workers:
                self.workers[worker]["stolen_from"] += 1
            return self._steals[index]

    def force_done(self, index: int, worker: Optional[str] = None, ok: bool = False,
                   now: Optional[float] = None) -> bool:
        """Move a job to its terminal state; ``False`` if already there."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if worker:
                record = self._worker(worker, now)
            if index in self._done:
                if worker:
                    record["duplicates"] += 1
                self.duplicates += 1
                return False
            self._done.add(index)
            if worker:
                record["completed"] += 1
                if not ok:
                    record["failed_jobs"] += 1
            if self.first_lease_at is None:
                self.first_lease_at = now
            self._check_done()
            return True

    # -- introspection ------------------------------------------------------

    def counts(self) -> JSONDict:
        with self._lock:
            return {
                "total": self.total,
                "queued": len(self._queue),
                "leased": len(self._leases),
                "done": len(self._done),
                "stolen": self.stolen,
                "duplicates": self.duplicates,
            }

    def worker_stats(self, now: Optional[float] = None) -> JSONDict:
        now = time.monotonic() if now is None else now
        with self._lock:
            held: Dict[str, int] = {}
            for index, worker, _ in self._leases.values():
                held[worker] = held.get(worker, 0) + 1
            return {
                name: {
                    "heartbeat_age_seconds": now - record["last_seen"],
                    "leases_held": held.get(name, 0),
                    "completed": record["completed"],
                    "failed_jobs": record["failed_jobs"],
                    "duplicates": record["duplicates"],
                    "stolen_from": record["stolen_from"],
                }
                for name, record in sorted(self.workers.items())
            }


# ---------------------------------------------------------------------------
# streaming outcome folding
# ---------------------------------------------------------------------------


class OutcomeFolder:
    """Folds each arriving outcome into cache + stats + the record spool.

    The coordinator's memory model lives here: an ``ok`` outcome is
    written to the result cache, its deterministic job record is dumped to
    one file in a sorted spool directory, its budget/elapsed fold into the
    per-cell Welford accumulators — and then the report is *dropped*.
    ``close()`` streams the spool, in job order, through
    :func:`write_sweep_json`, so the canonical ``--json-out`` document is
    produced without ever materializing the report list.
    """

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        keys: Dict[int, Optional[str]],
        cache: AnyCache,
        json_out: Union[str, Path, None] = None,
        progress: Optional[ProgressFn] = None,
    ):
        self.jobs = jobs
        self.keys = keys
        self.cache = cache
        self.json_out = Path(json_out) if json_out else None
        self.progress = progress
        self._lock = threading.Lock()
        self._spool: Optional[tempfile.TemporaryDirectory] = None
        if self.json_out is not None:
            self._spool = tempfile.TemporaryDirectory(prefix="repro-sweep-records-")
        self._folded: set = set()
        self.counts = {"ok": 0, "failed": 0, "timeout": 0, "cached": 0}
        self.solve_seconds = 0.0
        self.cells = _CellStats()
        self.failures: List[JSONDict] = []

    @property
    def done(self) -> int:
        return len(self._folded)

    def fold(
        self,
        index: int,
        raw: JSONDict,
        cached: bool = False,
        worker: Optional[str] = None,
    ) -> bool:
        """Fold one outcome dict (the ``run_solve_job`` shape) for job ``index``.

        Returns ``False`` (and changes nothing) when the job was already
        folded — the duplicate-completion path.
        """
        job = self.jobs[index]
        key = self.keys.get(index)
        outcome = JobOutcome(
            job=job,
            status=raw.get("status", "failed"),
            cached=cached,
            key=key,
            report=raw.get("report"),
            error=raw.get("error"),
            elapsed_seconds=raw.get("elapsed_seconds", 0.0),
        )
        with self._lock:
            if index in self._folded:
                return False
            self._folded.add(index)
            self.counts[outcome.status] = self.counts.get(outcome.status, 0) + 1
            if cached:
                self.counts["cached"] += 1
            else:
                self.solve_seconds += outcome.elapsed_seconds
            if outcome.ok:
                self.cells.fold(
                    job.label, outcome.report, outcome.elapsed_seconds, cached
                )
                if not cached and key is not None:
                    store_solve_entry(
                        self.cache, key, job.solver, outcome.report,
                        outcome.elapsed_seconds,
                    )
            else:
                self.failures.append(
                    {
                        "label": job.label,
                        "status": outcome.status,
                        "worker": worker,
                        "error": outcome.error,
                    }
                )
            if self._spool is not None:
                path = Path(self._spool.name) / f"{index:08d}.json"
                path.write_text(dump_job_record(job_record(outcome)))
            done = len(self._folded)
        if self.progress is not None:
            self.progress(outcome, done, len(self.jobs))
        return True

    def fold_failure(self, index: int, error: str, worker: Optional[str] = None) -> bool:
        """Fold a synthetic failure (lease given up, spool corruption)."""
        return self.fold(
            index,
            {"status": "failed", "error": error, "elapsed_seconds": 0.0},
            worker=worker,
        )

    def close(self) -> None:
        """Emit the canonical sweep JSON from the sorted record spool.

        Takes the fold lock: a fold in flight on a handler thread has
        already bumped ``done`` but may still be writing its spool record,
        and close must not snapshot (or clean up) the spool under it.
        """
        with self._lock:
            if self._spool is None:
                return
            spool = Path(self._spool.name)

            def records() -> Iterator[str]:
                for name in sorted(os.listdir(spool)):
                    yield (spool / name).read_text()

            try:
                with open(self.json_out, "w") as fh:  # type: ignore[arg-type]
                    write_sweep_json(fh, records())
            finally:
                self._spool.cleanup()
                self._spool = None


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


@dataclass
class DistributedSweepResult:
    """Summary of one coordinated sweep (no per-job reports — by design)."""

    total: int
    counts: JSONDict
    stolen: int
    duplicates: int
    wall_seconds: float
    solve_seconds: float
    #: fresh completions per second over the first-lease → finish window
    #: (0.0 when everything was served from cache)
    jobs_per_second: float
    workers: JSONDict
    failures: List[JSONDict] = field(default_factory=list)
    cells: JSONDict = field(default_factory=dict)
    json_out: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.counts.get("ok", 0) >= self.total

    @property
    def cache_hits(self) -> int:
        return self.counts.get("cached", 0)

    def summary_text(self) -> str:
        n = self.total
        parts = [f"{n} job{'s' if n != 1 else ''}: {self.counts.get('ok', 0)} ok"]
        if self.cache_hits:
            parts[-1] += f" ({self.cache_hits} cached)"
        for status in ("failed", "timeout"):
            if self.counts.get(status):
                parts.append(f"{self.counts[status]} {status}")
        if self.stolen:
            parts.append(f"{self.stolen} stolen")
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate")
        parts.append(
            f"wall {self.wall_seconds:.2f}s (solve {self.solve_seconds:.2f}s"
            + (f", {self.jobs_per_second:.1f} jobs/s" if self.jobs_per_second else "")
            + ")"
        )
        lines = [" · ".join(parts)]
        for name, record in sorted(self.workers.items()):
            lines.append(
                f"  worker {name}: {record['completed']} completed, "
                f"{record['failed_jobs']} failed, "
                f"{record['stolen_from']} stolen from, "
                f"{record['duplicates']} duplicate"
            )
        for failure in self.failures:
            who = f" [worker {failure['worker']}]" if failure.get("worker") else ""
            lines.append(
                f"  FAILED {failure['label']} ({failure['status']}){who}: "
                f"{failure['error']}"
            )
        return "\n".join(lines)


class SweepCoordinator:
    """Drives an expanded job list to completion via remote workers.

    Usage (HTTP transport)::

        coordinator = SweepCoordinator(spec.expand(), json_out="grid.json")
        host, port = coordinator.serve("127.0.0.1", 0)
        ... start `cli sweep-worker --connect host:port` anywhere ...
        result = coordinator.run()

    or spool transport::

        coordinator = SweepCoordinator(jobs, spool="/mnt/shared/sweep-7")
        result = coordinator.run()

    The cache pass happens in the constructor — hits are folded before any
    worker connects, so a warm-cache distributed run completes without
    workers at all, exactly like the single-host runner.
    """

    def __init__(
        self,
        sweep_jobs: Sequence[SweepJob],
        cache: Union[AnyCache, bool, None] = None,
        timeout: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        max_steals: int = DEFAULT_MAX_STEALS,
        json_out: Union[str, Path, None] = None,
        spool: Union[str, Path, None] = None,
        progress: Optional[ProgressFn] = None,
    ):
        self.jobs = list(sweep_jobs)
        self.cache = coerce_cache(cache)
        self.timeout = timeout
        self.lease_timeout = (
            float(lease_timeout) if lease_timeout else default_lease_timeout(timeout)
        )
        self.started_at = time.monotonic()
        self._started_wall = time.time()
        self.keys: Dict[int, Optional[str]] = {
            job.index: sweep_job_key(job) for job in self.jobs
        }
        self.folder = OutcomeFolder(
            self.jobs, self.keys, self.cache, json_out=json_out, progress=progress
        )

        # cache pass: fold hits now, queue only the misses
        misses: List[int] = []
        for job in self.jobs:
            key = self.keys[job.index]
            entry = self.cache.get(key) if key else None
            if entry is not None and entry.get("status") == "ok":
                self.folder.fold(
                    job.index,
                    {
                        "status": "ok",
                        "report": entry.get("report"),
                        "elapsed_seconds": entry.get("elapsed_seconds", 0.0),
                    },
                    cached=True,
                )
            else:
                misses.append(job.index)

        self.board = LeaseBoard(
            total=len(self.jobs),
            queued=misses,
            lease_timeout=self.lease_timeout,
            max_steals=max_steals,
        )
        self._server: Optional[JSONServer] = None
        self._spool: Optional[_SpoolPaths] = None
        if spool is not None:
            self._spool = _SpoolPaths(Path(spool))
            self._spool_publish(misses)

    # -- HTTP transport -----------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the coordinator's HTTP endpoint; returns ``(host, port)``.

        The server runs on a daemon thread; ``port=0`` picks a free port.
        """
        if self._server is not None:
            raise RuntimeError("coordinator is already serving")
        self._server = JSONServer((host, port), self._routes())
        threading.Thread(
            target=self._server.serve_forever, name="sweep-coordinator", daemon=True
        ).start()
        return self._server.server_address[:2]

    def _routes(self) -> Dict[Tuple[str, str], Route]:
        def body(payload: JSONDict) -> bytes:
            return (json.dumps(payload) + "\n").encode("utf-8")

        def verb(call: Callable[[str, JSONDict], JSONDict]) -> Route:
            def route(data: Optional[JSONDict]) -> bytes:
                worker = data.get("worker")  # type: ignore[union-attr]
                if not isinstance(worker, str) or not worker:
                    raise RequestError(400, "'worker' must be a non-empty string")
                try:
                    return body(call(worker, data))
                except ValueError as exc:
                    raise RequestError(400, str(exc)) from None

            return route

        return {
            ("GET", "/healthz"): lambda _: body(
                {"status": "ok", "role": "sweep-coordinator", "done": self.board.all_done.is_set()}
            ),
            ("GET", "/stats"): lambda _: body(self.stats_json()),
            ("POST", "/lease"): verb(lambda worker, _: self.lease_json(worker)),
            ("POST", "/heartbeat"): verb(lambda worker, _: self.heartbeat_json(worker)),
            ("POST", "/complete"): verb(
                lambda worker, data: self.complete_json(
                    worker, data.get("lease"), data.get("index"), data.get("outcome")
                )
            ),
        }

    # -- protocol verbs (shared by the HTTP routes and tests) ---------------

    def lease_json(self, worker: str) -> JSONDict:
        self._pump()
        if self.board.all_done.is_set():
            return {"job": None, "lease": None, "done": True}
        leased = self.board.lease(worker)
        if leased is None:
            return {
                "job": None,
                "lease": None,
                "done": self.board.all_done.is_set(),
                "poll_seconds": IDLE_POLL_SECONDS,
            }
        index, lease_id = leased
        return {
            "job": {"index": index, "payload": self._payload(index)},
            "lease": lease_id,
            "lease_timeout": self.board.lease_timeout,
            "done": False,
        }

    def complete_json(self, worker: str, lease: Optional[str], index: int,
                      outcome: JSONDict) -> JSONDict:
        if not isinstance(index, int) or not 0 <= index < len(self.jobs):
            raise ValueError(f"job index out of range: {index!r}")
        if not isinstance(outcome, dict) or "status" not in outcome:
            raise ValueError("outcome must be a dict with a 'status' field")
        accepted = self.board.complete(
            worker, lease, index, ok=outcome.get("status") == "ok"
        )
        if accepted:
            self.folder.fold(index, outcome, worker=worker)
        self._pump()
        return {"accepted": accepted, "duplicate": not accepted}

    def heartbeat_json(self, worker: str) -> JSONDict:
        self.board.heartbeat(worker)
        self._pump()
        return {"ok": True, "done": self.board.all_done.is_set()}

    def stats_json(self) -> JSONDict:
        """``GET /stats``: queue counters, per-worker liveness, cell stats."""
        from repro import __version__

        self._pump()
        return {
            "kind": "sweep-coordinator-stats",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self.started_at,
            "lease_timeout": self.board.lease_timeout,
            "jobs": {**self.board.counts(), **self.folder.counts},
            "workers": self.board.worker_stats(),
            "cells": self.folder.cells.to_json(),
            "failures": list(self.folder.failures),
        }

    def _payload(self, index: int) -> JSONDict:
        job = self.jobs[index]
        return {
            "instance": job.instance,
            "solver": job.solver,
            "opts": job.opts,
            "timeout": self.timeout,
            # advisory: lets the worker write its local cache shard
            "key": self.keys[index],
        }

    def _pump(self) -> None:
        """Fold synthetic failures for jobs whose leases were exhausted."""
        for index, error in self.board.reap():
            self.folder.fold_failure(index, error)

    # -- spool transport ----------------------------------------------------

    def _spool_publish(self, misses: Sequence[int]) -> None:
        paths = self._spool
        assert paths is not None
        paths.create()
        for index in misses:
            payload = {"index": index, "payload": self._payload(index)}
            atomic_write_text(paths.jobs / f"{index:08d}.json", json.dumps(payload))
        # readiness marker last: workers wait for it before scanning jobs/
        meta = {
            "kind": "sweep-spool",
            "total": len(self.jobs),
            "queued": len(misses),
            "lease_timeout": self.board.lease_timeout,
        }
        atomic_write_text(paths.meta, json.dumps(meta))

    def _spool_scan(self) -> None:
        """One poll of the spool: fold new results, steal stale claims."""
        paths = self._spool
        assert paths is not None
        now = time.monotonic()
        for path in sorted(paths.results.glob("*.json")):
            name_index = _index_of_spool_name(path.name)
            if name_index is None:
                # A worker's in-flight ``.tmp-*.json`` (see
                # atomic_write_text): not a result until it is renamed.
                continue
            try:
                data = json.loads(path.read_text())
                index = int(data["index"])
                outcome = data["outcome"]
                worker = data.get("worker")
                if not isinstance(outcome, dict):
                    raise TypeError("outcome must be a dict")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                path.unlink(missing_ok=True)
                if self.board.force_done(name_index):
                    self.folder.fold_failure(
                        name_index, f"corrupt spool result {path.name}: {exc}"
                    )
                continue
            if self.board.force_done(
                index, worker=worker, ok=outcome.get("status") == "ok"
            ):
                self.folder.fold(index, outcome, worker=worker)
            path.unlink(missing_ok=True)
            (paths.claims / f"{index:08d}.json").unlink(missing_ok=True)
            (paths.claims / f"{index:08d}.json.worker").unlink(missing_ok=True)
        for claim in paths.claims.glob("*.json"):
            index = _index_of_spool_name(claim.name)
            if index is None:
                continue
            try:
                age = now - _monotonic_mtime(claim)
            except OSError:
                continue  # completed (and removed) under us
            if age <= self.board.lease_timeout:
                continue
            worker = _sidecar_worker(claim)
            steals = self.board.spool_steal(index, worker)
            if steals is None:
                claim.unlink(missing_ok=True)  # already completed elsewhere
            elif steals >= self.board.max_steals:
                claim.unlink(missing_ok=True)
                if self.board.force_done(index):
                    self.folder.fold_failure(
                        index,
                        f"lease expired {steals} times (last worker {worker!r}); "
                        "giving up on this job",
                        worker=worker,
                    )
            else:
                # steal: hand the job back to the queue via an atomic rename
                try:
                    os.rename(claim, paths.jobs / claim.name)
                except OSError:
                    pass  # the claiming worker finished in the window — fine
                (paths.claims / f"{claim.name}.worker").unlink(missing_ok=True)

    # -- the blocking drive loop --------------------------------------------

    def run(self, poll: float = 0.25) -> DistributedSweepResult:
        """Block until every job reaches a terminal outcome; fold and close.

        Works for both transports: the HTTP server answers on its own
        threads while this loop reaps expired leases; in spool mode the
        loop *is* the coordinator side of the protocol.
        """
        try:
            while not self.board.all_done.is_set():
                if self._spool is not None:
                    self._spool_scan()
                self._pump()
                self.board.all_done.wait(poll)
            self._pump()
            if self._spool is not None:
                self._spool_scan()
                self._spool.done.touch()
            # The board flips all_done inside the *final* complete(), before
            # the handler thread folds that outcome — wait for the folder to
            # catch up so close() never races an in-flight fold.
            deadline = time.monotonic() + 10.0
            while self.folder.done < len(self.jobs) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            self.folder.close()
            self.close()
        return self.result()

    def result(self) -> DistributedSweepResult:
        counts = self.board.counts()
        fresh = self.folder.counts.get("ok", 0) - self.folder.counts.get("cached", 0)
        window = 0.0
        if self.board.first_lease_at is not None and self.board.finished_at is not None:
            window = self.board.finished_at - self.board.first_lease_at
        return DistributedSweepResult(
            total=len(self.jobs),
            counts=dict(self.folder.counts),
            stolen=counts["stolen"],
            duplicates=counts["duplicates"],
            wall_seconds=time.monotonic() - self.started_at,
            solve_seconds=self.folder.solve_seconds,
            jobs_per_second=(fresh / window) if window > 0 and fresh > 0 else 0.0,
            workers=self.board.worker_stats(),
            failures=list(self.folder.failures),
            cells=self.folder.cells.to_json(),
            json_out=str(self.folder.json_out) if self.folder.json_out else None,
        )

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None


def _index_of_spool_name(name: str) -> Optional[int]:
    stem = name.split(".", 1)[0]
    return int(stem) if stem.isdigit() else None


def _monotonic_mtime(path: Path) -> float:
    """A claim's mtime on the monotonic clock (for age comparisons).

    Heartbeats are ``os.utime`` touches, i.e. wall-clock stamps; mapping
    them through the current wall/monotonic offset keeps the comparison
    consistent with ``lease_timeout`` even if the wall clock steps.
    """
    return path.stat().st_mtime - time.time() + time.monotonic()


def _sidecar_worker(claim: Path) -> Optional[str]:
    try:
        return (claim.parent / f"{claim.name}.worker").read_text().strip() or None
    except OSError:
        return None


class _SpoolPaths:
    """Directory layout of the shared-filesystem transport."""

    def __init__(self, root: Path):
        self.root = root
        self.jobs = root / "jobs"
        self.claims = root / "claims"
        self.results = root / "results"
        self.meta = root / "coordinator.json"
        self.done = root / "done"

    def create(self) -> None:
        for directory in (self.root, self.jobs, self.claims, self.results):
            directory.mkdir(parents=True, exist_ok=True)
        self.done.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------


class CoordinatorClient(JSONClient):
    """Keep-alive stdlib client for the coordinator protocol.

    The worker loop's transport, and executable documentation of the wire
    format (mirrors :class:`repro.serve.client.ServeClient`).  Non-2xx
    answers raise :class:`repro.net.StatusError`, a ``RuntimeError``.
    """

    def wait_ready(self, timeout: float = 30.0, interval: float = 0.05) -> JSONDict:
        return super().wait_ready(timeout, interval)

    def lease(self, worker: str) -> JSONDict:
        return self._json("POST", "/lease", {"worker": worker})

    def complete(
        self, worker: str, lease: Optional[str], index: int, outcome: JSONDict
    ) -> JSONDict:
        return self._json(
            "POST",
            "/complete",
            {"worker": worker, "lease": lease, "index": index, "outcome": outcome},
        )

    def heartbeat(self, worker: str) -> JSONDict:
        return self._json("POST", "/heartbeat", {"worker": worker})


@dataclass
class WorkerSummary:
    """What one ``run_worker`` loop did before exiting."""

    worker: str
    completed: int = 0
    failed: int = 0
    duplicates: int = 0

    def summary_text(self) -> str:
        return (
            f"worker {self.worker}: {self.completed} completed "
            f"({self.failed} failed), {self.duplicates} duplicate"
        )


def _stall_for_tests() -> float:
    try:
        return float(os.environ.get(STALL_ENV, "") or 0.0)
    except ValueError:
        return 0.0


def _execute(payload: JSONDict, cache: AnyCache) -> JSONDict:
    """Run one leased payload and write the local cache shard on success."""
    outcome = run_solve_job(payload)
    key = payload.get("key")
    if outcome.get("status") == "ok" and key:
        store_solve_entry(
            cache,
            key,
            payload.get("solver", ""),
            outcome.get("report"),
            outcome.get("elapsed_seconds", 0.0),
        )
    return outcome


def run_worker(
    connect: Optional[Tuple[str, int]] = None,
    spool: Union[str, Path, None] = None,
    worker_id: Optional[str] = None,
    cache: Union[AnyCache, bool, None] = False,
    poll: float = IDLE_POLL_SECONDS,
    max_jobs: Optional[int] = None,
    ready_timeout: float = 30.0,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerSummary:
    """One worker loop: lease → solve → report, until the sweep is done.

    Exactly one of ``connect`` (``(host, port)`` of an HTTP coordinator)
    or ``spool`` (the shared directory) selects the transport.  ``cache``
    follows the runtime-wide convention (default ``False``: workers often
    share the coordinator's filesystem cache, in which case pass its
    directory; the coordinator writes every outcome to *its* cache
    regardless, so a cacheless worker loses nothing).

    Jobs execute on this thread via :func:`run_solve_job` — the identical
    code path as ``--jobs N`` pools and inline runs, which is what keeps
    distributed results byte-identical.  A heartbeat thread keeps leases
    alive while a long job runs; kill the process and the heartbeat dies
    with it, which is how the coordinator learns to steal the lease.
    """
    if (connect is None) == (spool is None):
        raise ValueError("run_worker needs exactly one of connect= or spool=")
    worker = worker_id or default_worker_id()
    cache_obj = coerce_cache(cache)
    stall = _stall_for_tests()
    say = log or (lambda message: None)
    if connect is not None:
        return _run_worker_http(
            connect, worker, cache_obj, poll, max_jobs, ready_timeout, stall, say
        )
    return _run_worker_spool(
        Path(spool), worker, cache_obj, poll, max_jobs, ready_timeout, stall, say
    )


def _run_worker_http(
    connect: Tuple[str, int],
    worker: str,
    cache: AnyCache,
    poll: float,
    max_jobs: Optional[int],
    ready_timeout: float,
    stall: float,
    say: Callable[[str], None],
) -> WorkerSummary:
    host, port = connect
    summary = WorkerSummary(worker=worker)
    client = CoordinatorClient(host, port)
    client.wait_ready(ready_timeout)
    stop = threading.Event()
    interval = poll  # refined from the first lease's lease_timeout

    def beat() -> None:
        # Separate connection: http.client is not thread-safe and the main
        # thread owns `client`.
        hb = CoordinatorClient(host, port)
        while not stop.wait(beat.interval):  # type: ignore[attr-defined]
            try:
                hb.heartbeat(worker)
            except (OSError, RuntimeError, ValueError):
                hb.close()  # coordinator gone/unreachable; keep trying
        hb.close()

    beat.interval = max(interval, 0.05)  # type: ignore[attr-defined]
    heartbeat_thread = threading.Thread(target=beat, name=f"heartbeat-{worker}", daemon=True)
    heartbeat_thread.start()
    try:
        while True:
            try:
                response = client.lease(worker)
            except (OSError, RuntimeError) as exc:
                # The coordinator tears its server down the moment the last
                # job lands, so losing it mid-poll means the sweep is over
                # (or it crashed — either way there is nothing left to lease).
                say(f"[{worker}] coordinator gone ({exc}); exiting")
                break
            if response.get("done"):
                break
            job = response.get("job")
            if job is None:
                time.sleep(response.get("poll_seconds", poll))
                continue
            lease_timeout = response.get("lease_timeout")
            if lease_timeout:
                beat.interval = max(min(lease_timeout / 4.0, 5.0), 0.05)  # type: ignore[attr-defined]
            if stall:
                time.sleep(stall)
            outcome = _execute(job["payload"], cache)
            try:
                verdict = client.complete(worker, response.get("lease"), job["index"], outcome)
            except (OSError, RuntimeError) as exc:
                say(f"[{worker}] coordinator gone before complete ({exc}); exiting")
                break
            if verdict.get("duplicate"):
                summary.duplicates += 1
            else:
                summary.completed += 1
                if outcome.get("status") != "ok":
                    summary.failed += 1
            say(f"[{worker}] job {job['index']}: {outcome.get('status')}")
            if max_jobs is not None and summary.completed + summary.duplicates >= max_jobs:
                break
    finally:
        stop.set()
        heartbeat_thread.join(timeout=2.0)
        client.close()
    return summary


def _run_worker_spool(
    root: Path,
    worker: str,
    cache: AnyCache,
    poll: float,
    max_jobs: Optional[int],
    ready_timeout: float,
    stall: float,
    say: Callable[[str], None],
) -> WorkerSummary:
    paths = _SpoolPaths(root)
    summary = WorkerSummary(worker=worker)
    deadline = time.monotonic() + ready_timeout
    while not paths.meta.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no coordinator at spool {root} after {ready_timeout}s")
        time.sleep(min(poll, 0.1))
    while True:
        claimed: Optional[Path] = None
        for job_file in sorted(paths.jobs.glob("*.json")):
            target = paths.claims / job_file.name
            try:
                os.rename(job_file, target)  # atomic: exactly one winner
            except OSError:
                continue  # lost the race for this job; try the next
            claimed = target
            break
        if claimed is None:
            if paths.done.exists():
                break
            time.sleep(poll)
            continue
        try:
            data = json.loads(claimed.read_text())
            index, payload = int(data["index"]), data["payload"]
        except (OSError, ValueError, KeyError, TypeError):
            claimed.unlink(missing_ok=True)  # corrupt job file; drop the claim
            continue
        (paths.claims / f"{claimed.name}.worker").write_text(worker)
        stop = threading.Event()

        def keep_alive(path: Path = claimed, stop: threading.Event = stop) -> None:
            while not stop.wait(max(poll, 0.05)):
                try:
                    os.utime(path)
                except OSError:
                    return  # claim stolen and renamed away — stop touching
        heartbeat_thread = threading.Thread(
            target=keep_alive, name=f"heartbeat-{worker}", daemon=True
        )
        heartbeat_thread.start()
        try:
            if stall:
                time.sleep(stall)
            outcome = _execute(payload, cache)
        finally:
            stop.set()
            heartbeat_thread.join(timeout=2.0)
        atomic_write_text(
            paths.results / f"{index:08d}.json",
            json.dumps({"index": index, "worker": worker, "outcome": outcome}),
        )
        summary.completed += 1
        if outcome.get("status") != "ok":
            summary.failed += 1
        say(f"[{worker}] job {index}: {outcome.get('status')}")
        if max_jobs is not None and summary.completed >= max_jobs:
            break
    return summary
