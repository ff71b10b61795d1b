"""The sweep runner: cache-aware parallel execution of expanded jobs.

:class:`SweepRunner` takes the flat job list produced by
:meth:`repro.runtime.spec.SweepSpec.expand` and drives it to completion:

1. **cache pass** — every job's content key is looked up in the
   :class:`~repro.runtime.cache.ResultCache`; hits are finished before any
   process spawns;
2. **execute pass** — misses run through
   :func:`repro.runtime.workers.run_solve_job`, inline for ``jobs <= 1``
   or on a ``ProcessPoolExecutor`` otherwise (fork start method where the
   platform offers it, so workers inherit the warm interpreter);
3. **store pass** — each successful outcome is written to the cache *as it
   completes*, which is what makes interrupted sweeps resumable.

Failures never abort the sweep: a job that raises or times out becomes a
``"failed"`` / ``"timeout"`` outcome and the remaining cells keep going.
Progress is observable live via the ``progress`` callback (the CLI renders
it to stderr).

Determinism: expansion is done before the runner sees anything, the same
worker function runs in every mode, and :meth:`SweepResult.to_json` strips
wall-clock timings — so the JSON result of a sweep is byte-identical
across ``--jobs 1``, ``--jobs N``, and warm-cache reruns.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.cache import (
    AnyCache,
    cached_entry,
    coerce_cache,
    instance_key_state,
    solve_job_key,
    store_solve_entry,
)
from repro.runtime.spec import SweepJob, jobs_from_instances
from repro.runtime.workers import run_solve_job
from repro.utils.hashing import UnhashablePayloadError
from repro.utils.jsonfmt import dumps_indented

JSONDict = Dict[str, Any]
ProgressFn = Callable[["JobOutcome", int, int], None]

#: outcome statuses a job can end in
STATUSES = ("ok", "failed", "timeout")

#: instance JSON kind -> game-family name (for sweep result records)
_KIND_FAMILY = {
    "broadcast-game": "broadcast",
    "multicast-game": "multicast",
    "network-design-game": "general",
    "weighted-game": "weighted",
    "directed-game": "directed",
}


def _pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool preferring the fork start method.

    Forked workers inherit the parent's already-imported numpy/scipy, so
    per-worker startup is milliseconds instead of a full interpreter boot;
    on platforms without fork (Windows) the default method is used.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(max_workers=max_workers, mp_context=ctx)


def sweep_job_keys(jobs: Sequence[SweepJob]) -> Dict[int, Optional[str]]:
    """The content-address of every sweep cell by job index (``None`` when
    uncacheable).

    Validates every solver name and option set against the registry as a
    side effect (raising :class:`~repro.api.registry.UnknownSolverError`
    or ``TypeError`` up front, before any work is scheduled or any cache
    entry is read).  The jobs of one grid cell share their
    instance payload, so each payload is encoded once
    (:func:`~repro.runtime.cache.instance_key_state`) for all its solvers.
    """
    from repro.api.registry import get_solver

    states: Dict[int, Any] = {}
    keys: Dict[int, Optional[str]] = {}
    for job in jobs:
        spec = get_solver(job.solver)
        spec.check_options(job.opts)
        try:
            state = states.get(id(job.instance))
            if state is None:
                state = states[id(job.instance)] = instance_key_state(job.instance)
            keys[job.index] = solve_job_key(
                job.instance, spec.name, spec.version, job.opts, state
            )
        except UnhashablePayloadError:
            keys[job.index] = None  # runnable, just not cacheable
    return keys


#: pool respawns tolerated per execute_payloads call before giving up
_MAX_POOL_RESPAWNS = 5

#: times one job may be implicated in a pool death before it is failed
_MAX_JOB_RETRIES = 2


def _abort_pool(
    pool: ProcessPoolExecutor,
    pending: Mapping[Any, int],
    salvage: Optional[Callable[[int, JSONDict], None]],
) -> None:
    """Hard-stop a pool mid-sweep without losing finished work.

    Three steps, in order: cancel everything still queued so no new job
    starts; hand results that workers *finished* but the consumer never
    consumed to ``salvage`` (the runner flushes them to the result cache);
    terminate the worker processes so the executor's exit join returns
    immediately.  A Ctrl-C therefore leaves neither orphaned worker
    processes nor a shutdown hang waiting on half-done solves — and every
    completed cell survives on disk for the resumed sweep.
    """
    # Snapshot the workers BEFORE shutdown(): the executor drops its
    # _processes reference during shutdown even with wait=False.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    if salvage is not None:
        for future, i in pending.items():
            if future.done() and not future.cancelled():
                try:
                    salvage(i, future.result())
                except Exception:  # noqa: BLE001 - salvage is best-effort
                    pass
    # ProcessPoolExecutor has no public "abandon running jobs"; killing the
    # (terminate-safe, side-effect-free) workers is the supported escape
    # hatch for interrupt handling.
    for process in processes:
        process.terminate()


def execute_payloads(
    payloads: Sequence[JSONDict],
    worker: Callable[[JSONDict], JSONDict],
    jobs: int = 1,
    salvage: Optional[Callable[[int, JSONDict], None]] = None,
) -> Iterator[Tuple[int, JSONDict]]:
    """Run ``worker(payload)`` for every payload, yielding ``(index, outcome)``.

    ``jobs <= 1`` runs inline (same code path, no processes); otherwise a
    process pool executes them and outcomes are yielded as they complete —
    out of order, which is why the index travels with the outcome.

    A worker dying (segfault, OOM kill) breaks the whole pool, failing
    every in-flight future without telling us which job was the culprit —
    so all implicated jobs are retried on a fresh pool, up to
    ``_MAX_JOB_RETRIES`` implications per job and ``_MAX_POOL_RESPAWNS``
    respawns per call.  The repeatedly implicated culprit ends up
    ``"failed"`` while healthy cells still complete: one bad cell cannot
    take the whole sweep down with it.

    On interruption — ``KeyboardInterrupt`` while waiting, an exception in
    the consumer, or an explicit ``gen.close()`` — the pool is torn down
    hard (queued jobs cancelled, workers terminated) and any outcomes that
    finished without being yielded are passed to ``salvage(index, outcome)``
    so the caller can still persist them.
    """
    if jobs <= 1 or len(payloads) <= 1:
        for i, payload in enumerate(payloads):
            yield i, worker(payload)
        return

    queued: List[int] = list(range(len(payloads)))
    retries: Dict[int, int] = {}
    respawns = 0
    while queued:
        implicated: Dict[int, str] = {}
        pending: Dict[Any, int] = {}
        with _pool(min(jobs, len(queued))) as pool:
            try:
                for i in queued:
                    pending[pool.submit(worker, payloads[i])] = i
                queued = []
                while pending:
                    done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                    for future in done:
                        i = pending.pop(future)
                        try:
                            yield i, future.result()
                        except Exception as exc:  # noqa: BLE001 - pool breakage
                            implicated[i] = f"{type(exc).__name__}: {exc}"
                    if implicated:
                        # The pool is broken; everything still pending will
                        # fail the same way the moment we wait on it.
                        implicated.update(
                            (i, "worker pool died") for i in pending.values()
                        )
                        break
            except BaseException:
                # Interrupt / consumer error / generator close: salvage
                # finished-but-unseen outcomes, then stop the pool dead so
                # the ``with`` exit does not block on running solves.
                _abort_pool(pool, pending, salvage)
                raise
        if not implicated:
            continue
        respawns += 1
        exhausted = respawns > _MAX_POOL_RESPAWNS
        for i in sorted(implicated):
            retries[i] = retries.get(i, 0) + 1
            if exhausted or retries[i] >= _MAX_JOB_RETRIES:
                yield i, {
                    "status": "failed",
                    "error": f"worker process died ({implicated[i]})",
                    "elapsed_seconds": 0.0,
                }
            else:
                queued.append(i)


@dataclass
class JobOutcome:
    """Terminal state of one sweep job."""

    job: SweepJob
    #: ``"ok"``, ``"failed"`` or ``"timeout"``
    status: str
    #: the result was served from the cache (status is necessarily ``"ok"``)
    cached: bool = False
    #: content-address of the cell; ``None`` when the options are uncacheable
    key: Optional[str] = None
    #: full report JSON (``report_to_json`` shape) when ``status == "ok"``
    report: Optional[JSONDict] = None
    error: Optional[str] = None
    #: solve time for fresh runs; the *original* solve time for cache hits
    elapsed_seconds: float = 0.0
    #: False when a requested timeout could not be armed on this platform
    #: (no SIGALRM / non-main thread); deliberately absent from to_json()
    timeout_enforced: bool = True

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepResult:
    """Every outcome of one sweep, in job order."""

    outcomes: List[JobOutcome]
    #: end-to-end runner time (cache pass + execution), in seconds
    wall_seconds: float = 0.0
    cache_root: Optional[str] = None

    def __iter__(self) -> Iterator[JobOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def ok(self) -> bool:
        """True when every job finished with an ``"ok"`` outcome."""
        return all(o.ok for o in self.outcomes)

    def to_json(self) -> JSONDict:
        """Deterministic plain-data form of the sweep's *results*.

        Wall-clock times and cache provenance are deliberately excluded:
        this payload is byte-identical across ``--jobs 1`` / ``--jobs N``
        and cold / warm cache runs of the same sweep (timings live in the
        text summary instead).

        This materializes every job record at once; large sweeps should
        prefer :meth:`write_json`, which streams the identical bytes one
        record at a time.
        """
        return {
            "kind": "sweep-result",
            "schema": SWEEP_RESULT_SCHEMA,
            "jobs": [job_record(o) for o in self.outcomes],
        }

    def write_json(self, sink: Union[str, Path, IO[str]]) -> None:
        """Stream the :meth:`to_json` payload to ``sink``, one job at a time.

        Byte-identical to the stdlib's two-space indented, key-sorted dump
        of :meth:`to_json` plus a trailing newline — the ``--json-out``
        contract — but memory stays one record, not the whole report list.
        ``sink`` is a path or an open text file.
        """
        dumped = (dump_job_record(job_record(o)) for o in self.outcomes)
        if hasattr(sink, "write"):
            write_sweep_json(sink, dumped)  # type: ignore[arg-type]
        else:
            with open(sink, "w") as fh:
                write_sweep_json(fh, dumped)

    def summary_text(self) -> str:
        """The human sweep summary (counts, timings, cache hits)."""
        n = len(self.outcomes)
        parts = [f"{n} job{'s' if n != 1 else ''}: {self.count('ok')} ok"]
        if self.cache_hits:
            parts[-1] += f" ({self.cache_hits} cached)"
        for status in ("failed", "timeout"):
            if self.count(status):
                parts.append(f"{self.count(status)} {status}")
        solve_time = sum(o.elapsed_seconds for o in self.outcomes if not o.cached)
        parts.append(f"wall {self.wall_seconds:.2f}s (solve {solve_time:.2f}s)")
        return " · ".join(parts)


#: ``sweep-result`` payload schema (bump when the record shape changes)
SWEEP_RESULT_SCHEMA = 3


def job_record(o: JobOutcome) -> JSONDict:
    """The deterministic per-job record of the ``sweep-result`` payload.

    Shared by :meth:`SweepResult.to_json`, the streaming
    :meth:`SweepResult.write_json` writer and the distributed
    coordinator's incremental spool — one definition is what makes the
    single-host and N-worker ``--json-out`` files byte-identical.
    """
    return {
        "label": o.job.label,
        "solver": o.job.solver,
        "family": _KIND_FAMILY.get(o.job.instance.get("kind")),
        "key": o.key,
        "status": o.status,
        # schema 3: engine/LP work counters lifted out of the
        # report metadata (None for solvers that don't emit them)
        "profile": _profile_of(o.report),
        "report": _strip_wall_clock(o.report),
        "error": o.error,
    }


def dump_job_record(record: JSONDict) -> str:
    """One record serialized exactly as the full canonical dump would."""
    return dumps_indented(record, sort_keys=True)


def write_sweep_json(fh: IO[str], dumped_records: Iterable[str]) -> None:
    """Emit a ``sweep-result`` JSON document from pre-dumped job records.

    Pastes each :func:`dump_job_record` string into the enclosing document
    at the right indentation, producing bytes identical to the stdlib's
    two-space indented, key-sorted dump of ``{"kind": ..., "schema": ...,
    "jobs": [...]}`` followed by a newline — without ever holding more
    than one record in memory.  (Top-level keys are emitted in sorted
    order by hand: ``jobs`` < ``kind`` < ``schema``.)
    """
    fh.write('{\n  "jobs": [')
    n = 0
    for dumped in dumped_records:
        if n:
            fh.write(",")
        fh.write("\n    " + dumped.replace("\n", "\n    "))
        n += 1
    fh.write("\n  ]," if n else "],")
    fh.write(f'\n  "kind": "sweep-result",\n  "schema": {SWEEP_RESULT_SCHEMA}\n}}\n')


def _strip_wall_clock(report: Optional[JSONDict]) -> Optional[JSONDict]:
    """Drop the wall clock and the (lifted) profile from a job's report copy."""
    if report is None:
        return None
    out = {k: v for k, v in report.items() if k != "wall_clock_seconds"}
    metadata = out.get("metadata")
    if isinstance(metadata, dict) and "profile" in metadata:
        out["metadata"] = {k: v for k, v in metadata.items() if k != "profile"}
    return out


def _profile_of(report: Optional[JSONDict]) -> Optional[JSONDict]:
    """The solver's oracle/LP work counters, when the report carries them.

    The LP-backed SNE solvers record ``metadata["profile"]`` (see
    :class:`repro.games.engine.OracleStats`): dijkstra_calls,
    players_batched, cut_rounds and warm_start_hits for that solve.
    Deterministic for a fixed instance/solver/version, so lifting it into
    the per-job records keeps the sweep JSON byte-identical across job
    counts and cache states.
    """
    if report is None:
        return None
    metadata = report.get("metadata")
    if not isinstance(metadata, dict):
        return None
    return metadata.get("profile")


class SweepRunner:
    """Executes expanded sweep jobs with caching, parallelism and timeouts.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs inline in this process.
    cache:
        A :class:`ResultCache`, ``None`` for the default cache directory,
        or ``False`` / a :class:`NullCache` to disable caching entirely.
    timeout:
        Per-job wall-clock budget in seconds (enforced inside workers via
        ``SIGALRM`` where the platform supports it).
    progress:
        ``progress(outcome, done, total)`` fired after every job —
        cache hits included — in completion order.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[AnyCache, bool, None] = None,
        timeout: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache: AnyCache = coerce_cache(cache)
        self.timeout = timeout
        self.progress = progress

    def _store(
        self, job: SweepJob, key: str, report: Optional[JSONDict], elapsed: float
    ) -> None:
        store_solve_entry(self.cache, key, job.solver, report, elapsed)

    # -- execution ----------------------------------------------------------

    def run(self, sweep_jobs: Sequence[SweepJob]) -> SweepResult:
        """Drive every job to a terminal outcome (never raises per-job)."""
        start = time.perf_counter()
        total = len(sweep_jobs)
        done = 0
        outcomes: Dict[int, JobOutcome] = {}
        misses: List[SweepJob] = []
        keys = sweep_job_keys(sweep_jobs)

        def finish(outcome: JobOutcome) -> None:
            nonlocal done
            outcomes[outcome.job.index] = outcome
            done += 1
            if self.progress is not None:
                self.progress(outcome, done, total)

        # 1. cache pass (the keys validated every solver name and option set
        # up front)
        for job in sweep_jobs:
            key = keys[job.index]
            entry = cached_entry(self.cache, key)
            if entry is not None:
                finish(
                    JobOutcome(
                        job=job,
                        status="ok",
                        cached=True,
                        key=key,
                        report=entry["report"],
                        elapsed_seconds=entry.get("elapsed_seconds", 0.0),
                    )
                )
            else:
                misses.append(job)

        # 2 + 3. execute misses, caching each success as it completes
        payloads = [
            {
                "instance": job.instance,
                "solver": job.solver,
                "opts": job.opts,
                "timeout": self.timeout,
            }
            for job in misses
        ]
        def salvage(i: int, raw: JSONDict) -> None:
            # Interrupt path: a worker finished this job but the consumer
            # loop never saw it — flush it to the cache anyway, so the
            # resumed sweep starts from everything that actually completed.
            job = misses[i]
            key = keys[job.index]
            if raw.get("status") == "ok" and key is not None:
                self._store(job, key, raw.get("report"), raw.get("elapsed_seconds", 0.0))

        producer = execute_payloads(
            payloads, run_solve_job, jobs=self.jobs, salvage=salvage
        )
        try:
            for i, raw in producer:
                job = misses[i]
                key = keys[job.index]
                outcome = JobOutcome(
                    job=job,
                    status=raw["status"],
                    key=key,
                    report=raw.get("report"),
                    error=raw.get("error"),
                    elapsed_seconds=raw.get("elapsed_seconds", 0.0),
                    timeout_enforced=raw.get("timeout_enforced", True),
                )
                if outcome.ok and key is not None:
                    self._store(job, key, outcome.report, outcome.elapsed_seconds)
                finish(outcome)
        finally:
            # A KeyboardInterrupt in *this* loop's body (cache write,
            # progress callback) must still tear the pool down; closing the
            # generator raises GeneratorExit at its yield point, which runs
            # the same salvage-and-terminate cleanup as an interrupt inside.
            producer.close()

        ordered = [outcomes[i] for i in sorted(outcomes)]
        root = getattr(self.cache, "root", None)
        return SweepResult(
            outcomes=ordered,
            wall_seconds=time.perf_counter() - start,
            cache_root=str(root) if root else None,
        )


# ---------------------------------------------------------------------------
# solve_many's engine
# ---------------------------------------------------------------------------


def run_solve_batch(
    instances: Sequence[Any],
    solvers: Sequence[str],
    opts: Optional[Mapping[str, Any]] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
    cache: Union[AnyCache, bool, None] = False,
    timeout: Optional[float] = None,
):
    """The engine behind :func:`repro.api.solve_many`.

    ``executor="thread"`` keeps instances as live objects (states allowed,
    nothing serialized, no caching) and fans out over a thread pool —
    cheap, and fine for the many solvers that release little of the GIL
    only briefly.  ``executor="process"`` serializes every instance
    (games only), runs through :class:`SweepRunner` — gaining true
    multi-core execution, per-job timeouts and the result cache — and
    rehydrates the canonical reports.

    Returns the ``grid[i][j]`` = solver ``j`` on instance ``i`` nested-list
    shape in both modes.
    """
    from repro.api.facade import solve
    from repro.api.registry import get_solver

    names = list(solvers)
    for name in names:
        get_solver(name)  # fail fast before launching any work
    kwargs = dict(opts or {})
    n_workers = workers or 1

    if executor == "thread":
        if cache is not False or timeout is not None:
            # Silently ignoring these would look like they were active.
            raise ValueError(
                "cache= and timeout= require executor='process' "
                "(the thread executor shares live objects and cannot "
                "content-address or bound jobs)"
            )
        from concurrent.futures import ThreadPoolExecutor

        jobs = [
            (i, j, instance, name)
            for i, instance in enumerate(instances)
            for j, name in enumerate(names)
        ]
        grid: List[List[Any]] = [[None] * len(names) for _ in range(len(instances))]
        if n_workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = {
                    pool.submit(solve, instance, name, **kwargs): (i, j)
                    for i, j, instance, name in jobs
                }
                for future, (i, j) in futures.items():
                    grid[i][j] = future.result()
        else:
            for i, j, instance, name in jobs:
                grid[i][j] = solve(instance, name, **kwargs)
        return grid

    if executor != "process":
        raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")

    from repro.api import serialize

    payloads = []
    for instance in instances:
        try:
            payloads.append(serialize.game_to_json(instance))
        except TypeError as exc:
            raise TypeError(
                "executor='process' needs serializable game instances "
                "(any repro.games family: broadcast/multicast/general/"
                "weighted/directed); pass games or use "
                f"executor='thread' — {exc}"
            ) from None
    sweep_jobs = jobs_from_instances(payloads, names, opts=kwargs)
    result = SweepRunner(
        jobs=n_workers, cache=cache, timeout=timeout
    ).run(sweep_jobs)
    bad = next((o for o in result if not o.ok), None)
    if bad is not None:
        raise RuntimeError(f"sweep job {bad.job.label!r} {bad.status}: {bad.error}")
    reports = [serialize.report_from_json(o.report) for o in result]
    k = len(names)
    return [reports[i * k : (i + 1) * k] for i in range(len(instances))]
