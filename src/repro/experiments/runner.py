"""Experiment registry and drivers (ids match DESIGN.md / EXPERIMENTS.md).

``run_all_tolerant`` is the engine behind ``repro-experiments run all``:
it drives every experiment to a terminal :class:`SweepItem` — ``ok``,
``cached`` (served from the :mod:`repro.runtime` result cache), ``skipped``
(excluded up front) or ``failed`` — optionally fanning out across worker
processes.  Cache keys digest each experiment module's *source*, so editing
an experiment transparently invalidates its cached results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.experiments.records import ExperimentResult
from repro.experiments import (
    exp_ablation,
    exp_aon_lower_bound,
    exp_binpacking,
    exp_bypass,
    exp_extensions,
    exp_independent_set,
    exp_lower_bound_cycle,
    exp_lp_agreement,
    exp_pos_potential,
    exp_sat_reduction,
    exp_scenarios,
    exp_snd,
    exp_theorem6,
    exp_virtual_cost,
)

#: experiment id -> run(seed=...) callable
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": exp_lp_agreement.run,
    "E2": exp_theorem6.run,
    "E3": exp_lower_bound_cycle.run,
    "E4": exp_aon_lower_bound.run,
    "E5": exp_bypass.run,
    "E6": exp_binpacking.run,
    "E7": exp_independent_set.run,
    "E8": exp_sat_reduction.run,
    "E9": exp_pos_potential.run,
    "E10": exp_virtual_cost.run,
    "E11": exp_snd.run,
    "A1": exp_ablation.run,
    "A2": exp_extensions.run,
    "S1": exp_scenarios.run,
}


def run_experiment(experiment_id: str, seed: int = 0) -> ExperimentResult:
    """Run one experiment by id (raises KeyError for unknown ids)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key](seed=seed)


def run_all(seed: int = 0) -> List[ExperimentResult]:
    """Run every experiment in id order (aborts on the first failure)."""
    return [EXPERIMENTS[k](seed=seed) for k in EXPERIMENTS]


class RemoteFailure(RuntimeError):
    """An experiment failure transported back from a worker.

    ``str()`` is already the original ``"ExceptionType: message"`` line
    produced inside the worker, so renderers must show it verbatim
    instead of prefixing another class name (see :func:`error_text`).
    """


def error_text(error: BaseException) -> str:
    """One-line rendering of a sweep error, without double type prefixes."""
    if isinstance(error, RemoteFailure):
        return str(error)
    return f"{type(error).__name__}: {error}"


@dataclass
class SweepItem:
    """Outcome of one experiment inside a failure-tolerant sweep."""

    experiment_id: str
    result: Optional[ExperimentResult]
    error: Optional[BaseException]
    elapsed_seconds: float
    #: served from the result cache instead of re-running
    cached: bool = False
    #: excluded before running (``run all --skip``); not a failure
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.skipped

    @property
    def status(self) -> str:
        """``"ok"``, ``"cached"``, ``"skipped"`` or ``"failed"``."""
        if self.skipped:
            return "skipped"
        if self.error is not None:
            return "failed"
        return "cached" if self.cached else "ok"


def sweep_summary(items: List[SweepItem], seed: int = 0) -> dict:
    """Machine-readable summary of a tolerant sweep.

    The CLI writes this next to the human table (``run all --json-out``) so
    dashboards and CI can consume per-experiment status and wall time without
    scraping text.
    """
    return {
        "kind": "experiment-sweep-summary",
        "seed": seed,
        "passed": sum(1 for item in items if item.ok),
        "failed": sum(1 for item in items if item.status == "failed"),
        "skipped": sum(1 for item in items if item.skipped),
        "cache_hits": sum(1 for item in items if item.cached),
        "total_seconds": sum(item.elapsed_seconds for item in items),
        "experiments": [
            {
                "id": item.experiment_id,
                "ok": item.ok,
                "status": item.status,
                "seconds": item.elapsed_seconds,
                "headline": item.result.headline if item.ok and item.result else None,
                "families": _row_families(item),
                "error": error_text(item.error) if item.error is not None else None,
            }
            for item in items
        ],
    }


def _row_families(item: SweepItem) -> Optional[List[str]]:
    """Game-family names named by an experiment's per-instance rows.

    The scenario tour (S1) tags each row with the instance's game family;
    surfacing them here lets ``run all --json-out`` consumers see which
    families a sweep covered without parsing row tables.
    """
    if item.result is None:
        return None
    families = sorted(
        {str(row["family"]) for row in item.result.rows if "family" in row}
    )
    return families or None


def run_all_tolerant(
    seed: int = 0,
    jobs: int = 1,
    cache: object = False,
    timeout: Optional[float] = None,
    skip: Iterable[str] = (),
) -> List[SweepItem]:
    """Run every experiment, continuing past failures.

    Each item records the per-experiment wall-clock time and, when the
    experiment raised, the exception instead of a result.  The CLI uses
    this for ``run all`` so one broken experiment cannot hide the rest.

    Parameters
    ----------
    jobs:
        ``> 1`` fans experiments out across a :mod:`repro.runtime` process
        pool; ``1`` (default) runs them inline.
    cache:
        ``False`` disables the result cache (default, matching the legacy
        behaviour), ``None`` uses the default cache directory, or pass a
        :class:`repro.runtime.ResultCache`.  Cached items come back with
        ``status == "cached"`` and ``elapsed_seconds == 0`` (this run did
        no work; the original solve time remains inside the result).
    timeout:
        Per-experiment wall-clock budget in seconds.
    skip:
        Experiment ids excluded up front (``status == "skipped"``); skips
        are reported distinctly from failures and do not fail the sweep.
    """
    from repro.runtime.cache import cached_entry, coerce_cache, experiment_job_key
    from repro.runtime.runner import execute_payloads
    from repro.runtime.workers import experiment_source_digest, run_experiment_job

    skip_keys = {s.upper() for s in skip}
    unknown = sorted(skip_keys - set(EXPERIMENTS))
    if unknown:
        raise KeyError(
            f"cannot skip unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}"
        )
    store = coerce_cache(cache)  # type: ignore[arg-type]

    items: Dict[str, SweepItem] = {}
    pending: List[str] = []
    keys: Dict[str, str] = {}
    for key in EXPERIMENTS:
        if key in skip_keys:
            items[key] = SweepItem(key, None, None, 0.0, skipped=True)
            continue
        cache_key = keys[key] = experiment_job_key(
            key, seed, experiment_source_digest(key)
        )
        entry = cached_entry(store, cache_key, "result")
        if entry is not None:
            # elapsed_seconds is what *this run* spent (~nothing for a
            # hit); the original solve time stays inside the result's own
            # elapsed_seconds field for display.
            items[key] = SweepItem(
                key,
                ExperimentResult.from_json(entry["result"]),
                None,
                0.0,
                cached=True,
            )
        else:
            pending.append(key)

    payloads = [
        {"experiment": key, "seed": seed, "timeout": timeout} for key in pending
    ]
    for i, raw in execute_payloads(payloads, run_experiment_job, jobs=jobs):
        key = pending[i]
        if raw["status"] == "ok":
            result = ExperimentResult.from_json(raw["result"])
            items[key] = SweepItem(key, result, None, raw["elapsed_seconds"])
            try:
                store.put(
                    keys[key],
                    {
                        "kind": "experiment-entry",
                        "key": keys[key],
                        "status": "ok",
                        "result": raw["result"],
                        "elapsed_seconds": raw["elapsed_seconds"],
                    },
                )
            except OSError:
                pass  # unwritable cache degrades to uncached, not a crash
        else:
            # The worker already rendered "ExceptionType: message";
            # RemoteFailure carries it without re-prefixing a class name.
            error: BaseException = RemoteFailure(raw.get("error", "experiment failed"))
            if raw["status"] == "timeout":
                error = TimeoutError(raw.get("error", "experiment timed out"))
            items[key] = SweepItem(key, None, error, raw.get("elapsed_seconds", 0.0))
    return [items[key] for key in EXPERIMENTS]
