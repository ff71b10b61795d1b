"""Distributed sweep benchmark — worker scaling, steals, byte-identity.

The acceptance bar for :mod:`repro.runtime.distributed`, on a 12-job
``aon-exact`` grid (per-job cost a few hundred ms, so protocol overhead is
a rounding error):

* ``--json-out`` bytes are identical across a single-host sweep, a
  1-worker distributed run, and a 4-worker run with one worker SIGKILLed
  mid-lease (asserted unconditionally, everywhere);
* 4 workers clear >= ``REPRO_BENCH_DIST_MIN``x (default 1.7x) the 1-worker
  jobs/s on a >= 4-core machine (the ratio gate skips itself under plain
  CI, following the repo's benchmark convention);
* each gated run appends a record to ``BENCH_distributed.json`` at the
  repo root — jobs/s at 1 vs 2 vs 4 workers, steal counts from the kill
  run, and the coordinator's peak-RSS ceiling.

Throughput is measured as the coordinator's ``jobs_per_second`` — fresh
completions over the first-lease -> finish window — so worker-interpreter
boot time does not pollute the scaling ratio.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import SweepRunner, SweepSpec
from repro.runtime.distributed import STALL_ENV, SweepCoordinator
from repro.utils.resources import peak_rss_bytes

from _trajectory import append_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_distributed.json"

#: 4 workers must reach this multiple of the 1-worker jobs/s
DIST_MIN = float(os.environ.get("REPRO_BENCH_DIST_MIN", "1.7"))

#: plain CI without an explicit threshold: run everything except the gate
_SKIP_TIMING = (
    os.environ.get("CI", "") != "" and "REPRO_BENCH_DIST_MIN" not in os.environ
)

#: the acceptance grid: 12 aon-exact cells heavy enough to parallelize
GRID = dict(
    solvers=["aon-exact"],
    models=["tree-chords"],
    sizes=[56, 64],
    count=6,
    seed=11,
)

#: filled by the kill test, folded into the trajectory record by the gate
KILL_RECORD = {}


def expand():
    return SweepSpec(**GRID).expand()


def start_workers(host, port, count, stall=None, name="w"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if stall is not None:
        env[STALL_ENV] = str(stall)
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep-worker",
                "--connect", f"{host}:{port}", "--id", f"{name}{i}",
                "--no-cache", "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(count)
    ]


def run_distributed(tmp_path, n_workers, lease_timeout=None, kill_stalled=False):
    """One coordinated run with ``n_workers`` real worker processes.

    With ``kill_stalled`` a stalled victim worker leases a job first and is
    SIGKILLed holding it, so the run exercises lease expiry + reassignment.
    """
    out = tmp_path / f"dist-{n_workers}{'-kill' if kill_stalled else ''}.json"
    coordinator = SweepCoordinator(
        expand(), cache=False, json_out=out, lease_timeout=lease_timeout
    )
    host, port = coordinator.serve("127.0.0.1", 0)
    victim = None
    try:
        if kill_stalled:
            victim = start_workers(host, port, 1, stall=300, name="victim")[0]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if coordinator.stats_json()["jobs"]["leased"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("victim never leased a job")
            victim.kill()
            victim.wait(timeout=30)
        workers = start_workers(host, port, n_workers)
        result = coordinator.run()
        for proc in workers:
            proc.wait(timeout=120)
    finally:
        if victim is not None and victim.poll() is None:
            victim.kill()
    return result, out.read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The single-host run: the byte oracle every distributed run must hit."""
    path = tmp_path_factory.mktemp("reference") / "single.json"
    result = SweepRunner(cache=False).run(expand())
    assert result.ok
    result.write_json(path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# byte-identity (no gate: runs everywhere, CI included)
# ---------------------------------------------------------------------------


def test_one_worker_byte_identical(reference, tmp_path):
    result, got = run_distributed(tmp_path, 1)
    assert result.ok, result.summary_text()
    assert result.stolen == 0 and result.duplicates == 0
    assert got == reference


def test_four_workers_with_kill_byte_identical(reference, tmp_path):
    result, got = run_distributed(
        tmp_path, 4, lease_timeout=1.5, kill_stalled=True
    )
    assert result.ok, result.summary_text()
    assert result.stolen >= 1, "the SIGKILLed lease was never reassigned"
    assert got == reference
    KILL_RECORD.update(
        stolen=result.stolen,
        duplicates=result.duplicates,
        victim_stolen_from=result.workers.get("victim0", {}).get("stolen_from"),
    )
    # Recorded here as well as in the gated entry, so the trajectory (and
    # the CI artifact) exists even where the scaling gate skips itself.
    append_trajectory(
        TRAJECTORY,
        {
            "bench": "distributed-kill",
            "timestamp": time.time(),
            "grid": {**GRID, "jobs": len(expand())},
            "workers": 4,
            "byte_identical": True,
            **KILL_RECORD,
            "jobs_per_second": result.jobs_per_second,
            "coordinator_peak_rss_bytes": peak_rss_bytes(),
        }
    )


# ---------------------------------------------------------------------------
# the scaling gate + the BENCH_distributed.json trajectory record
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    _SKIP_TIMING,
    reason="wall-clock ratio gate needs a quiet machine or an explicit "
    "REPRO_BENCH_DIST_MIN threshold (the CI distributed-smoke job sets one)",
)
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="multi-worker scaling needs >= 4 cores",
)
def test_four_workers_scale_jobs_per_second(reference, tmp_path):
    """Gate 4-vs-1 worker throughput and append the trajectory record."""
    rates = {}
    for n in (1, 2, 4):
        result, got = run_distributed(tmp_path, n)
        assert result.ok, result.summary_text()
        assert got == reference, f"{n}-worker bytes diverged from single-host"
        rates[n] = result.jobs_per_second
    ratio = rates[4] / max(rates[1], 1e-9)

    append_trajectory(
        TRAJECTORY,
        {
            "bench": "distributed",
            "timestamp": time.time(),
            "threshold": DIST_MIN,
            "grid": {**GRID, "jobs": len(expand())},
            "jobs_per_second": {"1": rates[1], "2": rates[2], "4": rates[4]},
            "speedup_4v1": ratio,
            "kill_run": dict(KILL_RECORD) or None,
            "coordinator_peak_rss_bytes": peak_rss_bytes(),
        }
    )
    assert ratio >= DIST_MIN, (
        f"4 workers {rates[4]:.1f} jobs/s vs 1 worker {rates[1]:.1f} jobs/s "
        f"-> {ratio:.2f}x (< {DIST_MIN}x)"
    )
