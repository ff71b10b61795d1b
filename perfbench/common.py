"""Helpers shared by the workloads: statistics, memory, host stamp, paths."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: the checkout root: the benchmark always runs from it
ROOT = Path.cwd()

#: scratch space for caches, spans and result records (git-ignored)
WORK_DIR = ROOT / ".perfbench"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits non-zero when the checkout has no package sources, so a
    directory holding only the benchmark fails before printing a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    rank = q * (len(data) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def harrell_davis_median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A mean of all order statistics, weighted by how likely each one is to
    be the median of a fresh sample of the same size.  Where the sample
    mixes kinds of work with gaps between their times, the plain median
    jumps across a gap when a few values move; this one moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ data)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of ``pid`` (default: this process), in MB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return float("nan")


def _version(dist: str) -> Optional[str]:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the package sources (identifies the code measured even
    where the checkout is not a git repository)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def host_stamp() -> Dict[str, object]:
    """Where and on what a result was measured."""
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 32-bit seed for one generated input of a run."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def run_cycles(one_cycle: Callable[[Any], Dict[str, Any]], seconds: float,
               hook: Optional[Callable[[int, bool], bool]] = None,
               min_cycles: int = 1,
               prepare: Optional[Callable[[int], Any]] = None) -> List[Dict[str, Any]]:
    """Run cycles k = 0, 1, ... until ``seconds`` have passed and
    ``min_cycles`` ran.

    Cycle k calls ``one_cycle(prepare(k))`` (or ``one_cycle(k)``).
    ``prepare`` builds the cycle's inputs before ``hook(k, False)`` runs,
    so input generation is neither traced nor timed.  The hook returns
    whether the cycle is traced; ``hook(k, True)`` runs after it.  Each
    cycle record carries ``traced``.
    """
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(records) < min_cycles or time.perf_counter() - start < seconds:
        k = len(records)
        arg = prepare(k) if prepare else k
        traced = bool(hook(k, False)) if hook else False
        try:
            record = one_cycle(arg)
        finally:
            if hook:
                hook(k, True)
        record["traced"] = traced
        records.append(record)
    return records


def slot_times(cycles: List[Dict[str, Any]], key: str = "latencies_ms",
               probes: str = "probes_ms") -> List[float]:
    """Every slot's time at the host speed where the probe reads nominal.

    Cycles carry a ``draw``; cycles of one draw run the same inputs, so
    their i-th samples time the same work.  Each sample is divided by the
    host probe timed next to it (``cycle[probes][i]``, see
    ``hostprobe.py``) and scaled to ``PROBE_NOMINAL_MS``; a slot's time is
    the median of its repeats.  A slow episode of the host then slows the
    sample and its probe alike, whether it spoils a few samples or the
    whole run.
    """
    from hostprobe import PROBE_NOMINAL_MS

    by_draw: Dict[int, List[List[float]]] = {}
    for c in cycles:
        by_draw.setdefault(c["draw"], []).append(
            [PROBE_NOMINAL_MS * t / p for t, p in zip(c[key], c[probes])]
        )
    return [median(samples) for _draw, runs in sorted(by_draw.items())
            for samples in zip(*runs)]


def host_slowdown(cycles: List[Dict[str, Any]]) -> float:
    """Median probe time over its nominal: how slow the host ran."""
    from hostprobe import PROBE_NOMINAL_MS

    return median([p for c in cycles for p in c["probes_ms"]]) / PROBE_NOMINAL_MS
