"""Append-only benchmark trajectories: the ``BENCH_*.json`` files at the repo root.

Each gated benchmark run appends one record, stamped with the host it ran
on (CPU count, Python, numpy and scipy versions, and the HiGHS version
scipy bundles) so that records from different machines or toolchains are
not compared as if alike.  LP (2)'s optimal vertex depends on how that
HiGHS pivots, so its version is part of the toolchain.
"""

import json
import os
import platform
from pathlib import Path

import numpy
import scipy

from repro.lp.backends.highs import HIGHS_VERSION


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": HIGHS_VERSION,
    }


def append_trajectory(path: Path, entry: dict) -> None:
    """Append ``entry`` plus a ``host`` stamp to the JSON list at ``path``."""
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append({**entry, "host": host_info()})
    path.write_text(json.dumps(history, indent=2) + "\n")
