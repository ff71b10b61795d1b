"""Self-test of the benchmark at a tiny size.

Run from the checkout root (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` has the expected shape; that every
workload, traced and untraced, prints every metric ``BENCHMARK.json``
names with its unit and exits 0; that a deliberately corrupted output
trips each workload's correctness check (non-zero exit, ``correct``
false); and that a directory holding only the benchmark fails without
printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-exact", "serve-mixed", "sweep-grid", "scale-approx")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: List[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    assert lines, "no output"
    return json.loads(lines[-1])


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_metrics(result: dict, expected: List[dict], positive: bool) -> None:
    assert set(result) == RESULT_KEYS, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    got = result["metrics"]
    assert list(got) == [m["name"] for m in expected], sorted(set(got) ^ {m["name"] for m in expected})
    for m in expected:
        value = got[m["name"]]
        assert set(value) == {"value", "unit"}, value
        assert value["unit"] == m["unit"], (m["name"], value["unit"])
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), m
        if positive:
            assert value["value"] > 0, (m["name"], value["value"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("BENCHMARK.json: ok")
    base = ["--seed", "3", "--seconds", "1", "--tiny"]
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(["--workload", workload, "--trace", str(trace), *base])
            assert proc.returncode == 0, (workload, trace, proc.stdout[-3000:], proc.stderr[-3000:])
            result = last_json(proc.stdout)
            assert result["correct"] and result["failed"] == 0, result
            check_metrics(result, expected, positive=trace == 0)
            print(f"{workload} --trace {trace}: {len(expected)} metrics with units")
        proc = run(["--workload", workload, "--trace", "0", "--corrupt", *base])
        result = last_json(proc.stdout)
        assert proc.returncode != 0 and not result["correct"] and result["failed"] >= 1, (
            workload, proc.returncode, result)
        print(f"{workload} --corrupt: check tripped ({result['failed']} failed)")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "solve-exact", "--trace", "0", *base], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print("benchmark-only directory: fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
