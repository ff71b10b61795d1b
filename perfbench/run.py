"""The repo benchmark: one command, four workloads, end to end and per layer.

Run from the checkout root::

    python3 perfbench/run.py --workload solve-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same work twice, untraced then with the layer
tracer installed, and prints every per-layer metric.  Human-readable lines
come first; the last line of standard output is the JSON result.  The
exit code is non-zero when any correctness check fails.

Every run spawns its workload in child processes: ``SETUP_PROBES``
processes that only set up (imports, inputs, daemon start) and exit, then
one that sets up and measures.  ``setup_s`` is the median, over all of
them, of the time from spawning the process to its ready line, scaled by
the host probe each process runs right after that line (``hostprobe.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from common import (
    ROOT,
    WORK_DIR,
    host_slowdown,
    host_stamp,
    median,
    peak_rss_mb,
    percentile,
    use_checkout_sources,
)

#: workload name -> (module, class, modules imported during set-up)
WORKLOADS = {
    "solve-exact": ("solve_exact", "SolveExact", ("repro.api", "repro.scenarios")),
    "serve-mixed": ("serve_mixed", "ServeMixed", ("repro.api", "repro.scenarios")),
    "sweep-grid": ("sweep_grid", "SweepGrid", ("repro.api", "repro.runtime")),
    "scale-approx": ("scale_approx", "ScaleApprox", ("repro.scenarios", "repro.subsidies")),
}

SETUP_PROBES = 2
DEADLINE_S = 170.0
READY = "PERFBENCH-READY"
HOST_SCALE = "PERFBENCH-HOST-SCALE "
#: probes a child runs after its ready line; their median scales set-up
HOST_PROBES = 5
RESULT = "PERFBENCH-RESULT "


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child side: set up, measure, check
# ---------------------------------------------------------------------------


EMPTY_SNAPSHOT: Dict[str, Any] = {"spans": {}, "samples": {}, "raw": [], "counts": {}}


def _serve_layers(session: Dict[str, Any]) -> Dict[str, float]:
    """Daemon-side figures of a traced serve session, per request.

    Each request is matched to the ``SolverService.solve_json`` span that
    ran inside its round trip (``perf_counter`` is one system-wide
    monotonic clock on Linux, so the daemon's timestamps compare with the
    client's).  Transport is the round trip minus the handler span; a
    request without a matched span leaves its round trip unexplained.
    """
    spans = session["spans"] or EMPTY_SNAPSHOT
    handler = sorted(
        (start, end) for key, start, end, _tid in spans["raw"] if key == "serve.handler"
    )
    used = set()
    transport: List[float] = []
    matched_rtt = matched_handler = 0.0
    for send, recv in sorted(session["rtt_s"]):
        for j, (start, end) in enumerate(handler):
            if j in used or start < send:
                continue
            if start > recv:
                break
            if end <= recv:
                used.add(j)
                transport.append(1000.0 * ((recv - send) - (end - start)))
                matched_rtt += recv - send
                matched_handler += end - start
                break
    stats = session["stats"]
    counters = stats.get("counters", {})
    hits = counters.get("result_cache_hits", 0)
    misses = counters.get("result_cache_misses", 0)
    requests = max(1, session["units"])
    daemon_self = sum(v[2] for v in spans["spans"].values())
    lag_s = sum(session["lag_ms"]) / 1000.0
    explained = lag_s + (matched_rtt - matched_handler) + daemon_self
    return {
        "serve.rtt_ms_p50": median([1000.0 * (r - s) for s, r in session["rtt_s"]]),
        "serve.handler_ms_p50": 1000.0 * median(spans["samples"].get("serve.handler", [0.0])),
        "serve.transport_ms_p50": median(transport) if transport else 0.0,
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.rejected": stats.get("admission", {}).get("rejected", 0),
        "serve.coalesced_joins": counters.get("coalesced_joins", 0),
        "games.dijkstra_calls": counters.get("engine_dijkstra_calls", 0) / requests,
        "games.players_batched": counters.get("engine_players_batched", 0) / requests,
        "loadgen.lag_ms_p99": percentile(session["lag_ms"], 0.99),
        "trace.unexplained_ratio": 1.0 - explained / session["busy_s"],
    }


def layer_metrics(workload: Any, cycles: List[Dict[str, Any]], snap: Dict[str, Any],
                  import_ms: float) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload does not use the layer.

    Times are self times per unit of the traced cycles, in ms; counts are
    per unit too.  A unit is one solve, request, sweep job or instance.
    """
    traced = [c for c in cycles if c["traced"]]
    untraced = [c for c in cycles if not c["traced"]]
    units = max(1, sum(c["units"] for c in traced))
    spans = snap["spans"]
    counts = snap["counts"]
    samples = snap["samples"]

    def self_ms(*keys: str) -> float:
        return 1000.0 * sum(spans.get(k, (0, 0.0, 0.0))[2] for k in keys) / units

    def calls(*keys: str) -> float:
        return sum(spans.get(k, (0, 0.0, 0.0))[0] for k in keys) / units

    def p50_ms(key: str) -> float:
        values = samples.get(key)
        return 1000.0 * median(values) if values else 0.0

    def work_per_unit(group: List[Dict[str, Any]]) -> float:
        return median([c.get("work_s", c["busy_s"]) / c["units"] for c in group])

    subsidies = [k for k in spans if k.startswith("subsidies.")]
    out = {
        "setup.import_ms": import_ms,
        "api.deserialize_ms": self_ms("api.deserialize"),
        "api.serialize_ms": self_ms("api.serialize"),
        "api.canonical_ms": self_ms("api.canonical"),
        "api.solve_ms": self_ms("api.solve"),
        "scenarios.build_ms": self_ms("scenarios.build"),
        "games.target_state_ms": self_ms("games.target_state"),
        "games.engine_build_ms": self_ms("games.engine_build"),
        "games.scan_ms": self_ms("games.scan"),
        "games.scan_calls": calls("games.scan"),
        "games.verify_ms": self_ms("games.verify"),
        "games.dijkstra_calls": 0.0,
        "games.players_batched": 0.0,
        "lp.assemble_ms": self_ms("lp.assemble"),
        "lp.rows": calls("lp.assemble"),
        "lp.solve_ms": self_ms("lp.solve"),
        "lp.solve_calls": calls("lp.solve"),
        "lp.cut_rounds": counts.get("lp.cut_rounds", 0) / units,
        "lp.cuts": counts.get("lp.cuts", 0) / units,
        "subsidies.self_ms": self_ms(*subsidies),
        "subsidies.sne-lp1.ms_p50": p50_ms("subsidies.sne-lp1"),
        "subsidies.sne-lp2.ms_p50": p50_ms("subsidies.sne-lp2"),
        "subsidies.sne-lp3.ms_p50": p50_ms("subsidies.sne-lp3"),
        "subsidies.approx_solve_ms": self_ms("subsidies.approx_solve"),
        "subsidies.approx_rounds": counts.get("subsidies.approx_rounds", 0) / units,
        "runtime.run_ms": self_ms("runtime.run"),
        "runtime.cache_get_ms": self_ms("runtime.cache_get"),
        "runtime.cache_put_ms": self_ms("runtime.cache_put"),
        "runtime.record_ms": self_ms("runtime.record"),
        "runtime.worker_busy_ms": 0.0,
        "runtime.parent_overhead_ms": 0.0,
        "serve.rtt_ms_p50": 0.0,
        "serve.handler_ms_p50": 0.0,
        "serve.transport_ms_p50": 0.0,
        "serve.handler_self_ms": self_ms("serve.handler"),
        "serve.intern_ms": self_ms("serve.intern"),
        "serve.cache_hit_ratio": 0.0,
        "serve.rejected": 0.0,
        "serve.coalesced_joins": 0.0,
        "loadgen.lag_ms_p99": 0.0,
        "trace.unexplained_ratio": 1.0
        - sum(v[2] for v in spans.values()) / sum(c["busy_s"] for c in traced),
        "trace.overhead_ratio": work_per_unit(traced) / work_per_unit(untraced),
        "warm_solves_per_s": 0.0,
        "gap_rel_mean": 0.0,
    }
    if hasattr(workload, "layer_extras"):
        out.update(workload.layer_extras(traced))
    if workload.name == "serve-mixed":
        out.update(_serve_layers(traced[0]))
    if hasattr(workload, "e2e_extras"):
        out.update(workload.e2e_extras(untraced))
    return out


def e2e_metrics(workload: Any, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
    summary = workload.summary(cycles)
    rss = [c["peak_rss_mb"] for c in cycles if c.get("peak_rss_mb")]
    return {**summary, "peak_rss_mb": max(rss) if rss else peak_rss_mb()}


def _alternate(tracer: Any) -> Any:
    """A cycle hook that installs the tracer for every odd cycle."""
    from tracer import install

    installed: List[Any] = []

    def hook(k: int, after: bool) -> bool:
        if after:
            while installed:
                installed.pop().remove()
            return False
        if k % 2:
            installed.append(install(tracer))
            return True
        return False

    return hook


def child(args: argparse.Namespace) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    use_checkout_sources()
    module_name, class_name, imports = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for name in imports:
        importlib.import_module(name)
    import_ms = 1000.0 * (time.perf_counter() - t0)
    cls = getattr(importlib.import_module(module_name), class_name)
    workload = cls(args.seed, tiny=args.tiny)
    try:
        print(READY, flush=True)
        from hostprobe import PROBE_NOMINAL_MS, probe

        host_ms = median([probe() for _ in range(HOST_PROBES)])
        print(HOST_SCALE + repr(PROBE_NOMINAL_MS / host_ms), flush=True)
        if args.phase == "setup":
            return 0
        snap = EMPTY_SNAPSHOT
        started = time.perf_counter()
        if not args.trace:
            cycles = workload.measure(args.seconds)
        elif workload.name == "serve-mixed":
            # Tracing lives in a second daemon: one untraced session, then
            # the same schedule against the traced launcher.
            cycles = workload.measure(args.seconds / 2)
            cycles += workload.measure(args.seconds / 2, traced=True)
            snap = cycles[-1]["spans"] or EMPTY_SNAPSHOT
        else:
            from tracer import Tracer

            tracer = Tracer()
            cycles = workload.measure(args.seconds, _alternate(tracer), min_cycles=2)
            snap = tracer.snapshot()
        timed_s = time.perf_counter() - started
        failures = workload.check(cycles, corrupt=args.corrupt)
        attempted = sum(c["units"] for c in cycles)
        plain = [c for c in cycles if not c["traced"]]
        pooled = [x for c in plain for x in c["latencies_ms"]]
        info = {
            "latency": {"p50": percentile(pooled, 0.5), "p90": percentile(pooled, 0.9),
                        "p99": percentile(pooled, 0.99), "n": len(pooled)},
            "cycles": len(cycles),
            "timed_s": timed_s,
        }
        if hasattr(workload, "e2e_extras"):
            info.update(workload.e2e_extras(plain))
        if "probes_ms" in plain[0]:
            info["host_slowdown"] = host_slowdown(plain)
        if args.trace:
            metrics = layer_metrics(workload, cycles, snap, import_ms)
        else:
            metrics = e2e_metrics(workload, cycles)
        result = {
            "attempted": attempted,
            "failed": min(attempted, len(failures)),
            "failures": failures[:20],
            "metrics": metrics,
            "info": info,
        }
        print(RESULT + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


# ---------------------------------------------------------------------------
# Parent side: spawn, time set-up, report
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, phase: str, deadline: float) -> Dict[str, Any]:
    """Run one child; returns its set-up time and (run phase) its result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    start = time.perf_counter()
    # A session of its own, so a timeout also kills the serve daemon the
    # child started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, start_new_session=True)

    def pump() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s: Optional[float] = None
    scale: Optional[float] = None
    result = None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildFailed(f"{phase} child exceeded the time limit")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            if line.startswith(READY) and ready_s is None:
                ready_s = time.perf_counter() - start
            elif line.startswith(HOST_SCALE):
                scale = float(line[len(HOST_SCALE):])
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(timeout=5)
    if code != 0 or ready_s is None or scale is None or (phase == "run" and result is None):
        raise ChildFailed(f"{phase} child failed (exit code {code})")
    return {"setup_s": ready_s, "scale": scale, "result": result}


def report(args: argparse.Namespace, spec: Dict[str, Any], setups: List[Dict[str, Any]],
           result: Dict[str, Any]) -> Dict[str, Any]:
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = dict(result["metrics"])
    raw["setup_s"] = median([s["setup_s"] * s["scale"] for s in setups])
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in names}
    correct = result["failed"] == 0 and not result["failures"]
    info = result["info"]
    lat = info["latency"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    stamp = host_stamp()
    print("  host: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"  timed {info['timed_s']:.2f} s in {info['cycles']} cycle(s); "
          f"setup_s is the median of {len(setups)} scaled set-ups, unscaled "
          f"{median([s['setup_s'] for s in setups]):.4f} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    tails = []
    for name, q in (("p90", 0.9), ("p99", 0.99)):
        # samples strictly above the percentile's interpolation rank
        beyond = lat["n"] - 1 - int(q * (lat["n"] - 1))
        tails.append(f"{name} {lat[name]:.3f} ms ({beyond} beyond)" if beyond >= 10
                     else f"{name} not reported ({beyond} samples beyond)")
    print(f"  pooled latency samples n={lat['n']}: p50 {lat['p50']:.3f} ms, "
          + ", ".join(tails))
    for key, value in info.items():
        if key not in ("latency", "cycles", "timed_s") and not args.trace:
            print(f"  {key:28s} {value:14.6g}")
    print(f"  failed_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / max(1, result['attempted']):.4f}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "time": time.time(), "host": stamp,
            "correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "info": info,
        }) + "\n")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def orchestrate(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.perf_counter() + DEADLINE_S
    setups: List[Dict[str, Any]] = []
    try:
        for _ in range(1 if args.tiny else SETUP_PROBES):
            setups.append(spawn(args, "setup", deadline))
        run = spawn(args, "run", deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(run)
    out = report(args, spec, setups, run["result"])
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("main", "setup", "run"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-test); figures are not comparable")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before checking (self-test of the checks)")
    args = parser.parse_args(argv)
    if args.phase == "main":
        return orchestrate(args)
    return child(args)


if __name__ == "__main__":
    raise SystemExit(main())
