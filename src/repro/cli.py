"""Command-line entry point: ``repro-experiments``.

Usage::

    repro-experiments list
    repro-experiments run E3 [--seed 7]
    repro-experiments run all [--jobs 4]           # cached tolerant sweep
    repro-experiments solvers                      # the repro.api registry
    repro-experiments families                     # the repro.scenarios catalogue
    repro-experiments gen --n 10 --count 3 --out instances.json
    repro-experiments gen --family grid --game weighted --param demands=random \
        --n 16 --count 3 --out weighted-grids.json
    repro-experiments solve instances.json --solver sne-lp3 --json
    repro-experiments solve-batch instances.json --solver sne-lp3 \
        --solver theorem6 --workers 4 --json
    repro-experiments sweep --solver sne-lp3 --solver theorem6 \
        --model gnp --model hypercube --n 12 --n 16 --count 2 \
        --jobs 4 --json-out grid.json
    repro-experiments sweep --spec sweep.toml --jobs 8
    repro-experiments sweep --spec sweep.toml --listen 0.0.0.0:8351 \
        --json-out grid.json                           # distributed coordinator
    repro-experiments sweep-worker --connect HOST:8351 # ... on each worker host
    repro-experiments cache stats                      # result-cache occupancy
    repro-experiments cache prune --older-than 7d
    repro-experiments serve --port 8350 --workers 4    # persistent daemon
    repro-experiments --version

``sweep`` and ``run all`` execute through :mod:`repro.runtime`: jobs fan
out over worker processes and finished cells land in a content-addressed
result cache (``~/.cache/repro``; ``--cache-dir`` / ``REPRO_CACHE_DIR``
override, ``--no-cache`` disables), so re-runs only recompute what
changed and interrupted sweeps resume where they stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional

from repro import api
from repro.experiments import (
    EXPERIMENTS,
    error_text,
    run_all_tolerant,
    run_experiment,
    sweep_summary,
)
from repro.utils.jsonfmt import dumps_indented

_DESCRIPTIONS = {
    "E1": "Theorem 1: LP formulations (1)/(2)/(3) agree",
    "E2": "Theorem 6: constructive wgt(T)/e subsidies",
    "E3": "Theorem 11: cycle lower bound -> 1/e",
    "E4": "Theorem 21: all-or-nothing lower bound -> e/(2e-1)",
    "E5": "Lemma 4: Bypass gadget threshold",
    "E6": "Theorem 3: BIN PACKING reduction",
    "E7": "Theorem 5: INDEPENDENT SET reduction & PoS gap",
    "E8": "Theorem 12: 3SAT reduction (Corollary 20)",
    "E9": "PoS <= H_n potential descent",
    "E10": "Figure 4: virtual cost visualization data",
    "E11": "SND budget sweep (exact vs heuristic)",
    "A1": "Ablations: packing rule & decomposition",
    "A2": "Section 6 extensions: multicast/weighted/coalitions/combinatorial",
    "S1": "Scenario-family tour across all game families",
}


def _add_cache_flags(parser: argparse.ArgumentParser, prefix: str = "") -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"{prefix}recompute everything; neither read nor write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"{prefix}result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation artefacts of 'Enforcing efficient "
            "equilibria in network design games via subsidies' (SPAA 2012)."
        ),
    )
    from repro import __version__
    from repro.runtime.spec import GENERATOR_MODELS, MODELS

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("solvers", help="list the repro.api solver registry")
    sub.add_parser("backends", help="list the repro.lp backend registry")
    sub.add_parser(
        "families",
        help="list the repro.scenarios instance families and the game families",
    )

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id (E1..E11, A1, A2) or 'all'")
    run_p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    run_p.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    run_p.add_argument(
        "--json-out",
        default=None,
        help=(
            "('run all' only) write a machine-readable sweep summary "
            "(per-experiment status + wall time) to this JSON file; "
            "defaults to <out>.json when --out is given"
        ),
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="('run all' only) worker processes (default 1 = in-process)",
    )
    run_p.add_argument(
        "--skip",
        action="append",
        default=[],
        metavar="ID",
        help="('run all' only) skip this experiment (repeatable); skips are "
        "reported distinctly from failures and do not fail the sweep",
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="('run all' only) per-experiment wall-clock budget in seconds",
    )
    _add_cache_flags(run_p, "('run all' only) ")

    gen_p = sub.add_parser(
        "gen", help="generate game instances (random models or named "
        "scenario families) as a JSON file"
    )
    gen_p.add_argument("--n", type=int, default=10, help="nodes per instance")
    gen_p.add_argument(
        "--model",
        choices=GENERATOR_MODELS,
        default=None,
        help="random generator family (default: random tree plus chords)",
    )
    gen_p.add_argument(
        "--family",
        choices=tuple(m for m in MODELS if m not in GENERATOR_MODELS),
        default=None,
        help="generate from a named scenario family instead of --model "
        "(see 'families'); topology/game knobs go through --param",
    )
    gen_p.add_argument(
        "--game",
        choices=("broadcast", "multicast", "general", "weighted", "directed"),
        default=None,
        help="(--family only) game family to wrap the scenario topology in "
        "(default broadcast)",
    )
    gen_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="(--family only) scenario parameter, e.g. --param jitter=0.4 "
        "or --param demands=random (repeatable)",
    )
    gen_p.add_argument(
        "--chords", type=int, default=None, help="tree-chords: extra chords (default n // 2)"
    )
    gen_p.add_argument(
        "--chord-factor",
        type=float,
        default=None,
        help="tree-chords: chord weight multiplier (default 1.1)",
    )
    gen_p.add_argument(
        "--density",
        "--p",
        dest="density",
        type=float,
        default=None,
        help="gnp: edge probability p (default 0.3)",
    )
    gen_p.add_argument(
        "--radius",
        type=float,
        default=None,
        help="geometric: connection radius in the unit square (default 0.5)",
    )
    gen_p.add_argument(
        "--weight-low",
        type=float,
        default=None,
        help="tree-chords/gnp: uniform weight lower bound (default 0.5) "
        "(geometric weights are Euclidean distances)",
    )
    gen_p.add_argument(
        "--weight-high",
        type=float,
        default=None,
        help="tree-chords/gnp: uniform weight upper bound (default 2.0)",
    )
    gen_p.add_argument("--count", type=int, default=1, help="number of instances")
    gen_p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    gen_p.add_argument("--out", default=None, help="output file (default stdout)")

    solve_p = sub.add_parser("solve", help="solve one instance via the registry")
    solve_p.add_argument("instance", help="instance JSON file ('-' for stdin)")
    solve_p.add_argument(
        "--solver", required=True, help="registry solver name (see 'solvers')"
    )
    solve_p.add_argument("--budget", type=float, default=None, help="SND budget")
    solve_p.add_argument(
        "--backend",
        "--method",
        dest="method",
        default=None,
        help="LP backend from the repro.lp registry (see 'backends'); "
        "legacy spellings highs/simplex still work",
    )
    solve_p.add_argument(
        "--certify",
        action="store_true",
        help="(sne-lp1/lp2/lp3) re-derive the float verdict with the "
        "Fraction-exact backend and attach a rationally-verified "
        "certificate to the report metadata",
    )
    solve_p.add_argument(
        "--anytime",
        action="store_true",
        help="(approx-* solvers) record the improving (round, upper bound, "
        "lower bound) trajectory in the report metadata",
    )
    solve_p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="(approx-* solvers) stop early after this wall-clock budget and "
        "return the best certified iterate so far",
    )
    solve_p.add_argument(
        "--target-gap",
        type=float,
        default=None,
        metavar="FRACTION",
        help="(approx-* solvers) stop once the certified relative gap "
        "(upper - lower) / upper drops to this value",
    )
    solve_p.add_argument("--json", action="store_true", help="emit the report as JSON")
    solve_p.add_argument(
        "--canonical",
        action="store_true",
        help="(--json only) zero the wall clock so output is byte-stable "
        "across runs (the form the serve daemon returns)",
    )
    solve_p.add_argument("--out", default=None, help="also write output to this file")

    batch_p = sub.add_parser(
        "solve-batch", help="solve an instance sweep via solve_many"
    )
    batch_p.add_argument("instances", help="instances JSON file ('-' for stdin)")
    batch_p.add_argument(
        "--solver",
        action="append",
        required=True,
        help="registry solver name (repeatable)",
    )
    batch_p.add_argument(
        "--workers", type=int, default=1, help="thread-pool size (1 = serial)"
    )
    batch_p.add_argument("--budget", type=float, default=None, help="SND budget")
    batch_p.add_argument(
        "--backend",
        "--method",
        dest="method",
        default=None,
        help="LP backend from the repro.lp registry (see 'backends')",
    )
    batch_p.add_argument("--json", action="store_true", help="emit reports as JSON")
    batch_p.add_argument(
        "--canonical",
        action="store_true",
        help="(--json only) zero wall clocks so output is byte-stable "
        "across runs (the form the serve daemon returns)",
    )
    batch_p.add_argument("--out", default=None, help="also write output to this file")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (model x size x seed x solver) grid through the parallel "
        "runtime with the content-addressed result cache",
    )
    sweep_p.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="sweep spec as JSON or TOML (flags below override/extend it)",
    )
    sweep_p.add_argument(
        "--instances",
        default=None,
        metavar="FILE",
        help="solve an existing instance-set JSON file (from 'gen') instead "
        "of generating a grid",
    )
    sweep_p.add_argument(
        "--solver",
        action="append",
        default=[],
        help="registry solver name (repeatable)",
    )
    sweep_p.add_argument(
        "--model",
        action="append",
        default=[],
        choices=MODELS,
        help="instance model: a random generator or a scenario family "
        "(repeatable; default tree-chords)",
    )
    sweep_p.add_argument(
        "--n",
        action="append",
        default=[],
        type=int,
        metavar="N",
        help="instance size (repeatable; default 12)",
    )
    sweep_p.add_argument(
        "--count", type=int, default=None, help="instances per (model, size) cell"
    )
    sweep_p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sweep_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="generator parameter, e.g. --param density=0.3 (repeatable)",
    )
    sweep_p.add_argument(
        "--opt",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="solver option applied to every job, e.g. --opt budget=2.5",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1 = in-process)",
    )
    sweep_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds",
    )
    sweep_p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run as a distributed coordinator: serve the job queue over "
        "HTTP here (port 0 = any free port) and wait for 'sweep-worker "
        "--connect' processes instead of solving locally",
    )
    sweep_p.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="run as a distributed coordinator over a shared-filesystem "
        "spool directory (workers join with 'sweep-worker --spool DIR')",
    )
    sweep_p.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="(distributed) seconds a worker may go silent before its "
        "leased jobs are stolen (default: derived from --timeout)",
    )
    _add_cache_flags(sweep_p)
    sweep_p.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the deterministic sweep result JSON here (byte-identical "
        "across --jobs values and cache states)",
    )
    sweep_p.add_argument(
        "--out", default=None, help="also write the text table to this file"
    )
    sweep_p.add_argument(
        "--quiet", action="store_true", help="no per-job progress on stderr"
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the persistent solver daemon (HTTP/JSON API, resident "
        "warm state, shared result cache)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8350, help="TCP port (default 8350; 0 = any free)"
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="max concurrent solves (default 4)",
    )
    serve_p.add_argument(
        "--queue",
        type=int,
        default=16,
        help="requests allowed to wait beyond --workers before 429s (default 16)",
    )
    serve_p.add_argument(
        "--lru-size",
        type=int,
        default=128,
        help="interned live instances kept resident (default 128)",
    )
    _add_cache_flags(serve_p)
    serve_p.add_argument(
        "--quiet", action="store_true", help="no per-request access log on stderr"
    )

    worker_p = sub.add_parser(
        "sweep-worker",
        help="join a distributed sweep: lease jobs from a coordinator "
        "('sweep --listen' or 'sweep --spool'), solve them, report back",
    )
    worker_p.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="HTTP coordinator to lease jobs from (a 'sweep --listen' address)",
    )
    worker_p.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="shared spool directory to claim jobs from (a 'sweep --spool' dir)",
    )
    worker_p.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="worker name in coordinator stats (default: hostname-pid)",
    )
    worker_p.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sleep between polls when the queue is momentarily empty",
    )
    worker_p.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after this many jobs instead of running until the sweep ends",
    )
    worker_p.add_argument(
        "--ready-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to wait for the coordinator to appear (default 30)",
    )
    _add_cache_flags(worker_p)
    worker_p.add_argument(
        "--quiet", action="store_true", help="no per-job progress on stderr"
    )

    cache_p = sub.add_parser(
        "cache",
        help="inspect or clean the content-addressed result cache",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser(
        "stats", help="entry count, bytes on disk, and age spread"
    )
    cache_stats_p.add_argument(
        "--json", action="store_true", help="emit the stats as JSON"
    )
    cache_clear_p = cache_sub.add_parser(
        "clear", help="delete every cached entry (current schema)"
    )
    cache_prune_p = cache_sub.add_parser(
        "prune", help="delete entries not refreshed within --older-than"
    )
    cache_prune_p.add_argument(
        "--older-than",
        required=True,
        metavar="AGE",
        help="age threshold: a number of seconds, or NUMBER followed by "
        "s/m/h/d/w (e.g. 36h, 7d)",
    )
    for cache_cmd_p in (cache_stats_p, cache_clear_p, cache_prune_p):
        cache_cmd_p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="result-cache directory "
            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
    return parser


def _sigpipe_exit() -> int:
    """Conventional SIGPIPE exit, with the broken stdout silenced.

    Redirecting stdout to /dev/null before returning stops the
    interpreter's exit-time buffer flush from printing an
    "Exception ignored" traceback for the same broken pipe.
    """
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError:  # pragma: no cover - nothing left to silence
        pass
    return 141


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _emit_json_streaming(payload: Any, out: Optional[str]) -> None:
    """Stream ``json.dumps(payload, indent=2)`` chunk by chunk to the sink.

    ``json.dump`` walks the encoder's chunk iterator straight into the
    file, so a large instance set costs its payload dicts — never payload
    *plus* the whole pretty-printed string.  With ``--out`` the file is
    the only sink (no multi-megabyte stdout echo); otherwise chunks
    stream to stdout.
    """
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _read_payload(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _instance_payloads(path: str) -> List[Any]:
    """Raw game payload dicts from a JSON file (instance-set or single)."""
    data = _read_payload(path)
    if isinstance(data, dict) and data.get("kind") == "instance-set":
        data = data["instances"]
    if isinstance(data, dict):
        data = [data]
    return list(data)


def _load_instances(path: str) -> List[Any]:
    """Read one game or a whole instance set from a JSON file."""
    return [api.serialize.game_from_json(entry) for entry in _instance_payloads(path)]


def _solver_opts(args: argparse.Namespace) -> dict:
    opts: dict = {}
    if args.budget is not None:
        opts["budget"] = args.budget
    if args.method is not None:
        opts["method"] = args.method
    # Certify/anytime knobs exist only on `solve` (batch sweeps stay lean).
    if getattr(args, "certify", False):
        opts["certify"] = True
    if getattr(args, "anytime", False):
        opts["anytime"] = True
    if getattr(args, "deadline", None) is not None:
        opts["deadline"] = args.deadline
    if getattr(args, "target_gap", None) is not None:
        opts["target_gap"] = args.target_gap
    return opts


def _cmd_solvers() -> int:
    for spec in api.list_solvers():
        flags = []
        flags.append("exact" if spec.exact else "heuristic")
        if spec.broadcast_only:
            flags.append("broadcast-only")
        if spec.requires_tree_state:
            flags.append("tree-state")
        alias = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(
            f"{spec.name:18s} {spec.problem:8s} [{', '.join(flags)}] "
            f"{spec.description}{alias}"
        )
    return 0


def _cmd_backends() -> int:
    from repro import lp

    for spec in lp.list_backends():
        caps = [flag for flag, on in spec.capabilities().items() if on]
        avail = "" if spec.available else f" (unavailable: needs {spec.requires})"
        alias = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(
            f"{spec.name:14s} [{', '.join(caps) or 'cold'}] "
            f"{spec.description}{alias}{avail}"
        )
    return 0


def _cmd_families() -> int:
    from repro.games.base import describe_families
    from repro.scenarios import SCENARIOS, scenario_names

    print("scenario families (repro-experiments gen --family NAME):")
    for name in scenario_names():
        fam = SCENARIOS[name]
        knobs = ", ".join(f"{k}={v!r}" for k, v in fam.params.items()) or "-"
        tag = "seeded" if fam.stochastic else "deterministic"
        print(f"  {name:18s} [{tag}] {fam.description} (params: {knobs})")
    print(
        "  shared game knobs: game=broadcast|multicast|general|weighted|"
        "directed, terminals=all|half, demands=unit|random, "
        "orientation=symmetric|oneway-chords, pairs=broadcast|random"
    )
    print("\ngame families:")
    for row in describe_families():
        print(f"  {row['family']:18s} {row['description']}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.runtime import generate_instance
    from repro.utils.rng import child_seeds

    generator_flags = {
        "--model": args.model,
        "--chords": args.chords,
        "--chord-factor": args.chord_factor,
        "--density": args.density,
        "--radius": args.radius,
        "--weight-low": args.weight_low,
        "--weight-high": args.weight_high,
    }
    if args.family is not None:
        used = [name for name, value in generator_flags.items() if value is not None]
        if used:
            raise ValueError(
                f"--family selects a scenario; drop generator flag(s) "
                f"{', '.join(used)} (scenario knobs go through --param)"
            )
        model = args.family
        params: dict = _parse_kv(args.param, "--param")
        if args.game is not None:
            params["game"] = args.game
    elif args.param or args.game is not None:
        raise ValueError("--param/--game apply to scenario families; add --family NAME")
    else:
        model = args.model or "tree-chords"
        weight_low = 0.5 if args.weight_low is None else args.weight_low
        weight_high = 2.0 if args.weight_high is None else args.weight_high
        if model == "gnp":
            params = {
                "density": 0.3 if args.density is None else args.density,
                "weight_low": weight_low,
                "weight_high": weight_high,
            }
        elif model == "geometric":
            params = {"radius": 0.5 if args.radius is None else args.radius}
        else:
            params = {
                "chords": args.chords if args.chords is not None else args.n // 2,
                "chord_factor": 1.1 if args.chord_factor is None else args.chord_factor,
                "weight_low": weight_low,
                "weight_high": weight_high,
            }
    instances = []
    # One independent child stream per instance (SeedSequence spawning), so
    # sweeps with neighbouring base seeds never share instances.  The same
    # construction path backs sweep-grid expansion (repro.runtime.spec), so
    # generated files and grid cells agree cell for cell.
    for seed in child_seeds(args.seed, args.count):
        game = generate_instance(model, args.n, seed, **params)
        instances.append(api.serialize.game_to_json(game))
    payload = {"kind": "instance-set", "instances": instances}
    _emit_json_streaming(payload, args.out)
    return 0


def _report_json(report: Any, canonical: bool) -> Any:
    if canonical:
        return api.serialize.canonical_report_json(report)
    return api.serialize.report_to_json(report)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.canonical and not args.json:
        raise ValueError("--canonical only applies to --json output")
    instances = _load_instances(args.instance)
    if len(instances) != 1:
        print(
            f"'solve' expects exactly one instance, got {len(instances)} "
            "(use solve-batch for sweeps)",
            file=sys.stderr,
        )
        return 2
    report = api.solve(instances[0], solver=args.solver, **_solver_opts(args))
    if args.json:
        payload = _report_json(report, args.canonical)
        if not args.canonical:
            # Peak RSS is a property of this process run, not of the
            # instance — canonical output (the byte-stable form the serve
            # daemon mirrors) must not carry it.
            from repro.utils.resources import peak_rss_bytes

            payload["metadata"] = {
                **payload.get("metadata", {}),
                "peak_rss_bytes": peak_rss_bytes(),
            }
        _emit(dumps_indented(payload), args.out)
    else:
        _emit(report.summary(), args.out)
    return 0 if report.feasible else 1


def _cmd_solve_batch(args: argparse.Namespace) -> int:
    if args.canonical and not args.json:
        raise ValueError("--canonical only applies to --json output")
    instances = _load_instances(args.instances)
    grid = api.solve_many(
        instances, args.solver, workers=args.workers, opts=_solver_opts(args)
    )
    if args.json:
        payload = [
            [_report_json(report, args.canonical) for report in row] for row in grid
        ]
        _emit(dumps_indented(payload), args.out)
    else:
        lines = []
        for i, row in enumerate(grid):
            for report in row:
                lines.append(f"instance {i}: {report.summary()}")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.feasible for row in grid for r in row) else 1


def _cache_from_args(args: argparse.Namespace):
    """The cache object selected by ``--no-cache`` / ``--cache-dir``."""
    from repro.runtime import coerce_cache

    if getattr(args, "no_cache", False):
        return coerce_cache(False)
    return coerce_cache(getattr(args, "cache_dir", None))


def _parse_kv(pairs: List[str], flag: str) -> dict:
    """Parse repeatable ``KEY=VALUE`` flags; values are JSON when possible."""
    out: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings, e.g. --opt method=simplex
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a parameter grid through the parallel, cached sweep runtime."""
    from repro.runtime import SweepRunner, SweepSpec, read_spec_file

    # Flags refine the spec file (overlaid onto the raw mapping before
    # validation, so e.g. a solvers-less grid file plus --solver works):
    # repeatable flags replace, scalars override only when given.
    data: dict = read_spec_file(args.spec) if args.spec else {}
    if args.solver:
        data["solvers"] = list(args.solver)
    if args.model:
        data["models"] = list(args.model)
    if args.n:
        data["sizes"] = list(args.n)
    if args.count is not None:
        data["count"] = args.count
    if args.seed is not None:
        data["seed"] = args.seed
    if args.param:
        data["params"] = {**data.get("params", {}), **_parse_kv(args.param, "--param")}
    if args.opt:
        data["opts"] = {**data.get("opts", {}), **_parse_kv(args.opt, "--opt")}
    if "solvers" not in data:
        raise ValueError("sweep needs --solver (repeatable) or a --spec FILE listing solvers")
    spec = SweepSpec.from_mapping(data)
    if args.instances:
        if args.model or args.n or args.count is not None or args.seed is not None or args.param:
            raise ValueError(
                "--instances replaces the generator grid; drop "
                "--model/--n/--count/--seed/--param"
            )
        spec.instances = _instance_payloads(args.instances)

    jobs = spec.expand()

    def progress(outcome, done, total):
        if not args.quiet:
            mark = " (cached)" if outcome.cached else ""
            print(
                f"[{done}/{total}] {outcome.job.label}: {outcome.status}{mark}",
                file=sys.stderr,
            )

    if args.listen or args.spool:
        if args.jobs != 1:
            raise ValueError(
                "--jobs selects the single-host pool; with --listen/--spool "
                "parallelism comes from sweep-worker processes"
            )
        return _run_sweep_coordinator(args, jobs, progress)
    if args.lease_timeout is not None:
        raise ValueError("--lease-timeout only applies with --listen/--spool")

    runner = SweepRunner(
        jobs=args.jobs,
        cache=_cache_from_args(args),
        timeout=args.timeout,
        progress=progress,
    )
    result = runner.run(jobs)

    lines = []
    for o in result:
        if o.ok:
            budget = o.report["budget_used"]
            cost = o.report["target_cost"]
            detail = f"budget {budget:.6g} on wgt {cost:.6g}"
            if o.cached:
                detail += " [cached]"
            else:
                detail += f" ({o.elapsed_seconds * 1e3:.1f} ms)"
        else:
            detail = o.error or o.status
        lines.append(f"{o.job.label:40s} {o.status:8s} {detail}")
    lines += ["", result.summary_text()]
    _emit("\n".join(lines), args.out)
    if args.json_out:
        # Streams one job record at a time; bytes identical to the stdlib's
        # indented, key-sorted dump of result.to_json() (regression-tested).
        result.write_json(args.json_out)
    return 0 if result.ok else 1


def _parse_hostport(value: str, flag: str) -> tuple:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"{flag} expects HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _parse_age(text: str) -> float:
    """``--older-than`` values: plain seconds or NUMBER + s/m/h/d/w."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    raw = text.strip()
    scale = 1.0
    if raw and raw[-1].lower() in units:
        scale = units[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"--older-than expects NUMBER[s|m|h|d|w] (e.g. 3600, 36h, 7d), "
            f"got {text!r}"
        ) from None
    if value < 0:
        raise ValueError(f"--older-than must be >= 0, got {text!r}")
    return value * scale


def _run_sweep_coordinator(args: argparse.Namespace, jobs, progress) -> int:
    """The distributed branch of ``sweep``: serve the grid to workers."""
    from repro.runtime.distributed import SweepCoordinator

    coordinator = SweepCoordinator(
        jobs,
        cache=_cache_from_args(args),
        timeout=args.timeout,
        lease_timeout=args.lease_timeout,
        json_out=args.json_out,
        spool=args.spool,
        progress=progress,
    )
    if args.listen:
        host, port = _parse_hostport(args.listen, "--listen")
        bound_host, bound_port = coordinator.serve(host, port)
        print(
            f"coordinator listening on {bound_host}:{bound_port} "
            f"(join with: sweep-worker --connect {bound_host}:{bound_port})",
            file=sys.stderr,
        )
    if args.spool:
        print(
            f"coordinator spooling to {args.spool} "
            f"(join with: sweep-worker --spool {args.spool})",
            file=sys.stderr,
        )
    result = coordinator.run()
    _emit(result.summary_text(), args.out)
    return 0 if result.ok else 1


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    """One worker process of a distributed sweep."""
    from repro.runtime.distributed import IDLE_POLL_SECONDS, run_worker

    if (args.connect is None) == (args.spool is None):
        raise ValueError(
            "sweep-worker needs exactly one of --connect HOST:PORT or --spool DIR"
        )
    connect = (
        _parse_hostport(args.connect, "--connect") if args.connect else None
    )
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    summary = run_worker(
        connect=connect,
        spool=args.spool,
        worker_id=args.worker_id,
        cache=_cache_from_args(args),
        poll=args.poll if args.poll is not None else IDLE_POLL_SECONDS,
        max_jobs=args.max_jobs,
        ready_timeout=args.ready_timeout,
        log=log,
    )
    print(summary.summary_text())
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clean the content-addressed result cache."""
    import time

    from repro.runtime import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            print(dumps_indented(stats, sort_keys=True))
            return 0
        print(f"cache root: {stats['root']} (schema v{stats['schema']})")
        print(f"entries:    {stats['entries']}")
        print(f"disk:       {_human_bytes(stats['total_bytes'])}")
        if stats["entries"]:
            now = time.time()
            oldest = now - stats["oldest_mtime"]
            newest = now - stats["newest_mtime"]
            print(f"ages:       newest {newest:.0f}s, oldest {oldest:.0f}s")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    # prune
    removed = cache.prune(_parse_age(args.older_than))
    print(
        f"pruned {removed} entr{'y' if removed == 1 else 'ies'} older than "
        f"{args.older_than} from {cache.root}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the solver daemon in the foreground until Ctrl-C."""
    from repro.serve import ServeConfig, serve_forever

    config = ServeConfig(
        workers=args.workers,
        queue=args.queue,
        lru_size=args.lru_size,
        cache=_cache_from_args(args),
    )
    serve_forever(config, host=args.host, port=args.port, quiet=args.quiet)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    """Tolerant sweep: report per-experiment timing, survive failures."""
    items = run_all_tolerant(
        seed=args.seed,
        jobs=args.jobs,
        cache=_cache_from_args(args),
        timeout=args.timeout,
        skip=args.skip,
    )
    chunks = []
    for item in items:
        if item.skipped:
            chunks.append(f"[{item.experiment_id}] skipped (--skip)")
        elif item.ok:
            assert item.result is not None
            chunks.append(item.result.to_text())
        else:
            chunks.append(
                f"[{item.experiment_id}] FAILED after {item.elapsed_seconds:.2f}s: "
                f"{error_text(item.error)}"
            )
    summary = ["", "== sweep summary =="]
    for item in items:
        label = {"failed": "FAILED"}.get(item.status, item.status)
        summary.append(
            f"{item.experiment_id:4s} {label:8s} {item.elapsed_seconds:8.2f}s"
        )
    failures = [i for i in items if i.status == "failed"]
    skipped = [i for i in items if i.skipped]
    hits = [i for i in items if i.cached]
    ran = [i for i in items if not i.skipped]
    tail = (
        f"{len(ran) - len(failures)}/{len(ran)} experiments passed "
        f"({len(hits)} cache hits"
    )
    if skipped:
        tail += f", {len(skipped)} skipped"
    tail += f"), total {sum(i.elapsed_seconds for i in ran):.2f}s"
    summary.append(tail)
    _emit("\n\n".join(chunks) + "\n" + "\n".join(summary), args.out)
    json_out = args.json_out
    if json_out is None and args.out:
        json_out = args.out + ".json"
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(dumps_indented(sweep_summary(items, seed=args.seed)) + "\n")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("list", "solvers", "backends", "families"):
        try:
            if args.command == "list":
                for key in EXPERIMENTS:
                    print(f"{key:4s} {_DESCRIPTIONS.get(key, '')}")
                return 0
            if args.command == "solvers":
                return _cmd_solvers()
            if args.command == "backends":
                return _cmd_backends()
            return _cmd_families()
        except BrokenPipeError:
            # Downstream consumer (e.g. `| head`) closed stdout: not a user
            # error, no message.
            return _sigpipe_exit()
    if args.command in (
        "gen", "solve", "solve-batch", "sweep", "sweep-worker", "cache", "serve"
    ):
        handler = {
            "gen": _cmd_gen,
            "solve": _cmd_solve,
            "solve-batch": _cmd_solve_batch,
            "sweep": _cmd_sweep,
            "sweep-worker": _cmd_sweep_worker,
            "cache": _cmd_cache,
            "serve": _cmd_serve,
        }[args.command]
        try:
            return handler(args)
        except BrokenPipeError:
            # Downstream consumer (e.g. `| head`) closed stdout: not a user
            # error, no message.
            return _sigpipe_exit()
        except json.JSONDecodeError as exc:
            print(f"error: invalid JSON in instance file: {exc}", file=sys.stderr)
            return 2
        except (api.UnknownSolverError, ValueError, TypeError, OSError) as exc:
            # User errors (bad name, bad file, bad option combination) get a
            # clean message instead of a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyError as exc:
            # Plain KeyError (UnknownSolverError is handled above): a payload
            # with the right kind but missing fields.
            print(
                f"error: malformed instance payload: missing field {exc.args[0]!r}",
                file=sys.stderr,
            )
            return 2

    # command == "run"
    try:
        if args.experiment.lower() == "all":
            return _cmd_run_all(args)
        result = run_experiment(args.experiment, seed=args.seed)
        _emit(result.to_text(), args.out)
        return 0
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout: not a user
        # error, no message.
        return _sigpipe_exit()
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
