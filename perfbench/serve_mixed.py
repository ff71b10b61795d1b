"""``serve-mixed``: the daemon as a subprocess under open-loop Poisson load.

``repro-experiments serve --workers 2`` starts with a fresh ``--cache-dir``.
Two client threads, one keep-alive connection each, send ``POST /solve``
requests on a Poisson schedule drawn from the seed: a run of ``T`` seconds
sends ``RATE * T`` requests at uniformly scattered times (a Poisson process
conditioned on its count, so every run sends the same number).

The request mix is fixed by construction: one slot in five repeats a pair
first sent at least ``REPEAT_GAP`` slots earlier (a result-cache read; a
repeat waits for the original's answer, so it never coalesces with it);
the others send the next new (instance, solver) pair from a seeded
shuffle, some of which reuse an already-interned instance with another
solver.

Latency runs from each request's due time, so a stall also delays the
requests queued behind it; ``lag`` is how late a request left the client.
Each latency is scaled by host probes taken near its due time while the
clients and the daemon are idle (see ``hostprobe.py``).
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, WORK_DIR, derive_seed, median, peak_rss_mb
from hostprobe import PROBE_NOMINAL_MS, probe

RATE = 10.0  # requests per second offered
CONNECTIONS = 2
REPEAT_GAP = 10  # slots between a pair's first request and any repeat
#: slots ``i`` with ``i % 5`` in this set repeat an answered pair: 20% of
#: the traffic once enough pairs are ready.  The fastest misses are as
#: quick as cache hits; with 40% repeats the median sat at the border of
#: the two and jumped between them with the seed.
REPEAT_SLOTS = (2,)
#: a probe runs only when nothing is in flight and the next request is due
#: later than this many probe times from now, at most once per PROBE_EVERY s
PROBE_GAP = 3.0
PROBE_EVERY = 0.05
#: probes within this many seconds of a request's due time scale it
PROBE_WINDOW = 1.0
INSTANCES = 60
TOPOLOGIES = ("grid", "power-law", "isp-like", "augmented-cube")
#: (game family, wrapper params, n, solvers)
FAMILIES = (
    ("broadcast", {}, 24, ("sne-lp1", "sne-lp3", "theorem6", "approx-greedy")),
    ("general", {"pairs": "random"}, 24, ("sne-lp1", "approx-greedy")),
    ("weighted", {"demands": "random"}, 24, ("sne-lp1", "approx-greedy")),
    ("directed", {"orientation": "oneway-chords"}, 24, ("sne-lp1", "approx-greedy")),
    ("multicast", {"terminals": "half"}, 16, ("sne-lp1", "approx-greedy")),
)
REQUEST_TIMEOUT = 30.0
HEADERS = {"Content-Type": "application/json"}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``serve`` subprocess with its own port and fresh cache dir."""

    def __init__(self, workdir: str, traced: bool) -> None:
        self.port = _free_port()
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.spans_path = os.path.join(workdir, f"spans-{self.port}.json")
        self.log_path = os.path.join(workdir, f"daemon-{self.port}.log")
        args = ["serve", "--workers", "2", "--port", str(self.port),
                "--cache-dir", self.cache_dir, "--quiet"]
        if traced:
            launcher = str(Path(__file__).with_name("serve_launcher.py"))
            cmd = [sys.executable, launcher, "--spans-out", self.spans_path, "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def get(self, path: str, timeout: float = 5.0) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.read()
        finally:
            conn.close()

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited early: {self.log_tail()}")
            try:
                self.get("/healthz", timeout=1.0)
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("serve daemon did not answer /healthz in time")

    def stats(self) -> Dict[str, Any]:
        return json.loads(self.get("/stats"))

    def log_tail(self) -> str:
        try:
            return Path(self.log_path).read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> Tuple[float, Optional[dict]]:
        """Stop the daemon; returns (peak RSS MB, traced spans or None)."""
        rss = peak_rss_mb(self.proc.pid) if self.proc.poll() is None else float("nan")
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._log.close()
        spans = None
        if os.path.exists(self.spans_path):
            with open(self.spans_path) as fh:
                spans = json.load(fh)
        return rss, spans


def _scaled(done: List[tuple], t0: float, probes: List[Tuple[float, float]]) -> List[float]:
    """Each request's latency scaled by the probes near its due time.

    A request uses the median of the probes within ``PROBE_WINDOW`` of
    its due time, or of all of them when none is that close.
    """
    at = [a for a, _ms in probes]
    every = median([ms for _a, ms in probes])
    out = []
    for due, _send, recv, _status, _data in done:
        offset = due - t0
        near = [ms for _a, ms in probes[bisect.bisect_left(at, offset - PROBE_WINDOW):
                                        bisect.bisect_right(at, offset + PROBE_WINDOW)]]
        out.append(1000.0 * (recv - due) * PROBE_NOMINAL_MS / (median(near) if near else every))
    return out


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.seed = seed
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR)
        self.daemons: List[Daemon] = []
        # The daemon boots while the inputs are generated.
        self.daemon = self._start(traced=False, wait=False)
        from repro.api import serialize
        from repro.scenarios import build_scenario

        rng = random.Random(derive_seed(seed, "serve-instances"))
        self.pairs: List[Tuple[int, str]] = []
        self.instances: List[Dict[str, Any]] = []
        for i in range(8 if tiny else INSTANCES):
            family, params, n, solvers = FAMILIES[i % len(FAMILIES)]
            topo = TOPOLOGIES[(i // len(FAMILIES)) % len(TOPOLOGIES)]
            game = build_scenario(topo, n=8 if tiny else n, seed=rng.randrange(2**31),
                                  game=family, **params)
            self.instances.append(serialize.game_to_json(game))
            self.pairs += [(i, s) for s in solvers]
        rng.shuffle(self.pairs)
        self.bodies = {
            pair: json.dumps({"instance": self.instances[pair[0]], "solver": pair[1]}).encode()
            for pair in self.pairs
        }
        #: in-process canonical bytes per pair, computed after timing
        self.expected: Dict[Tuple[int, str], bytes] = {}
        self.daemon.wait_ready()

    def _start(self, traced: bool, wait: bool = True) -> Daemon:
        daemon = Daemon(self.tmp, traced)
        self.daemons.append(daemon)
        if wait:
            daemon.wait_ready()
        return daemon

    def plan(self, seconds: float) -> Tuple[List[float], List[Tuple[int, str]]]:
        """Due offsets and (instance, solver) per slot, from the seed alone."""
        rng = random.Random(derive_seed(self.seed, "serve-schedule", seconds))
        count = max(1, round(RATE * seconds))
        gaps = [rng.expovariate(RATE) for _ in range(count + 1)]
        scale = seconds / sum(gaps)
        offsets, at = [], 0.0
        for gap in gaps[:count]:
            at += gap * scale
            offsets.append(at)
        first_slot: Dict[Tuple[int, str], int] = {}
        fresh = iter(self.pairs)
        slots: List[Tuple[int, str]] = []
        for i in range(count):
            ready = [p for p, s in first_slot.items() if s <= i - REPEAT_GAP]
            pair = None
            if i % 5 in REPEAT_SLOTS and ready:
                pair = ready[rng.randrange(len(ready))]
            if pair is None:
                pair = next(fresh, None)
            if pair is None:  # every pair sent once: repeat instead
                pair = (ready or list(first_slot))[rng.randrange(len(ready or first_slot))]
            first_slot.setdefault(pair, i)
            slots.append(pair)
        return offsets, slots

    def measure(self, seconds: float, traced: bool = False) -> List[Dict[str, Any]]:
        """One open-loop session of ``seconds`` against a fresh daemon.

        The first session uses the daemon started during set-up; a traced
        session starts its own through ``serve_launcher.py``.
        """
        daemon = self._start(traced=True) if traced else self.daemon or self._start(False)
        self.daemon = None
        offsets, slots = self.plan(seconds)
        count = len(slots)
        records: List[Optional[tuple]] = [None] * count
        answered = {pair: threading.Event() for pair in set(slots)}
        first_of: Dict[Tuple[int, str], int] = {}
        for i, pair in enumerate(slots):
            first_of.setdefault(pair, i)
        lock = threading.Lock()
        cursor = [0]
        answered_count = [0]
        clock = time.perf_counter

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=REQUEST_TIMEOUT)
            try:
                while True:
                    with lock:
                        i = cursor[0]
                        cursor[0] += 1
                    if i >= count:
                        return
                    pair = slots[i]
                    due = t0 + offsets[i]
                    delay = due - clock()
                    if delay > 0:
                        time.sleep(delay)
                    if first_of[pair] != i:
                        answered[pair].wait(REQUEST_TIMEOUT)
                    send = clock()
                    try:
                        conn.request("POST", "/solve", body=self.bodies[pair], headers=HEADERS)
                        resp = conn.getresponse()
                        data = resp.read()
                        status = resp.status
                    except (OSError, http.client.HTTPException) as exc:
                        conn.close()
                        data, status = repr(exc).encode(), None
                    records[i] = (due, send, clock(), status, data)
                    with lock:
                        answered_count[0] += 1
                    if first_of[pair] == i:
                        answered[pair].set()
            finally:
                conn.close()

        t0 = clock() + 0.05
        threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        probes = self._probe_while_idle(threads, t0, offsets, answered_count)
        for thread in threads:
            thread.join()
        if not probes:
            probes = [(clock() - t0, probe()) for _ in range(5)]
        stats = daemon.stats()
        rss, spans = daemon.stop()
        done = [r for r in records if r is not None]
        # answered requests over the span from the first send to the last
        # answer: the offered rate unless the daemon falls behind
        span = max(r[2] for r in done) - min(r[1] for r in done) if done else 0.0
        return [{
            "traced": traced,
            "units": count,
            "busy_s": sum(r[2] - r[0] for r in done),
            "work_s": sum(r[2] - r[1] for r in done),
            "rate": sum(1 for r in done if r[3] == 200) / span if span else 0.0,
            "latencies_ms": [1000.0 * (r[2] - r[0]) for r in done],
            "lag_ms": [1000.0 * (r[1] - r[0]) for r in done],
            "scaled_latencies_ms": _scaled(done, t0, probes),
            "probes_ms": [ms for _at, ms in probes],
            "rtt_s": [(r[1], r[2]) for r in done],
            "records": records,
            "slots": slots,
            "stats": stats,
            "spans": spans,
            "peak_rss_mb": rss,
        }]

    @staticmethod
    def _probe_while_idle(threads: List[threading.Thread], t0: float,
                          offsets: List[float],
                          answered_count: List[int]) -> List[Tuple[float, float]]:
        """Host probes taken during the session, as (offset, ms).

        A probe holds the interpreter lock for its whole run, so it runs
        only when every request due so far has its answer and the next one
        is not due for ``PROBE_GAP`` probe times: the clients are asleep
        and the daemon is idle.
        """
        clock = time.perf_counter
        probes: List[Tuple[float, float]] = []
        last_ms, last_at = PROBE_NOMINAL_MS, -PROBE_EVERY
        while any(thread.is_alive() for thread in threads):
            now = clock() - t0
            due = bisect.bisect_right(offsets, now)
            # read without the lock: a stale count only skips one probe
            if (due < len(offsets) and answered_count[0] == due and now - last_at >= PROBE_EVERY
                    and offsets[due] - now > PROBE_GAP * last_ms / 1000.0):
                last_ms = probe()
                probes.append((now, last_ms))
                last_at = clock() - t0
            else:
                time.sleep(0.005)
        return probes

    def summary(self, cycles: List[Dict[str, Any]]) -> Dict[str, float]:
        """Answered requests per second as measured (the offered rate while
        the daemon keeps up), and the median of the scaled latencies."""
        session = cycles[0]
        return {
            "solves_per_s": session["rate"],
            "latency_ms_p50": median(session["scaled_latencies_ms"]),
        }

    def check(self, cycles: List[Dict[str, Any]], corrupt: bool = False) -> List[str]:
        """Status 200 and bytes equal to the in-process canonical report."""
        failures: List[str] = []
        for session in cycles:
            failures += self._check_session(session, corrupt)
        return failures

    def _check_session(self, session: Dict[str, Any], corrupt: bool) -> List[str]:
        from repro import api
        from repro.api import serialize

        failures: List[str] = []
        expected = self.expected
        records = list(session["records"])
        if corrupt and records and records[0] is not None:
            due, send, recv, status, data = records[0]
            records[0] = (due, send, recv, status, data.replace(b"true", b"fals", 1) + b" ")
        for i, (pair, rec) in enumerate(zip(session["slots"], records)):
            if rec is None:
                failures.append(f"request {i}: never sent")
                continue
            status, data = rec[3], rec[4]
            if status != 200:
                failures.append(f"request {i} {pair}: status {status}: {data[:200]!r}")
                continue
            if pair not in expected:
                report = api.solve(serialize.game_from_json(self.instances[pair[0]]), pair[1])
                if not report.verified:
                    failures.append(f"{pair}: in-process report not verified")
                canonical = serialize.canonical_report_json(serialize.report_to_json(report))
                expected[pair] = (json.dumps(canonical, indent=2) + "\n").encode("utf-8")
            if data != expected[pair]:
                failures.append(f"request {i} {pair}: body differs from canonical_report_json")
        return failures

    def close(self) -> None:
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
