"""Content-addressed on-disk result cache for the sweep runtime.

Every sweep job — one (instance, solver, options) cell, or one experiment
run — is identified by a SHA-256 key over the *content* that determines its
result (see :func:`solve_job_key` / :func:`experiment_job_key`).  Completed
results are stored one-file-per-key under a sharded directory tree::

    <cache_dir>/v1/<first two hex chars>/<key>.json

which makes three properties fall out for free:

* **incremental sweeps** — re-running a grid only recomputes cells whose
  instance, solver version or options changed;
* **resumability** — each job's entry is written atomically the moment it
  finishes, so an interrupted sweep resumes from the completed prefix;
* **invalidation without bookkeeping** — bumping a solver's
  :attr:`~repro.api.registry.SolverSpec.version` (or editing an experiment
  module, whose source is digested into the key) changes the key, orphaning
  the stale entries instead of serving them.

The default location is ``~/.cache/repro`` (override with the
``REPRO_CACHE_DIR`` environment variable or the CLI's ``--cache-dir``).
Entries are plain JSON, safe to inspect or delete by hand; concurrent
writers are safe because entries are immutable for a given key and writes
go through ``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.utils.hashing import canonical_json, stable_hash

JSONDict = Dict[str, Any]


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that readers never see a partial file.

    The text goes to a ``.tmp-*.json`` file in the same directory, which
    ``os.replace`` then renames over ``path`` (atomic on POSIX).  Entry and
    result scans skip the ``.tmp-`` names; on any error the temp file is
    removed and the error re-raised.  Callers serialize with
    ``json.dumps``, which uses the C encoder (``json.dump`` never does).
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: bump when the on-disk entry layout changes (old trees are simply ignored)
CACHE_SCHEMA_VERSION = 1


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def instance_key_state(instance: JSONDict) -> "hashlib._Hash":
    """The SHA-256 state of every :func:`solve_job_key` text up to ``instance``.

    The key hashes the canonical JSON of ``{"instance": ..., "kind": ...,
    "opts": ..., "schema": ..., "solver": ..., "solver_version": ...}``,
    and ``"instance"`` sorts first, so that text starts with
    ``{"instance":`` and the instance's own canonical JSON.  Passing this
    state to :func:`solve_job_key` encodes an instance once for all the
    solvers of its grid cell.
    """
    return hashlib.sha256(('{"instance":' + canonical_json(instance)).encode("utf-8"))


def solve_job_key(
    instance: JSONDict,
    solver: str,
    solver_version: str,
    opts: Optional[Mapping[str, Any]] = None,
    instance_state: Optional["hashlib._Hash"] = None,
) -> str:
    """Content hash identifying one (instance, solver, options) cell.

    ``instance`` is the serialized game payload
    (:func:`repro.api.serialize.game_to_json`), which is canonical for a
    given game, so logically-equal instances share cache cells no matter
    where they were generated.  ``instance_state`` is
    :func:`instance_key_state` of ``instance``, when the caller already
    has it; the key is :func:`~repro.utils.hashing.stable_hash` of the
    whole cell either way.  Raises
    :class:`repro.utils.hashing.UnhashablePayloadError` when the instance
    or ``opts`` contain values that cannot be hashed deterministically
    (such jobs run uncached).
    """
    rest = canonical_json(
        {
            "kind": "solve-job",
            "schema": CACHE_SCHEMA_VERSION,
            "solver": solver,
            "solver_version": solver_version,
            "opts": dict(opts or {}),
        }
    )
    if instance_state is None:
        instance_state = instance_key_state(instance)
    h = instance_state.copy()
    h.update(("," + rest[1:]).encode("utf-8"))
    return h.hexdigest()


def experiment_job_key(experiment_id: str, seed: int, source_digest: str) -> str:
    """Content hash identifying one experiment run.

    There is no hand-maintained version for experiments: ``source_digest``
    (a hash of the experiment module's source, see
    :func:`repro.runtime.workers.experiment_source_digest`) plays that
    role, so editing the experiment invalidates its cached results.
    """
    return stable_hash(
        {
            "kind": "experiment-job",
            "schema": CACHE_SCHEMA_VERSION,
            "experiment": experiment_id,
            "seed": seed,
            "source": source_digest,
        }
    )


class ResultCache:
    """One directory of content-addressed job results.

    ``get``/``put`` speak plain JSON dicts (the *entry*); the runtime stores
    ``{"kind": ..., "key": ..., "result": ..., "elapsed_seconds": ...}`` but
    the cache itself does not interpret entries beyond requiring a dict.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    # the versioned subtree actually holding entries
    @property
    def _tree(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self._tree / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[JSONDict]:
        """The stored entry for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write from a killed process predating
        atomic replace, manual edit, bytes that are not UTF-8) counts as a
        miss and is removed, so one bad file cannot wedge a sweep.  A
        merely *unreadable* entry (permissions, I/O error) is a miss but is
        left in place — another process may still be able to read it.
        """
        path = self.path_for(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except OSError:
            return None
        return entry if isinstance(entry, dict) else None

    def put(self, key: str, entry: Mapping[str, Any]) -> None:
        """Atomically store ``entry`` under ``key`` (last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(dict(entry)) + "\n")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def _entry_paths(self) -> Iterator[Path]:
        """Entry files of the current schema (skips .tmp-* leftovers)."""
        if not self._tree.is_dir():
            return
        for shard in sorted(self._tree.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                # a worker killed between mkstemp and os.replace leaves a
                # ".tmp-*" file behind; it is not an entry
                if not path.name.startswith("."):
                    yield path

    def keys(self) -> Iterator[str]:
        """All stored keys (current schema version only)."""
        for path in self._entry_paths():
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> JSONDict:
        """Occupancy summary: entry count, bytes on disk, age spread.

        One directory walk, no entry is parsed — cheap enough for the
        ``cache stats`` CLI to run against multi-gigabyte shared caches.
        """
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self._entry_paths():
            try:
                st = path.stat()
            except OSError:
                continue  # deleted under us by a concurrent prune/clear
            entries += 1
            total_bytes += st.st_size
            oldest = st.st_mtime if oldest is None else min(oldest, st.st_mtime)
            newest = st.st_mtime if newest is None else max(newest, st.st_mtime)
        return {
            "kind": "cache-stats",
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, older_than_seconds: float, now: Optional[float] = None) -> int:
        """Delete entries not written for ``older_than_seconds``; returns count.

        Age is the entry file's mtime — ``put`` rewrites the file (and
        therefore refreshes it) on every store, so a cell that keeps being
        produced by live sweeps never ages out, while cells orphaned by a
        solver-version bump do.  Safe against concurrent writers: a racing
        ``put`` either lands before the unlink (entry is recreated moments
        later by its next producer) or after (the fresh entry survives,
        ``unlink`` already happened on the old inode path — worst case one
        recomputation, never corruption).
        """
        if older_than_seconds < 0:
            raise ValueError(f"older_than_seconds must be >= 0, got {older_than_seconds}")
        cutoff = (time.time() if now is None else now) - older_than_seconds
        removed = 0
        for path in list(self._entry_paths()):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass  # raced with another pruner/writer
        return removed


class NullCache:
    """The ``--no-cache`` object: always misses, never stores.

    Lets the runner treat caching uniformly instead of branching on
    ``cache is None`` at every touch point.
    """

    root: Optional[Path] = None

    def get(self, key: str) -> Optional[JSONDict]:
        return None

    def put(self, key: str, entry: Mapping[str, Any]) -> None:
        return None

    def __contains__(self, key: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0


AnyCache = Union[ResultCache, NullCache]


def cached_entry(
    cache: AnyCache, key: Optional[str], payload: str = "report"
) -> Optional[JSONDict]:
    """The entry stored under ``key`` if it is a hit, else ``None``.

    A hit has ``status == "ok"`` and a JSON object under ``payload``
    (``"report"`` for solve jobs, ``"result"`` for experiments).  No key,
    a miss, or any other entry (say ``{"status": "ok"}`` with its payload
    missing) means the job is recomputed, and its fresh entry then
    replaces the stored one.  Every cache reader decides hits here.
    """
    entry = cache.get(key) if key else None
    if entry is None or entry.get("status") != "ok":
        return None
    return entry if isinstance(entry.get(payload), dict) else None


def store_solve_entry(
    cache: AnyCache,
    key: str,
    solver: str,
    report: Optional[JSONDict],
    elapsed: float,
) -> None:
    """Write one successful solve outcome to the result cache.

    The entry shape is shared by every producer — the sweep runner, the
    distributed coordinator, remote ``sweep-worker`` processes and the
    serve daemon — which is what lets any number of hosts write the same
    content-addressed cell concurrently: entries for a key are identical
    up to timing fields, so last-writer-wins is harmless.
    """
    try:
        cache.put(
            key,
            {
                "kind": "solve-entry",
                "key": key,
                "status": "ok",
                "solver": solver,
                "report": report,
                "elapsed_seconds": elapsed,
                "created_at": time.time(),
            },
        )
    except OSError:
        pass  # unwritable cache degrades to uncached, not a crash


def coerce_cache(value: Union[AnyCache, str, Path, bool, None]) -> AnyCache:
    """Normalize the cache-argument convention used across the runtime.

    ``False`` → :class:`NullCache`; ``None``/``True`` → a
    :class:`ResultCache` at the default directory; a path → a
    :class:`ResultCache` there; cache objects pass through.  Every entry
    point (``SweepRunner``, ``run_all_tolerant``, the CLI) funnels its
    ``cache`` parameter through here so the convention lives in one place.
    """
    if value is False:
        return NullCache()
    if value is None or value is True:
        return ResultCache()
    if isinstance(value, (str, Path)):
        return ResultCache(value)
    return value
