"""Same-request coalescing for the solver daemon (single-flight).

Under load, identical requests arrive together: a dashboard refreshing a
panel, a sweep fan-out hitting the same instance from several clients.
Solving each copy independently wastes exactly the work the engine's
batched separation oracle exists to avoid — so the service funnels every
(instance digest, solver, options) cell through a :class:`Coalescer`:

* the **first** arrival becomes the *leader* and computes the result —
  one engine scan, one LP, one cache write;
* arrivals while that flight is open become *followers*: they block on
  the flight's event and receive the leader's result without touching a
  worker slot.

Results are deterministic — followers get bytes identical to
what a lone request would have produced — so coalescing is purely a
throughput lever, never a correctness trade.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Tuple


class _Flight:
    """One in-progress computation plus everyone waiting on it."""

    __slots__ = ("event", "value", "error", "joiners")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.joiners = 0


class Coalescer:
    """Deduplicates concurrent calls that share a key.

    ``run(key, fn)`` executes ``fn`` once per group of concurrent callers
    with equal ``key``: the leader runs it, followers wait and share the
    value (or the leader's exception).  Thread-safe; a flight is removed
    the moment it settles, so sequential calls never coalesce (the result
    cache handles those).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}

    def inflight(self) -> int:
        """Number of currently open flights (for ``/stats``)."""
        with self._lock:
            return len(self._inflight)

    def run(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """Compute or join: returns ``(value, joined)``.

        ``joined`` is True when this caller received a leader's result
        instead of computing its own.
        """
        with self._lock:
            flight = self._inflight.get(key)
            lead = flight is None
            if lead:
                flight = self._inflight[key] = _Flight()
            else:
                flight.joiners += 1

        if not lead:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, True

        try:
            flight.value = fn()
            return flight.value, False
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Settle under the lock *before* waking followers: once the
            # event is set no new caller may join this flight.
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
