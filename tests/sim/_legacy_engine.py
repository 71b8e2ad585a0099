"""The pre-optimization ("legacy") event-loop engine, kept for comparison.

``LegacySimulator`` reproduces the original engine's cost model — one
dataclass :class:`LegacyEvent` allocated per scheduled callback, flag-based
cancellation that leaves the object in the heap, and an O(n) scan for
``pending_events`` — while exposing the current :class:`Simulator` API
(``call_at``, ``call_later``, ``schedule_many`` with ``*args``) so the
unmodified protocol stack runs on it.  ``fork_rng`` is inherited from the
current engine, so a legacy run and a current run of the same seed consume
identical random streams.

Its one consumer, ``tests/sim/test_engine_equivalence.py``, asserts that
a full CHT run produces an identical trace on both engines — the
optimizations changed the cost model, not the semantics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.sim.core import SimulationError, Simulator

__all__ = ["LegacyEvent", "LegacySimulator"]


@dataclass(order=True)
class LegacyEvent:
    """A scheduled callback, ordered by ``(time, seq)`` like the original."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class LegacySimulator(Simulator):
    """Drop-in :class:`Simulator` with the pre-optimization event loop."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._heap: list[LegacyEvent] = []  # type: ignore[assignment]

    # -- scheduling: one object per event, no tombstone set --------------
    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> LegacyEvent:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        event = LegacyEvent(time=time, seq=next(self._seq),
                            callback=callback, args=args)
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> LegacyEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        self.schedule_at(time, callback, *args)

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> None:
        self.schedule(delay, callback, *args)

    def schedule_many(
        self, items: Iterable[tuple[float, Callable[[], None]]]
    ) -> int:
        n = 0
        for delay, callback in items:
            self.schedule(delay, callback)
            n += 1
        return n

    # -- execution: original step/run with flag-checked pops -------------
    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = event.time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        processed = 0
        self._stopped = False
        while self._heap and not self._stopped:
            # Drain cancelled events off the head so the horizon check sees
            # the next *live* event, matching the current engine (which
            # rechecks ``until`` after lazily discarding each tombstone).
            while self._heap and self._heap[0].cancelled:
                heapq.heappop(self._heap)
            if not self._heap:
                break
            if until is not None and self._heap[0].time > until:
                break
            if max_events is not None and processed >= max_events:
                break
            if not self.step():
                break
            processed += 1
            if stop_when is not None and stop_when():
                break
        if until is not None and self.now < until and not self._stopped:
            if not self._heap or self._heap[0].time > until:
                self.now = until

    # -- introspection: the original O(n) scan ---------------------------
    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)
