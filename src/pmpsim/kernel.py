"""Deterministic discrete-event engine.

All simulation time is integer microseconds. The event queue is totally
ordered by (fire_at, insertion sequence), so two runs that schedule the
same events in the same order dispatch them identically. The heap holds
(fire_at, seq, handler, payload) tuples, so ordering compares two integers.
"""

from __future__ import annotations

import heapq
import random
from enum import Enum
from typing import Any, Callable


class EventKind(Enum):
    FRAME_START = "frame-start"
    UL_SUBFRAME_START = "ul-subframe-start"
    PACKET_ARRIVAL = "packet-arrival"


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past (a logic bug)."""


class RandomSource:
    """Seeded pseudo-random source with per-subsystem substreams.

    The traffic sources draw directly from their own substream, the
    `random.Random` in `traffic`, so that the emitted packet sequence for
    a given seed does not depend on how many draws the MAC (contention
    backoff, through `draw_uniform`) consumed. This keeps traffic identical
    across scheduler variants of the same seed, which is what makes
    per-seed scheduler comparisons paired.
    """

    def __init__(self, seed: int):
        self._mac = random.Random(seed)
        self.traffic = random.Random(seed * 1_000_003 + 1)

    def draw_uniform(self, rng: int) -> int:
        """Uniform integer in [0, rng); consumed from the MAC substream."""
        if rng < 1:
            raise ValueError(f"draw_uniform range must be >= 1, got {rng}")
        return self._mac.randrange(rng)


class Simulator:
    """Monotonic clock plus a total-ordered pending-event queue."""

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.rng = RandomSource(seed)
        self._heap: list[tuple[int, int, Callable[[Any], None], Any]] = []
        self._next_seq = 0
        self.dispatched = 0

    def schedule(self, fire_at: int, kind: EventKind,
                 handler: Callable[[Any], None], payload: Any = None) -> None:
        if fire_at < self.now:
            raise SchedulingError(
                f"event {kind.value} scheduled at t={fire_at} before clock t={self.now}")
        heapq.heappush(self._heap, (fire_at, self._next_seq, handler, payload))
        self._next_seq += 1

    def run_until(self, end: int) -> int:
        """Dispatch every event with fire_at <= end; clock equals end after."""
        count = 0
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= end:
            fire_at, _, handler, payload = pop(heap)
            self.now = fire_at
            handler(payload)
            count += 1
        self.now = end
        self.dispatched += count
        return count
