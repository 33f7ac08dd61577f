"""Timer management for the event loop.

Timers are kept in a binary heap keyed by expiry time.  Cancellation and
rescheduling are lazy: a dead heap entry stays put until it surfaces, at
which point it is discarded (each entry carries the generation number of
the handle at push time).  The :class:`Timer` handle returned to callers
supports cancel, reschedule, and periodic operation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.eventloop.clock import Clock


class Timer:
    """Handle for a scheduled timer.

    Dropping every reference does **not** cancel the timer (unlike XORP,
    where ``XorpTimer`` unschedules on destruction) — Python destructor
    timing is too vague to hang semantics on.  Call :meth:`cancel`.
    """

    __slots__ = ("_list", "_cb", "_interval", "_expiry", "_scheduled", "_gen", "name")

    def __init__(self, timer_list: "TimerList", cb: Callable, expiry: float,
                 interval: Optional[float], name: str):
        self._list = timer_list
        self._cb = cb
        self._interval = interval
        self._expiry = expiry
        self._scheduled = True
        self._gen = 0
        self.name = name

    @property
    def expiry(self) -> float:
        return self._expiry

    @property
    def scheduled(self) -> bool:
        return self._scheduled

    def cancel(self) -> None:
        """Unschedule the timer; a periodic timer stops recurring."""
        self._scheduled = False

    def reschedule_after(self, delay: float) -> None:
        """Re-arm the timer to fire *delay* seconds from now."""
        self._gen += 1  # orphan any heap entry pushed earlier
        self._expiry = self._list.clock.now() + max(0.0, delay)
        self._scheduled = True
        self._list._push(self)

    def _fire(self) -> None:
        if self._interval is not None and self._scheduled:
            self._gen += 1
            self._expiry = self._list.clock.now() + self._interval
            self._list._push(self)
        self._cb()


class TimerList:
    """The heap of pending timers owned by one event loop."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: List[Tuple[float, int, int, Timer]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        self._drop_dead()
        live = {id(t) for __, __, gen, t in self._heap if t.scheduled and gen == t._gen}
        return len(live)

    def empty(self) -> bool:
        return self.next_expiry() is None

    def schedule_after(self, delay: float, cb: Callable, *,
                       name: str = "timer") -> Timer:
        """One-shot timer firing *delay* seconds from now."""
        timer = Timer(self, cb, self.clock.now() + max(0.0, delay), None, name)
        self._push(timer)
        return timer

    def schedule_at(self, when: float, cb: Callable, *, name: str = "timer") -> Timer:
        """One-shot timer firing at absolute clock time *when*."""
        timer = Timer(self, cb, when, None, name)
        self._push(timer)
        return timer

    def schedule_periodic(self, interval: float, cb: Callable, *,
                          name: str = "periodic") -> Timer:
        """Recurring timer; first firing is one *interval* from now."""
        if interval <= 0:
            raise ValueError(f"periodic interval must be positive, got {interval}")
        timer = Timer(self, cb, self.clock.now() + interval, interval, name)
        self._push(timer)
        return timer

    def _push(self, timer: Timer) -> None:
        heapq.heappush(
            self._heap, (timer._expiry, next(self._counter), timer._gen, timer)
        )

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap:
            __, __, gen, timer = heap[0]
            if not timer.scheduled or gen != timer._gen:
                heapq.heappop(heap)
            else:
                break

    def next_expiry(self) -> Optional[float]:
        """Expiry time of the earliest live timer, or None."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def _pop_ready(self, now: float) -> Optional[Tuple[Timer, int]]:
        """Pop the earliest live entry with ``expiry <= now``, or None.

        Returns the timer plus the generation captured at pop time; a
        caller that defers firing (the sanitizer's schedule shuffler pops
        a whole batch before firing any of it) must re-check
        ``timer.scheduled and timer._gen == gen`` before firing, so a
        timer cancelled or rescheduled by an earlier sibling stays dead.
        """
        self._drop_dead()
        if not self._heap or self._heap[0][0] > now:
            return None
        __, __, gen, timer = heapq.heappop(self._heap)
        return timer, gen

    def run_expired(self, limit: int = 64) -> int:
        """Fire up to *limit* timers whose expiry has passed; return count."""
        fired = 0
        now = self.clock.now()
        while fired < limit:
            entry = self._pop_ready(now)
            if entry is None:
                break
            timer, __ = entry
            if timer._interval is None:
                timer._scheduled = False
            timer._fire()
            fired += 1
        return fired
