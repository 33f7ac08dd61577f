"""Seeded permutation of same-deadline events.

Paper §4's event model gives no ordering guarantee between two timers
that share a deadline, two callbacks deferred in the same iteration, or
two runnable background tasks at one priority.  Correct code therefore
must not care — and a run under a :class:`ScheduleShuffler` is how a
test finds the code that does.

The shuffler stands in for the three dispatch points of one run (the
deferred-callback drain, the expired-timer batch, and the background-task
pick; installed through :mod:`repro.core.taps`) to permute *only* the
choices the contract leaves open, driven by a seeded
:class:`random.Random`: the same run under the same seed makes the same
choices, so the seed is the reproducer.  The whole-system verdict is the
test's own — ``tests/test_reference_router.py`` draws a seed per
schedule and still requires the router to equal the reference.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.core import taps
from repro.eventloop.eventloop import EventLoop
from repro.eventloop.tasks import TaskScheduler
from repro.eventloop.timers import TimerList


class ScheduleShuffler:
    """Permutes same-deadline dispatch, from *seed*, while armed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._armed = False

    def _permutation(self, count: int) -> List[int]:
        order = list(range(count))
        self.rng.shuffle(order)
        return order

    # -- arming ------------------------------------------------------------
    def _points(self) -> List[Tuple[type, str, Callable]]:
        return [(EventLoop, "_drain_deferred", self._drain_deferred),
                (TimerList, "run_expired", self._run_expired),
                (TaskScheduler, "run_one_slice", self._run_one_slice)]

    def arm(self) -> None:
        if self._armed:
            return
        # A dispatch point already stood in for cannot be stood in for again.
        if (EventLoop, "_drain_deferred") in taps.installed():
            raise RuntimeError("another ScheduleShuffler is already armed")
        self._armed = True
        for point in self._points():
            taps.wrap(*point)

    def disarm(self) -> None:
        if not self._armed:
            return
        for point in self._points():
            taps.unwrap(*point)
        self._armed = False

    def __enter__(self) -> "ScheduleShuffler":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    # -- the three dispatch points -----------------------------------------
    # Each stands in for the loop's own: *call*, the pristine function, is
    # never continued to.
    def _drain_deferred(self, call, loop: EventLoop) -> None:
        batch = []
        for __ in range(len(loop._deferred)):
            if not loop._deferred:
                break
            batch.append(loop._deferred.popleft())
        if len(batch) > 1:
            batch = [batch[i] for i in self._permutation(len(batch))]
        for cb, args in batch:
            cb(*args)

    def _run_expired(self, call, timers: TimerList, limit: int = 64) -> int:
        now = timers.clock.now()
        entries = []
        while len(entries) < limit:
            entry = timers._pop_ready(now)
            if entry is None:
                break
            entries.append(entry)
        # Permute within runs of equal expiry only: ordering between
        # *different* deadlines is guaranteed and must be preserved.
        order: List[int] = []
        start = 0
        while start < len(entries):
            stop = start
            expiry = entries[start][0]._expiry
            while (stop < len(entries)
                   and entries[stop][0]._expiry == expiry):
                stop += 1
            group = list(range(start, stop))
            if len(group) > 1:
                group = [group[i] for i in self._permutation(len(group))]
            order.extend(group)
            start = stop
        fired = 0
        for index in order:
            timer, gen = entries[index]
            # An earlier sibling may have cancelled or rescheduled
            # this timer after we popped it; honour that.
            if not timer._scheduled or timer._gen != gen:
                continue
            if timer._interval is None:
                timer._scheduled = False
            timer._fire()
            fired += 1
        return fired

    def _run_one_slice(self, call, scheduler: TaskScheduler) -> bool:
        for priority in sorted(scheduler._queues):
            queue = scheduler._queues[priority]
            alive = [t for t in queue if t.alive]
            if not alive:
                queue.clear()
                continue
            task = alive[self.rng.randrange(len(alive))]
            queue.remove(task)
            more = task._run_slice()
            if more and task.alive:
                queue.append(task)
            return True
        return False
