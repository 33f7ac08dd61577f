"""The event loop itself.

Modeled on the SFS-toolkit-style select loop the paper describes: timers
and file descriptors generate events; callbacks are dispatched when events
occur; each event is processed to completion; background tasks run only
when no events are pending.

One loop instance is shared by every "process" object running in the same
interpreter (they are still isolated — they interact only via XRLs), which
mirrors how the simulated-network experiments schedule many routers.
"""

from __future__ import annotations

import selectors
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.eventloop import collector
from repro.eventloop.clock import Clock, SimulatedClock, SystemClock
from repro.eventloop.tasks import BackgroundTask, TaskPriority, TaskScheduler
from repro.eventloop.timers import Timer, TimerList


class EventLoop:
    """Select-based event loop with timers and background tasks."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.timers = TimerList(self.clock)
        self.tasks = TaskScheduler()
        self._deferred: Deque[Tuple[Callable, tuple]] = deque()
        self._selector = selectors.DefaultSelector()
        self._fd_count = 0
        self._stopping = False
        #: flushes of the channels delivering a received chunk, which hold
        #: their writes until it is done (``xrl/transport/tcp.py``); a turn
        #: entered from inside a delivery runs them first — a nested
        #: ``send_sync`` would otherwise wait on a request never written
        self.corked: List[Callable[[], None]] = []

    # -- time -------------------------------------------------------------
    def now(self) -> float:
        return self.clock.now()

    # -- observability -----------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Expose queue depths and the collector's accounting as gauges
        on *registry* (a :class:`repro.obs.metrics.MetricsRegistry`).
        Gauges are read only at scrape time, so registering costs the
        loop nothing.
        """
        registry.gauge("eventloop.deferred", lambda: len(self._deferred))
        registry.gauge("eventloop.timers", lambda: len(self.timers))
        registry.gauge("eventloop.tasks", self.tasks.pending_count)
        collector.register_metrics(registry)

    # -- deferred callbacks -------------------------------------------------
    def call_soon(self, cb: Callable, *args: Any) -> None:
        """Queue *cb* to run on the next loop iteration (an "event")."""
        self._deferred.append((cb, args))

    def _drain_deferred(self) -> None:
        """Run the callbacks queued before this iteration.

        New callbacks queued by handlers run next time, preserving
        fairness.  This is a named method (rather than inlined in
        :meth:`run_once`) so the sanitizer's schedule shuffler can stand
        in for one dispatch point to permute the batch.
        """
        for __ in range(len(self._deferred)):
            if not self._deferred:
                break
            cb, args = self._deferred.popleft()
            cb(*args)

    # -- timers ---------------------------------------------------------------
    def call_later(self, delay: float, cb: Callable, *, name: str = "timer") -> Timer:
        return self.timers.schedule_after(delay, cb, name=name)

    def call_at(self, when: float, cb: Callable, *, name: str = "timer") -> Timer:
        return self.timers.schedule_at(when, cb, name=name)

    def call_periodic(self, interval: float, cb: Callable, *,
                      name: str = "periodic") -> Timer:
        return self.timers.schedule_periodic(interval, cb, name=name)

    # -- background tasks -------------------------------------------------
    def spawn_task(self, step: Callable[[], bool], *,
                   priority: TaskPriority = TaskPriority.DEFAULT,
                   name: str = "task",
                   on_complete: Optional[Callable[[], None]] = None) -> BackgroundTask:
        """Add a cooperative background task (see :mod:`repro.eventloop.tasks`)."""
        return self.tasks.spawn(step, priority=priority, name=name,
                                on_complete=on_complete)

    # -- file descriptors ---------------------------------------------------
    def add_reader(self, fileobj: Any, cb: Callable) -> None:
        """Dispatch *cb* whenever *fileobj* is readable (real clock only)."""
        self._register(fileobj, selectors.EVENT_READ, cb)

    def add_writer(self, fileobj: Any, cb: Callable) -> None:
        self._register(fileobj, selectors.EVENT_WRITE, cb)

    def _register(self, fileobj: Any, mask: int, cb: Callable) -> None:
        try:
            key = self._selector.get_key(fileobj)
        except KeyError:
            self._selector.register(fileobj, mask, {mask: cb})
            self._fd_count += 1
            return
        data = dict(key.data)
        data[mask] = cb
        self._selector.modify(fileobj, key.events | mask, data)

    def remove_reader(self, fileobj: Any) -> None:
        self._unregister(fileobj, selectors.EVENT_READ)

    def remove_writer(self, fileobj: Any) -> None:
        self._unregister(fileobj, selectors.EVENT_WRITE)

    def _unregister(self, fileobj: Any, mask: int) -> None:
        try:
            key = self._selector.get_key(fileobj)
        except KeyError:
            return
        events = key.events & ~mask
        data = {m: cb for m, cb in key.data.items() if m != mask}
        if events:
            self._selector.modify(fileobj, events, data)
        else:
            self._selector.unregister(fileobj)
            self._fd_count -= 1

    # -- running -----------------------------------------------------------
    def stop(self) -> None:
        """Make :meth:`run` return after the current event."""
        self._stopping = True

    def pending_events(self) -> bool:
        """True if an event (deferred callback or expired timer) is ready."""
        if self._deferred:
            return True
        expiry = self.timers.next_expiry()
        return expiry is not None and expiry <= self.clock.now()

    def poll_io(self, timeout: float = 0.0) -> bool:
        """Service ready I/O callbacks once, nothing else.

        Unlike :meth:`run_once` this never runs timers or deferred
        callbacks, so it is safe to call from *inside* a timer callback —
        the spawn manager uses it to serve Finder and XRL traffic while it
        blocks waiting for a freshly forked child to register.
        """
        if self.corked:
            self._write_corked()
        if not self._fd_count:
            return False
        ran = False
        for key, mask in self._selector.select(timeout):
            for want_mask, cb in list(key.data.items()):
                if mask & want_mask:
                    cb()
                    ran = True
        return ran

    def run_once(self, block: bool = True) -> bool:
        """Process one batch of events; return True if anything ran.

        Order per iteration: deferred callbacks, expired timers, I/O events,
        then — only if none of those produced work — one background-task
        slice.  With a :class:`SimulatedClock` and no ready work, virtual
        time jumps to the next timer deadline.  Before any of it, between
        two events, the full garbage collection gets its turn if it is
        due (:mod:`repro.eventloop.collector`), and a turn nested inside a
        delivery writes what the delivering channels hold (:attr:`corked`).
        """
        if self.corked:
            self._write_corked()
        collector.between_events()
        ran = False

        if self._deferred:
            self._drain_deferred()
            ran = True

        if self.timers.run_expired():
            ran = True

        if self._fd_count:
            timeout = 0.0
            if block and not ran and not self.tasks.have_work():
                timeout = self._io_timeout()
            for key, mask in self._selector.select(timeout):
                for want_mask, cb in list(key.data.items()):
                    if mask & want_mask:
                        cb()
                        ran = True

        if not ran and not self.pending_events():
            if self.tasks.run_one_slice():
                return True
            if block and isinstance(self.clock, SimulatedClock):
                expiry = self.timers.next_expiry()
                if expiry is not None:
                    self.clock.advance_to(expiry)
                    return True
            return False
        return ran

    def _write_corked(self) -> None:
        for flush in list(self.corked):
            flush()

    def _io_timeout(self) -> Optional[float]:
        expiry = self.timers.next_expiry()
        if expiry is None:
            return 0.05
        return max(0.0, min(expiry - self.clock.now(), 0.05))

    def run(self, duration: Optional[float] = None) -> None:
        """Run until :meth:`stop`, or until *duration* seconds elapse."""
        self._stopping = False
        deadline = None if duration is None else self.clock.now() + duration
        while not self._stopping:
            if deadline is not None and self.clock.now() >= deadline:
                return
            if (deadline is not None
                    and isinstance(self.clock, SimulatedClock)
                    and not self.pending_events()
                    and not self.tasks.have_work()):
                # Don't let the virtual clock jump past the deadline to a
                # far-future timer; stop exactly at the deadline instead.
                expiry = self.timers.next_expiry()
                if expiry is None or expiry > deadline:
                    self.clock.advance_to(deadline)
                    return
            progressed = self.run_once()
            if not progressed and self._idle():
                if isinstance(self.clock, SimulatedClock):
                    if deadline is None:
                        return  # simulation has fully quiesced
                    self.clock.advance_to(deadline)
                    return
                if deadline is None:
                    return

    def run_until(self, predicate: Callable[[], bool],
                  timeout: float = 30.0) -> bool:
        """Run until *predicate()* is true; return False on timeout."""
        deadline = self.clock.now() + timeout
        while not predicate():
            if self.clock.now() >= deadline:
                return False
            progressed = self.run_once()
            if not progressed and self._idle():
                if isinstance(self.clock, SimulatedClock):
                    return predicate()
        return True

    def _idle(self) -> bool:
        return (
            not self._deferred
            and self.timers.next_expiry() is None
            and not self.tasks.have_work()
            and self._fd_count == 0
        )
