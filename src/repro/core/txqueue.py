"""Route streams: pipelined XRLs under a window (paper §8.2).

Every hop that streams routes (BGP → RIB, RIB → FEA, RIB → each
redistribution target) sends through one :class:`RouteStream`, and the
RIB's whole-table sends to a consumer are its :meth:`RouteStream.dump`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.xrl import XrlRouter
from repro.xrl.retry import RetryPolicy
from repro.xrl.xrl import Xrl


class RouteStream:
    """The newest pending op per ``(group, net)`` (sdx-parallel's
    ``output`` table, not a log of every op), pumped under a window
    counted in routes: the reply is the completion.

    *segment(group, op, routes)* builds the one XRL of a same-(group, op)
    run, singular for a lone route; *batch_limit()* caps a run.  A key has
    at most one op on the wire and a newer one waits for its reply, so a
    re-send never overtakes a later op for the same prefix and unrelated
    prefixes are never held back.  *retry* is the process's
    :class:`RetryPolicy` or None: a send's deadline is its
    ``attempt_timeout``; a route whose segment failed with a retryable
    code is re-queued after ``delay(n)`` unless a newer op for its key
    waits.  Past ``max_attempts``, as on any other failure, the route is
    dropped and counted in :attr:`failed`.
    A producer that pulls (BGP's fanout) submits at most :meth:`room`
    routes and is resumed by *on_room*, called when a reply leaves room.
    """

    def __init__(self, router: XrlRouter,
                 segment: Callable[[Any, str, List[Any]], Xrl], *,
                 window: int = 512,
                 batch_limit: Callable[[], int] = lambda: 256,
                 retry: Optional[RetryPolicy] = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._router, self._segment = router, segment
        self.window, self._batch_limit, self.retry = window, batch_limit, retry
        #: key -> (op, route, attempts made); a replaced op keeps its place
        self._table: Dict[Tuple, Tuple] = OrderedDict()
        #: the newer op of a busy key, queued once the key is released
        self._held: Dict[Tuple, Tuple] = {}
        #: keys on the wire or waiting out a retry backoff
        self._busy: Set[Tuple] = set()
        #: whole-table walks still to send: (group, TrieIterator, keep)
        self._walks: Deque[Tuple] = deque()
        self._epoch = 0
        self._pumping = self._paused = self._turn_due = self._burst = False
        self.inflight = 0  # routes on the wire
        self.on_room: Optional[Callable[[], None]] = None
        self.sent_count = self.shed = self.retries = self.failed = 0

    def register_metrics(self, registry, prefix: str = "txq") -> None:
        for name in ("depth", "inflight", "sent_count", "shed", "retries",
                     "failed"):
            registry.gauge(f"{prefix}.{name.replace('_count', '')}",
                           lambda name=name: getattr(self, name))

    @property
    def depth(self) -> int:  # routes pending or held, not yet on the wire
        return len(self._table) + len(self._held)

    def room(self) -> int:  # routes the window has left
        return self.window - self.inflight - self.depth

    @property
    def idle(self) -> bool:
        return not (self._table or self._held or self._busy or self._walks)

    def submit(self, group: Any, op: str, routes: List[Any]) -> None:
        """Queue *routes* under *op*, in order, and pump."""
        table, held, busy, shed = self._table, self._held, self._busy, 0
        for route in routes:
            key = (group, route.net)
            pending = held if key in busy else table
            shed += key in pending
            pending[key] = (op, route, 0)
        self.shed += shed
        self._pump()

    def dump(self, group: Any, walk, keep: Callable[[Any], bool]) -> None:
        """Add the routes of *walk* (a ``TrieIterator``) that *keep* accepts,
        pulled a segment at a time while the table is empty and the window
        has room; a live op for a key commutes with it (the newest wins).
        The walk is read from a reply or a loop turn of its own, at most
        ``window`` routes a turn, never from :meth:`submit`: that may run
        inside a stage message that *walk*'s table has not yet seen."""
        self._walks.append((group, walk, keep))
        self._pump()

    def pause(self, paused: bool = True) -> None:
        """Send nothing while paused (the consumer is not ready yet)."""
        self._paused = paused
        self._pump()

    def reset(self) -> None:
        """Forget everything, walks too: the consumer was reborn empty, a
        full resync follows.  Replies and backoffs from before are ignored."""
        self._epoch += 1
        for __, walk, __ in self._walks:
            walk.close()
        for part in (self._table, self._held, self._busy, self._walks):
            part.clear()
        self.inflight = 0

    def _turn(self) -> None:
        self._turn_due = False
        self._pump(pull=True)

    def _pump(self, pull: bool = False) -> None:
        """Send maximal same-(group, op) runs in table order; with *pull*,
        refill the emptied table from the walks, a segment at a time."""
        if self._pumping or self._paused:
            return  # re-entered from a pull's submit, or paused
        self._pumping = True
        table, busy, policy = self._table, self._busy, self.retry
        deadline = None if policy is None else policy.attempt_timeout
        budget = self.window  # routes this turn may walk
        try:
            while self.inflight < self.window:
                # A segment never exceeds the window left: one oversized
                # XRL would land more un-acked routes than it promises.
                limit = min(self._batch_limit(), self.window - self.inflight)
                if not table:
                    if self._burst:  # an emptied OrderedDict keeps its size
                        self._burst = False
                        table.clear()
                    if not (pull and self._walks and budget > 0):
                        break
                    group, walk, keep = self._walks[0]
                    routes = walk.take(min(limit, budget))
                    if not routes:  # that walk has ended
                        self._walks.popleft()
                    budget -= len(routes)
                    self.submit(group, "add", list(filter(keep, routes)))
                    continue
                key, entry = table.popitem(last=False)
                group, op = key[0], entry[0]
                keys, run = [key], [entry]
                while table and len(run) < limit:
                    key, entry = table.popitem(last=False)
                    if key[0] != group or entry[0] != op:
                        table[key] = entry  # the next run's head
                        table.move_to_end(key, last=False)
                        break
                    keys.append(key)
                    run.append(entry)
                busy.update(keys)
                self.inflight += len(run)
                self.sent_count += 1
                self._router.send(
                    self._segment(group, op, [entry[1] for entry in run]),
                    partial(self._done, self._epoch, keys, run),
                    deadline=deadline, batch=len(run) > 1)
            else:  # the window filled: the table may have outgrown it
                self._burst = True
        finally:
            self._pumping = False
        if self._walks and not self.inflight and not self._turn_due:
            self._turn_due = True  # no reply is coming to pull the walk on
            self._router.loop.call_soon(self._turn)
        if pull and self.on_room is not None and self.room() > 0:
            self.on_room()

    def _done(self, epoch: int, keys: List, run: List, error, __) -> None:
        if epoch != self._epoch:
            return  # a reply from before reset()
        self.inflight -= len(run)
        okay, policy, held = error.is_okay, self.retry, self._held
        if okay and not held:
            self._busy.difference_update(keys)
            return self._pump(pull=True)
        retryable = policy is not None and policy.retryable(error.code)
        again = []
        for key, (op, route, tries) in zip(keys, run):
            if okay or key in held:  # answered, or superseded by a newer op
                self.shed += not okay
                self._release(key)
            elif retryable and tries + 1 < policy.max_attempts:
                again.append((key, (op, route, tries + 1)))
            else:
                self.failed += 1
                self._release(key)
        if again:
            self.retries += 1
            self._router.loop.call_later(
                policy.delay(max(entry[2] for __, entry in again)),
                partial(self._requeue, epoch, again), name="route-retry")
        self._pump(pull=True)

    def _requeue(self, epoch: int, again: List[Tuple]) -> None:
        if epoch == self._epoch:
            for key, entry in again:
                self._release(key, entry)
            self._pump(pull=True)

    def _release(self, key: Tuple, retry: Optional[Tuple] = None) -> None:
        """*key* leaves the wire: its held newer op queues, else *retry*."""
        self._busy.discard(key)
        entry = self._held.pop(key, None)
        self.shed += entry is not None and retry is not None
        if entry or retry:
            self._table[key] = entry or retry


class XrlTransmitQueue:
    """Window-limited pipelined sender of whole XRLs.  Its one remaining
    caller is ``bench/replay.py``'s ``core.txq_us_per_call`` replay;
    ROADMAP item 2 deletes it."""

    def __init__(self, router: XrlRouter, *, window: int = 100):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._router, self.window = router, window
        self._queue: Deque[Tuple[Xrl, Optional[Callable], bool]] = deque()
        self.inflight = self.sent_count = 0

    @property
    def idle(self) -> bool:
        return not self._queue and self.inflight == 0

    def enqueue(self, xrl: Xrl, on_reply: Optional[Callable] = None, *,
                batch: bool = False) -> None:
        self._queue.append((xrl, on_reply, batch))
        self._pump()

    def _pump(self) -> None:
        queue, send = self._queue, self._router.send
        while self.inflight < self.window and queue:
            xrl, on_reply, batch = queue.popleft()
            self.inflight += 1
            self.sent_count += 1
            send(xrl, partial(self._done, on_reply), batch=batch)

    def _done(self, on_reply: Optional[Callable], error, args) -> None:
        self.inflight -= 1
        if on_reply is not None:
            on_reply(error, args)
        self._pump()
