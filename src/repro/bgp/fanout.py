"""The Fanout Queue stage (paper §5.1.1).

    "The Fanout Queue, which duplicates routes for each peer and for the
    RIB, is in practice complicated by the need to send routes to slow
    peers. ... Since the outgoing filter banks modify routes in different
    ways for different peers, the best place to queue changes is in the
    fanout stage, after the routes have been chosen but before they have
    been specialized.  The Fanout Queue module then maintains a single
    route change queue, with n readers (one for each peer) referencing
    it."

Readers attach with a *background dump* of the winners — the upstream
stage's ``winners`` dict (the decision's), updated before each change is
enqueued here — correctly interleaved with live changes.  The dump is a
:class:`~repro.trie.SnapshotWalk`: the winners' prefixes when the reader
attached, sorted, and a position.  At enqueue time each dumping reader
is marked to skip the entry if its prefix is still pending in that
snapshot, since the dump itself will deliver the post-change state;
every other prefix — one the dump passed, or one that won after the
dump began — reaches the reader through the queue.  A busy reader holds
a position in the queue, not a copy of it, and its dump parks; a reader
with a *room* (the RIB's, whose route stream has a window) takes at most
that many routes at a time.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.core.stages import RouteTableStage
from repro.eventloop.tasks import TaskPriority
from repro.trie import SnapshotWalk

ADD, DELETE, REPLACE = "add", "delete", "replace"


class _QueueEntry:
    __slots__ = ("serial", "op", "route", "old_route", "skip_readers")

    def __init__(self, serial: int, op: str, route: Any, old_route: Any,
                 skip_readers: Optional[Set[str]]):
        self.serial = serial
        self.op = op
        self.route = route
        self.old_route = old_route
        self.skip_readers = skip_readers


class Reader:
    """One consumer of the change queue (a peer branch or the RIB branch)."""

    __slots__ = ("name", "deliver", "next_serial", "busy", "room",
                 "dump_walk", "dump_task")

    def __init__(self, name: str,
                 deliver: Callable[[str, List[Any], Any], None],
                 next_serial: int):
        self.name = name
        #: deliver(op, routes, old_route): a run of consecutive same-op
        #: changes, in queue order; a REPLACE is a run of one
        self.deliver = deliver
        self.next_serial = next_serial
        self.busy = False
        #: () -> routes the reader takes now, or None for a run's worth
        self.room: Optional[Callable[[], int]] = None
        self.dump_walk: Optional[SnapshotWalk] = None
        self.dump_task = None

    @property
    def dumping(self) -> bool:
        return self.dump_walk is not None


class FanoutQueue(RouteTableStage):
    """Single change queue, n readers, per-reader background dumps.

    Readers consume *runs*: the pump groups the consecutive same-op
    entries a reader is due (the burst one UPDATE put on the queue) into
    one ``deliver(op, routes, old_route)`` call, so a batch that entered
    the queue as a batch leaves it as one — towards a peer's output
    branch and towards the RIB alike.
    """

    #: a run carries at most this many routes (one stage batch
    #: downstream, one vectorized XRL towards the RIB); the BGP-side twin
    #: of ``RibProcess.FEA_BATCH_LIMIT``
    RUN_LIMIT = 256

    def __init__(self, name: str, loop, *, dump_slice: int = 64):
        super().__init__(name)
        self.loop = loop
        self.dump_slice = dump_slice
        self.queue: Deque[_QueueEntry] = deque()
        self._next_serial = 0
        self.readers: Dict[str, Reader] = {}
        self._pump_scheduled: Set[str] = set()

    # -- reader management -----------------------------------------------------
    def add_reader(self, name: str,
                   deliver: Callable[[str, List[Any], Any], None], *,
                   dump: bool = True) -> Reader:
        """Attach a reader.

        With ``dump=True`` the reader first receives every existing winner
        as a background task, then seamlessly follows live changes.
        """
        if name in self.readers:
            raise ValueError(f"fanout reader {name!r} already attached")
        reader = Reader(name, deliver, self._next_serial)
        self.readers[name] = reader
        if dump and self.parent.winners:
            reader.dump_walk = SnapshotWalk(self.parent.winners)
            self._spawn_dump(reader)
        return reader

    def _spawn_dump(self, reader: Reader) -> None:
        reader.dump_task = self.loop.spawn_task(
            lambda: self._dump_slice(reader),
            priority=TaskPriority.BACKGROUND,
            name=f"{self.name}-dump-{reader.name}",
        )

    def remove_reader(self, name: str) -> None:
        reader = self.readers.pop(name, None)
        if reader is None:
            return
        if reader.dump_task is not None:
            reader.dump_task.kill()
        self._trim()

    def set_reader_busy(self, name: str, busy: bool) -> None:
        """Flow control: a busy reader stops draining and its dump parks."""
        reader = self.readers[name]
        if reader.busy == busy:
            return
        reader.busy = busy
        if not busy:
            self._schedule_pump(reader)
            if reader.dumping and reader.dump_task is None:
                self._spawn_dump(reader)

    # -- stage messages ----------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        self._enqueue_batch(ADD, routes, None)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._enqueue_batch(DELETE, routes, None)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._enqueue_batch(REPLACE, [new_route], old_route)

    # -- queueing --------------------------------------------------------
    def _dump_skip_set(self, net) -> Optional[Set[str]]:
        """Dumping readers whose dump will still reach *net* (they must not
        also see it through the queue)."""
        skip: Optional[Set[str]] = None
        for reader in self.readers.values():
            walk = reader.dump_walk
            if walk is not None and walk.pending(net):
                # The dump will reach this prefix and emit the (already
                # updated) winners' state; the queue must stay silent.
                if skip is None:
                    skip = set()
                skip.add(reader.name)
        return skip

    def _enqueue_batch(self, op: str, routes: List[Any],
                       old_route: Any) -> None:
        """Append a whole burst, then schedule each reader's pump once.

        Each route is classified against the dumps itself (a dump
        advances only in background tasks, but the prefixes of a batch
        are not sorted); the per-batch saving is the single pump
        scheduling pass.
        *old_route* is None except for the one route of a REPLACE.
        """
        if not self.readers:
            return  # nobody will ever read this
        any_dumping = any(r.dumping for r in self.readers.values())
        append = self.queue.append
        serial = self._next_serial
        for route in routes:
            skip = self._dump_skip_set(route.net) if any_dumping \
                else None
            append(_QueueEntry(serial, op, route, old_route, skip))
            serial += 1
        self._next_serial = serial
        for reader in self.readers.values():
            self._schedule_pump(reader)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def _schedule_pump(self, reader: Reader) -> None:
        if reader.name in self._pump_scheduled or reader.busy:
            return
        self._pump_scheduled.add(reader.name)
        self.loop.call_soon(self._pump, reader.name)

    def _pump(self, name: str) -> None:
        self._pump_scheduled.discard(name)
        reader = self.readers.get(name)
        if reader is None:
            return
        queue = self.queue
        while reader.next_serial < self._next_serial:
            limit = self._room(reader)
            if not limit:
                break
            # One run: the consecutive entries of one op this reader is
            # due.  A REPLACE carries its own old_route, so it never
            # shares a run.
            op = old_route = None
            routes: List[Any] = []
            start = reader.next_serial - queue[0].serial
            for entry in islice(queue, start, start + limit):
                skip = entry.skip_readers
                if skip is not None and name in skip:
                    reader.next_serial += 1
                    continue
                if op is None:
                    op, old_route = entry.op, entry.old_route
                elif entry.op != op or op == REPLACE:
                    break
                routes.append(entry.route)
                reader.next_serial += 1
            if routes:
                reader.deliver(op, routes, old_route)
        self._trim()

    def _room(self, reader: Reader) -> int:
        """The routes *reader* takes now, at most a run; with no room left
        it turns busy until ``set_reader_busy`` resumes it."""
        room = self.RUN_LIMIT
        if reader.room is not None and not reader.busy:
            room = min(room, reader.room())
            reader.busy = room <= 0
        return 0 if reader.busy else room

    def _trim(self) -> None:
        if not self.readers:
            self.queue.clear()
            return
        low_water = min(r.next_serial for r in self.readers.values())
        queue = self.queue
        popleft = queue.popleft
        while queue and queue[0].serial < low_water:
            popleft()

    # -- background dumping ----------------------------------------------------
    def _dump_slice(self, reader: Reader) -> bool:
        if reader.name not in self.readers:
            return False
        budget = self.dump_slice
        walk = reader.dump_walk
        while budget > 0 and not walk.exhausted:
            limit = self._room(reader)
            if not limit:
                reader.dump_task = None
                return False  # parked until set_reader_busy resumes it
            # The slice leaves as ADD runs.  The walk has passed a run
            # before it is delivered, so a change the delivery provokes
            # is classified against the keys still pending.
            routes = walk.take(min(budget, limit))
            if routes:
                budget -= len(routes)
                reader.deliver(ADD, routes, None)
        if walk.exhausted:
            reader.dump_walk = None
            reader.dump_task = None
            return False
        return True
