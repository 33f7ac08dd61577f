"""The netlink-like backend: an asynchronous, lossy, crashable dataplane.

A real kernel route socket has every property the in-memory table lacks:
requests queue behind a *bounded* buffer (overflow is an ``ENOBUFS``
nack — the kernel's backpressure), each request is acknowledged
individually and asynchronously, acknowledgements can be lost, the
channel is slower than the control plane, and the forwarding engine can
crash and come back empty.  This backend models all of that with the
same discipline as :class:`~repro.xrl.transport.fault.FaultFamily`:
every fault decision comes from one seeded :class:`random.Random` and
every delay is scheduled on the caller's event loop, so a chaos run
under a :class:`~repro.eventloop.clock.SimulatedClock` is exactly
reproducible.

Fault shapes (mirroring the FaultFamily kinds, applied to FIB ops
instead of XRL frames):

* **nack** — the operation is rejected and not applied (``EINVAL``);
* **drop-ack** — the operation *is* applied but its completion never
  arrives (the ack datagram is lost);
* **latency** — each queued operation completes only after a seeded
  service delay, which is also the throughput throttle;
* **crash/restart** — :meth:`crash` drops the channel and (by default)
  the dataplane's tables; queued and in-flight operations are lost and
  never complete; :meth:`restart` reattaches an empty dataplane.

The driver above is expected to survive every one of these through
retries, ack timeouts and reconciliation — that is what the resilience
suite asserts.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Sequence

from repro.fea.backends.base import ADD, CompletionCallback, FibOp
from repro.fea.backends.trie import TrieFibBackend


class BackendFaultPlan:
    """Seeded fault schedule: nack / drop-ack / latency decisions."""

    def __init__(self, *, seed: int = 0,
                 nack_probability: float = 0.0,
                 drop_ack_probability: float = 0.0,
                 latency: float = 0.001,
                 latency_jitter: float = 0.0):
        if latency <= 0:
            raise ValueError("latency must be > 0 (a zero-delay completion "
                             "would race the submitting turn)")
        self.nack_probability = nack_probability
        self.drop_ack_probability = drop_ack_probability
        self.latency = latency
        self.latency_jitter = latency_jitter
        self._rng = random.Random(seed)

    def _roll(self, probability: float) -> bool:
        return probability > 0 and self._rng.random() < probability

    def roll_nack(self) -> bool:
        return self._roll(self.nack_probability)

    def roll_drop_ack(self) -> bool:
        return self._roll(self.drop_ack_probability)

    def next_latency(self) -> float:
        delay = self.latency
        if self.latency_jitter > 0:
            delay += self._rng.random() * self.latency_jitter
        return delay


class NetlinkStats:
    """Counters for everything the channel did, by outcome."""

    __slots__ = ("applied", "acked", "nacked", "dropped_acks", "rejected",
                 "lost", "crashes")

    def __init__(self) -> None:
        self.applied = 0        # ops that reached the dataplane tables
        self.acked = 0          # completions delivered with ok=True
        self.nacked = 0         # completions delivered with ok=False
        self.dropped_acks = 0   # applied, but the ack was lost
        self.rejected = 0       # ENOBUFS: bounded queue overflow
        self.lost = 0           # ops discarded by a crash
        self.crashes = 0

    def __repr__(self) -> str:
        return (f"<NetlinkStats applied={self.applied} acked={self.acked} "
                f"nacked={self.nacked} dropped_acks={self.dropped_acks} "
                f"rejected={self.rejected} lost={self.lost} "
                f"crashes={self.crashes}>")


class NetlinkFibBackend(TrieFibBackend):
    """Bounded async completion queue + seeded faults + crash/restart.

    The dataplane's tables, ``dump`` and ``__len__`` are the in-memory
    backend's; what this class adds is the channel in front of them."""

    name = "netlink"

    def __init__(self, *, queue_capacity: int = 256,
                 ops_per_completion: int = 1,
                 fault_plan: Optional[BackendFaultPlan] = None):
        super().__init__()
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, "
                             f"got {queue_capacity}")
        self.queue_capacity = queue_capacity
        #: how many queued ops one service tick completes (batch drain)
        self.ops_per_completion = ops_per_completion
        self.fault_plan = fault_plan if fault_plan is not None \
            else BackendFaultPlan()
        self.stats = NetlinkStats()
        self._queue: Deque[FibOp] = deque()
        self._loop = None
        self._crashed = False
        self._drain_pending = False
        #: increments per crash so a stale drain timer from a previous
        #: incarnation never services the restarted channel
        self._generation = 0

    # -- lifecycle -----------------------------------------------------------
    def open(self, loop, completion: CompletionCallback) -> None:
        self._loop = loop
        self._completion = completion

    def close(self) -> None:
        self._completion = None
        self._queue.clear()

    @property
    def healthy(self) -> bool:
        return not self._crashed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- the write path ------------------------------------------------------
    def apply(self, ops: Sequence[FibOp]) -> None:
        if self._crashed:
            # The channel is gone: ops vanish, completions never come.
            self.stats.lost += len(ops)
            return
        queue = self._queue
        append = queue.append
        for op in ops:
            if len(queue) >= self.queue_capacity:
                # The bounded buffer is the backpressure: reject now.
                self.stats.rejected += 1
                self._complete(op.seq, False, "ENOBUFS")
                continue
            append(op)
        self._schedule_drain()

    def _complete(self, seq: int, ok: bool, reason: str) -> None:
        if ok:
            self.stats.acked += 1
        else:
            self.stats.nacked += 1
        if self._completion is not None:
            self._completion(seq, ok, reason)

    def _schedule_drain(self) -> None:
        if self._drain_pending or not self._queue or self._loop is None:
            return
        self._drain_pending = True
        generation = self._generation
        self._loop.call_later(self.fault_plan.next_latency(),
                              lambda: self._drain(generation),
                              name="netlink-drain")

    def _drain(self, generation: int) -> None:
        self._drain_pending = False
        if generation != self._generation or self._crashed:
            return
        popleft = self._queue.popleft
        fault_plan = self.fault_plan
        for __ in range(min(self.ops_per_completion, len(self._queue))):
            op = popleft()
            if fault_plan.roll_nack():
                self._complete(op.seq, False, "EINVAL")
                continue
            table = self._tables[op.bits]
            entry = op.entry
            if op.op == ADD:
                table[entry.net] = entry
            else:
                table.pop(entry.net, None)
            self.stats.applied += 1
            if fault_plan.roll_drop_ack():
                self.stats.dropped_acks += 1
                continue
            self._complete(op.seq, True, "")
        self._schedule_drain()

    # -- crash / restart -----------------------------------------------------
    def crash(self, *, lose_tables: bool = True) -> None:
        """The dataplane dies: queued ops are lost, health goes down.

        With *lose_tables* (the default) the forwarding engine reboots
        empty — the worst case reconciliation must recover from.  With
        ``lose_tables=False`` only the channel dies (a netlink socket
        reset): the tables survive, but any in-queue ops are still lost.
        """
        if self._crashed:
            return
        self._crashed = True
        self._generation += 1
        self.stats.crashes += 1
        self.stats.lost += len(self._queue)
        self._queue.clear()
        if lose_tables:
            for table in self._tables.values():
                table.clear()
        self._notify_health(False)

    def restart(self) -> None:
        """Reattach the dataplane; the FEA reconciles on the up edge."""
        if not self._crashed:
            return
        self._crashed = False
        self._notify_health(True)
