"""RIB-side flow control for the route stream toward the FEA.

The FEA's dataplane backend can be slower than the control plane; the
FEA answers a FIB XRL only once its backend has settled every op the
call carried.  This controller sits between the RIB's distributor
stages and the transmit queue and turns those answers into *pacing*:

* routes enter a FIFO of ``(family, op, route)`` events; the pump
  drains maximal same-``(family, op)`` runs into vectorized XRLs (one
  route stays a singular XRL), segmented by the RIB's batch limit —
  exactly the wire shapes the unpaced path produced;
* an **in-flight window** bounds the operations sent but not yet
  answered, and so the FEA's un-acked dataplane queue: the reply is
  the one pressure signal;
* if the backlog exceeds its **high watermark**, the controller sheds
  superseded events, oldest first: an event is dropped when a newer
  event for the same prefix sits behind it in the queue (FIB ops are
  last-writer-wins per prefix, so only each prefix's newest queued op
  determines the final table).

The queue length is therefore bounded by the number of *distinct*
prefixes in flight (plus at most one watermark of events not yet
scanned), not by the churn rate — the property the resilience benchmark
asserts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Tuple

#: one queued distribution event: (family bits, "add"/"delete", route, hint)
_Event = Tuple[int, str, Any, bool]

#: send_segment(family, op, routes, batching, on_reply) — build and
#: transmit one singular or vectorized FIB XRL for a same-op run.
SendSegment = Callable[[int, str, List[Any], bool, Callable], None]


class FeaFlowController:
    """Windowed, shedding pump for the RIB→FEA route stream."""

    def __init__(self, *, send_segment: SendSegment,
                 batch_limit: Callable[[], int],
                 window: int = 512,
                 high_watermark: int = 1024):
        self.window = window
        self.high_watermark = high_watermark
        self._send_segment = send_segment
        self._batch_limit = batch_limit
        self._queue: Deque[_Event] = deque()
        self._inflight = 0
        self._pumping = False
        #: depth above which the next shed scan runs: the high watermark,
        #: raised by however many distinct-prefix events the last scan had
        #: to keep beyond it (rescanning those on every intake is futile)
        self._shed_above = high_watermark
        self.shed_total = 0

    # -- observability -------------------------------------------------------
    def register_metrics(self, metrics) -> None:
        metrics.gauge("flow.queue", lambda: len(self._queue))
        metrics.gauge("flow.inflight", lambda: self._inflight)
        metrics.gauge("flow.shed", lambda: self.shed_total)

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        return not self._queue and self._inflight == 0

    # -- intake ---------------------------------------------------------------
    def submit_batch(self, family: int, op: str, routes: List[Any]) -> None:
        """Queue one stage batch, in order.

        The wire-coalescing hint is decided here, once: a multi-route
        batch shares the event-loop turn anyway, so its XRLs may be
        coalesced into one wire flush; a lone route leaves immediately.
        """
        hint = len(routes) > 1
        append = self._queue.append
        for route in routes:
            append((family, op, route, hint))
        self._after_intake()

    def _after_intake(self) -> None:
        if len(self._queue) > self._shed_above:
            self._shed()
            kept = len(self._queue)
            # Still above the watermark means that many *distinct*
            # prefixes are in flight: a rescan can only pay off once a
            # watermark's worth of new events has arrived, which keeps the
            # scans amortised O(1) per event and the depth within one
            # watermark of the distinct-prefix count.
            self._shed_above = (kept + self.high_watermark
                                if kept > self.high_watermark
                                else self.high_watermark)
        self.pump()

    def _shed(self) -> None:
        """Drop events superseded by a newer same-prefix event behind them.

        Keeps exactly the newest queued event per (family, prefix), in
        order — the final FIB state is unchanged because FIB operations
        are idempotent and last-writer-wins per prefix.
        """
        queue = self._queue
        seen = set()
        kept = []
        for event in reversed(queue):
            key = (event[0], event[2].net)
            if key not in seen:
                seen.add(key)
                kept.append(event)
        self.shed_total += len(queue) - len(kept)
        queue.clear()
        queue.extend(reversed(kept))

    def reset(self) -> None:
        """Drop the backlog (a reborn FEA starts empty; the full-table
        resync that follows supersedes everything queued)."""
        self._queue.clear()
        self._shed_above = self.high_watermark

    # -- the pump ---------------------------------------------------------------
    def pump(self) -> None:
        if self._pumping:
            return  # a reply handler re-entered while we were draining
        self._pumping = True
        queue = self._queue
        popleft = queue.popleft
        try:
            while queue and self._inflight < self.window:
                # A segment never exceeds the *remaining* window: one
                # oversized vectorized XRL would otherwise land more
                # un-acked ops on the FEA than the window promises.
                limit = max(1, min(int(self._batch_limit()),
                                   self.window - self._inflight))
                family, op = queue[0][0], queue[0][1]
                routes: List[Any] = []
                hint = queue[0][3]
                while (queue and len(routes) < limit
                        and queue[0][0] == family
                        and queue[0][1] == op):
                    routes.append(popleft()[2])
                count = len(routes)
                self._inflight += count
                # The drained events leave the kept-beyond-watermark set.
                self._shed_above = max(self.high_watermark,
                                       self._shed_above - count)
                self._send_segment(
                    family, op, routes, hint,
                    lambda error, args, count=count: self._on_reply(count))
        finally:
            self._pumping = False

    def _on_reply(self, count: int) -> None:
        """The FEA settled a segment (or the call failed): its routes
        leave the window."""
        self._inflight -= count
        self.pump()
