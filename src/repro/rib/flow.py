"""RIB-side flow control for the route stream toward the FEA.

The FEA's dataplane backend can be slower than the control plane; its
driver reports pressure (``queued``/``congested``) on every FIB XRL
reply.  This controller sits between the RIB's distributor stages and
the transmit queue and turns that signal into *pacing*:

* routes enter a FIFO of ``(family, op, route)`` events; the pump
  drains maximal same-``(family, op)`` runs into vectorized XRLs (one
  route stays a singular XRL), segmented by the RIB's batch limit —
  exactly the wire shapes the unpaced path produced;
* an **in-flight window** bounds the operations sent but not yet
  replied to, so even before the first congestion signal the FEA's
  pending queue cannot be swamped;
* a ``congested: true`` reply **pauses** the pump; while paused the
  controller polls ``get_queue_status`` until the FEA's watermark latch
  releases, then resumes;
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

#: poll_status(on_reply) — transmit one ``get_queue_status`` XRL.
PollStatus = Callable[[Callable], None]


class FeaFlowController:
    """Watermarked, congestion-paced pump for the RIB→FEA route stream."""

    def __init__(self, loop, *, send_segment: SendSegment,
                 poll_status: PollStatus,
                 batch_limit: Callable[[], int],
                 window: int = 512,
                 high_watermark: int = 1024,
                 poll_interval: float = 0.05):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        self.loop = loop
        self.window = window
        self.high_watermark = high_watermark
        self.poll_interval = poll_interval
        self._send_segment = send_segment
        self._poll_status = poll_status
        self._batch_limit = batch_limit
        self._queue: Deque[_Event] = deque()
        self._inflight = 0
        self._paused = False
        self._poll_scheduled = False
        self._pumping = False
        #: depth above which the next shed scan runs: the high watermark,
        #: raised by however many distinct-prefix events the last scan had
        #: to keep beyond it (rescanning those on every intake is futile)
        self._shed_above = high_watermark
        self.shed_total = 0
        self.polls_sent = 0
        self.peak_depth = 0

    # -- observability -------------------------------------------------------
    def register_metrics(self, metrics) -> None:
        metrics.gauge("flow.queue", lambda: len(self._queue))
        metrics.gauge("flow.inflight", lambda: self._inflight)
        metrics.gauge("flow.paused", lambda: self._paused)
        metrics.gauge("flow.shed", lambda: self.shed_total)

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def paused(self) -> bool:
        return self._paused

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
        if len(self._queue) > self.peak_depth:
            self.peak_depth = len(self._queue)
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
        """Drop the backlog and unpause (a reborn FEA starts empty; the
        full-table resync that follows supersedes everything queued)."""
        self._queue.clear()
        self._shed_above = self.high_watermark
        self._paused = False

    # -- the pump ---------------------------------------------------------------
    def pump(self) -> None:
        if self._pumping:
            return  # a reply handler re-entered while we were draining
        self._pumping = True
        queue = self._queue
        popleft = queue.popleft
        try:
            while (queue and not self._paused
                    and self._inflight < self.window):
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
                    lambda error, args, count=count:
                        self._on_reply(count, error, args))
        finally:
            self._pumping = False

    # -- the pressure signal -------------------------------------------------
    def _on_reply(self, count: int, error, args) -> None:
        self._inflight -= count
        self._handle_status(error, args)
        self.pump()

    def _handle_status(self, error, args) -> None:
        congested = self._read_congested(error, args)
        if congested is None:
            return
        if congested and not self._paused:
            self._paused = True
            self._schedule_poll()
        elif not congested and self._paused:
            self._paused = False

    @staticmethod
    def _read_congested(error, args):
        if error is not None and not error.is_okay:
            return None
        if args is None:
            return None
        try:
            return args.get_bool("congested")
        except (KeyError, ValueError):
            return None

    def _schedule_poll(self) -> None:
        if self._poll_scheduled:
            return
        self._poll_scheduled = True
        self.loop.call_later(self.poll_interval, self._poll,
                             name="fea-flow-poll")

    def _poll(self) -> None:
        self._poll_scheduled = False
        if not self._paused:
            return
        self.polls_sent += 1
        self._poll_status(self._on_poll_reply)

    def _on_poll_reply(self, error, args) -> None:
        self._handle_status(error, args)
        if self._paused:
            self._schedule_poll()
        else:
            self.pump()
