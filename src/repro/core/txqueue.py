"""Pipelined XRL transmit queue.

    "We should emphasize that the XRL interface is pipelined, so
    performance is still good when many routes change in a short time
    interval."  (paper §8.2)

Processes that stream route changes to another process (BGP → RIB,
RIB → FEA) queue the XRLs here; up to *window* calls are outstanding at a
time.  The queue exposes the two moments the paper's profiling measures:
*queued for transmission* (enqueue) and *sent* (handed to the transport).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.xrl import XrlArgs, XrlError, XrlRouter
from repro.xrl.retry import RetryPolicy
from repro.xrl.xrl import Xrl


class XrlTransmitQueue:
    """Window-limited pipelined sender of XRLs to one or more targets.

    *retry* is handed through to every :meth:`XrlRouter.send`.  Route
    streams (BGP → RIB, RIB → FEA) are idempotent, so queues carrying them
    opt in to retries: a dropped frame then costs one backoff instead of
    wedging the window forever.
    """

    def __init__(self, router: XrlRouter, *, window: int = 100,
                 retry: Optional[RetryPolicy] = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._router = router
        self._window = window
        self._queue: Deque[Tuple[Xrl, Optional[Callable], Optional[Callable],
                                 bool]] = deque()
        self._inflight = 0
        self._retry = retry
        self.sent_count = 0

    def __len__(self) -> int:
        return len(self._queue)

    def register_metrics(self, registry, prefix: str = "txq") -> None:
        """Expose depth/inflight/sent as gauges on *registry* under
        ``<prefix>.*`` (lazy reads; nothing on the enqueue hot path)."""
        registry.gauge(f"{prefix}.depth", lambda: len(self._queue))
        registry.gauge(f"{prefix}.inflight", lambda: self._inflight)
        registry.gauge(f"{prefix}.sent", lambda: self.sent_count)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def idle(self) -> bool:
        return not self._queue and self._inflight == 0

    def enqueue(self, xrl: Xrl,
                on_sent: Optional[Callable[[], None]] = None,
                on_reply: Optional[Callable[[XrlError, XrlArgs], None]] = None,
                *, batch: bool = False) -> None:
        """Queue *xrl*; *on_sent* fires when it is handed to the transport.

        *batch* is forwarded to :meth:`XrlRouter.send`: enqueues from one
        burst (a batched stage delivering a route batch downstream) then
        coalesce on the wire within the event-loop turn.
        """
        self._queue.append((xrl, on_sent, on_reply, batch))
        self._pump()

    def _pump(self) -> None:
        queue = self._queue
        popleft = queue.popleft
        send = self._router.send
        while self._inflight < self._window and queue:
            xrl, on_sent, on_reply, batch = popleft()
            self._inflight += 1
            self.sent_count += 1
            if on_sent is not None:
                on_sent()
            send(xrl, self._completion(on_reply), retry=self._retry,
                 batch=batch)

    def _completion(self, on_reply) -> Callable:
        def done(error: XrlError, args: XrlArgs) -> None:
            self._inflight -= 1
            if on_reply is not None:
                on_reply(error, args)
            self._pump()

        return done
