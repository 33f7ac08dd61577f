"""Single-threaded event-driven programming model (paper §4).

Every XORP process is built on a select-based event loop: events come from
timers and file descriptors, callbacks are dispatched when events fire, and
*background tasks* — cooperative threads that divide work into small slices —
run only when no events are being processed.

Two clocks are provided.  :class:`SystemClock` drives real sockets and wall
time (used by the XRL throughput benchmark).  :class:`SimulatedClock` gives
deterministic virtual time, which the latency experiments (paper Figures
10-13) use so that a 500-second experiment runs in milliseconds.
"""

from repro.eventloop.clock import Clock, SimulatedClock, SystemClock
from repro.eventloop.eventloop import EventLoop
from repro.eventloop.tasks import BackgroundTask, TaskPriority
from repro.eventloop.timers import Timer

__all__ = [
    "BackgroundTask",
    "Clock",
    "EventLoop",
    "SimulatedClock",
    "SystemClock",
    "TaskPriority",
    "Timer",
]
