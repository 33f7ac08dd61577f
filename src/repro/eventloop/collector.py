"""Who runs CPython's cycle collector: the event loop, between events.

    "background tasks ... run only when no events are being processed"
    (paper §4)

Left alone, CPython starts a full (generation-2) collection whenever the
heap has grown by a quarter since the last one, wherever that lands —
inside a route handler, once per few hundred routes while a table loads —
and every one re-walks the whole table to find no garbage, because the
route path builds no reference cycles.  A process that turns an
:class:`~repro.eventloop.EventLoop` therefore takes the full collection
over: the third threshold is pushed out of reach, the two young
generations stay automatic (they are what bounds the garbage a handler
can make), and the loop runs ``gc.collect()`` itself, between two events,
when both of these hold:

* something has been promoted since the last full collection — at least
  :data:`PROMOTIONS_PER_FULL` middle-generation collections, CPython's
  own test, so a router holding a static table never collects;
* the time budget allows it — the next full collection is due
  ``last_pause / FULL_GC_SHARE`` after the last one ended, so the
  collector's share of wall time is bounded whatever the table size.

There is nothing to configure and no second policy.  The budget is real
time (:data:`now`) under a simulated clock too: the pause it rations is
real.  A process that stops turning loops gets stock CPython back:
``Host.shutdown()`` — a whole router just became cyclic garbage, and the
loop may never turn again — restores the threshold found at take-over
(:func:`hand_back`), and the next turn of any loop takes over again.

A ``gc.callbacks`` hook is the accounting: collections, seconds and objects
collected per generation, served as the ``gc.*`` gauges of every
process's ``metrics/1.0`` (:meth:`EventLoop.register_metrics`).
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Tuple

#: the share of wall time full collections may take
FULL_GC_SHARE = 0.02
#: middle-generation collections before a full one can be worth running
#: (CPython's default third threshold)
PROMOTIONS_PER_FULL = 10

#: a third threshold no process reaches
_OUT_OF_REACH = 2 ** 31 - 1

#: the clock the budget and the accounting read (tests replace it)
now = time.monotonic

#: middle-generation collections since the last full one.  Every loop
#: turn calls :func:`between_events`, which compares this integer with
#: PROMOTIONS_PER_FULL and, below it, does nothing else; so a turn costs
#: the loop the same whatever the heap did.  While CPython runs the full
#: collection (before a process's first loop turn, and after a
#: hand-back) it stays there: the next turn looks.
promoted = PROMOTIONS_PER_FULL

#: per generation: collections run, seconds they took
collections = [0, 0, 0]
seconds = [0.0, 0.0, 0.0]
#: unreachable objects found, all generations
collected = 0
last_full_pause = 0.0

#: the thresholds to hand back; None while CPython runs the full collection
_stock: Optional[Tuple[int, int, int]] = None
#: earliest time the budget allows the next full collection
_full_due = 0.0
_started = 0.0


def between_events() -> None:
    """A loop is between two events: the full collection, if it is due."""
    global promoted, _stock
    if promoted < PROMOTIONS_PER_FULL:
        return
    if _stock is None:
        if _on_collection not in gc.callbacks:
            gc.callbacks.append(_on_collection)
        _stock = gc.get_threshold()
        gc.set_threshold(_stock[0], _stock[1], _OUT_OF_REACH)
        promoted = gc.get_count()[2]
    if promoted >= PROMOTIONS_PER_FULL and now() >= _full_due:
        gc.collect()


def hand_back() -> None:
    """CPython runs the full collection again, until a loop next turns."""
    global promoted, _stock
    if _stock is not None:
        gc.set_threshold(*_stock)
        _stock = None
        promoted = PROMOTIONS_PER_FULL


def _on_collection(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: account for every collection and re-arm the
    budget after a full one, whoever asked for it."""
    global promoted, collected, last_full_pause, _full_due, _started
    if phase == "start":
        _started = now()
        return
    ended = now()
    pause = ended - _started
    generation = info["generation"]
    collections[generation] += 1
    seconds[generation] += pause
    collected += info["collected"]
    if generation == 2:
        last_full_pause = pause
        _full_due = ended + pause / FULL_GC_SHARE
    if _stock is not None:  # (while handed back ``promoted`` stays put)
        if generation == 2:
            promoted = 0
        elif generation == 1:
            promoted += 1


def register_metrics(registry) -> None:
    """The collector's row in a process's budget (``gc.*`` gauges)."""
    registry.gauge("gc.full.collections", lambda: collections[2])
    registry.gauge("gc.full.seconds", lambda: seconds[2])
    registry.gauge("gc.full.last_pause_s", lambda: last_full_pause)
    registry.gauge("gc.young.collections",
                   lambda: collections[0] + collections[1])
    registry.gauge("gc.young.seconds", lambda: seconds[0] + seconds[1])
    registry.gauge("gc.collected", lambda: collected)
