"""Spans around each layer's public calls, recorded from outside.

Used only in a ``--trace 1`` run.  :meth:`Tracer.arm` rebinds, and
:meth:`Tracer.disarm` restores, the layer boundaries of the unmodified
router; spans are recorded only while :attr:`Tracer.active` is set, so the
same run can time a reference round through the installed-but-idle
wrappers (a function call each) and report the recording overhead.  Arming
precedes set-up because a socket's read callback is wrapped when it is
registered.  The boundaries:

* the synchronous ones by name — ``PeerHandler.update_received``,
  ``XrlRouter.send`` / ``dispatch_frame_async`` / ``dispatch_request``, the
  frame codecs, ``RibProcess.xrl_*_route4``, ``FeaProcess.xrl_*_entr*4``,
  ``TrieFibBackend.apply``, ``RouteTrie.insert`` / ``remove``,
  ``EventLoop.run_once``, and a peer session's ``on_data`` callback;
* the deferred ones by owner — every callback handed to
  ``EventLoop.call_soon`` / ``call_later`` / ``add_reader`` / ``add_writer``
  and every ``XrlRouter.send`` completion runs in a span of the layer whose
  module defines it (``repro.bgp.fanout`` -> ``bgp``), which is how work a
  layer queues for a later loop turn is still charged to that layer.

A span is ``(name, start, end, parent, trace_id)``; ``trace_id`` is the
index of the UPDATE most recently delivered to the router, exact when one
event is outstanding (``churn_inproc``) and approximate under a pipelined
feed.  Everything runs on one thread, so a stack gives exact nesting: a
span's self time is its duration minus its children's, and the self times
of all layers plus the loop's residual add up to the traced wall time.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp.peer import PeerHandler
from repro.eventloop.eventloop import EventLoop
from repro.fea import FeaProcess
from repro.fea.backends import TrieFibBackend
from repro.rib import RibProcess
from repro.trie import RouteTrie
from repro.xrl import XrlRouter
from repro.xrl.codec import BinaryCodec, TextualCodec

#: layers reported by name; anything else is folded into ``other``
LAYERS = ("bgp", "xrl", "rib", "fea", "trie", "core", "eventloop", "bench")

_CODEC_METHODS = ("encode_request", "decode_request", "encode_response",
                  "decode_response")

#: (layer, class, method) — the synchronous boundaries
BOUNDARIES: List[Tuple[str, type, str]] = (
    [("eventloop", EventLoop, "run_once"),
     ("bgp", PeerHandler, "update_received"),
     ("xrl", XrlRouter, "dispatch_frame_async"),
     ("xrl", XrlRouter, "dispatch_request")]
    + [("xrl", codec, name) for codec in (TextualCodec, BinaryCodec)
       for name in _CODEC_METHODS]
    + [("rib", RibProcess, name) for name in
       ("xrl_add_route4", "xrl_replace_route4", "xrl_delete_route4",
        "xrl_lookup_route_by_dest4")]
    + [("fea", FeaProcess, name) for name in
       ("xrl_add_entry4", "xrl_delete_entry4", "xrl_add_entries4",
        "xrl_delete_entries4", "xrl_lookup_entry4")]
    + [("fea", TrieFibBackend, "apply"),
       ("trie", RouteTrie, "insert"),
       ("trie", RouteTrie, "remove")]
)

#: spans kept for trace.json; past it only the self-time totals grow
SPAN_LIMIT = 250_000

#: EventLoop methods taking a callback, and the callback's position
_SCHEDULERS = (("call_soon", 1), ("call_later", 2), ("call_at", 2),
               ("call_periodic", 2), ("add_reader", 2), ("add_writer", 2))


def layer_of(callback: Callable) -> str:
    """The layer whose module defines *callback*."""
    function = getattr(callback, "__func__", callback)
    function = getattr(function, "func", function)  # functools.partial
    parts = (getattr(function, "__module__", None) or "").split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "bench" if parts[0] == "bench" else "other"


class Tracer:
    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, trace id)
        self.spans: List[Optional[tuple]] = []
        #: layer -> seconds of self time
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.trace_id = -1
        #: spans seen, including those past :data:`SPAN_LIMIT`
        self.span_count = 0
        #: record spans (True) or pass calls straight through (False)
        self.active = False
        #: wall seconds spent recording, the denominator of coverage
        self.recorded_seconds = 0.0
        self._started = 0.0
        self._stack: List[list] = []  # [span index, seconds in children]
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------
    def span(self, layer: str, name: str, function: Callable) -> Callable:
        """*function*, run inside a span charged to *layer*."""
        spans = self.spans
        stack = self._stack
        self_seconds = self.self_seconds

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            self.span_count += 1
            index = len(spans) if len(spans) < SPAN_LIMIT else -1
            if index >= 0:
                spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_seconds[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent, self.trace_id)

        return traced

    def _callback(self, callback: Callable) -> Callable:
        layer = layer_of(callback)
        name = getattr(callback, "__qualname__", type(callback).__name__)
        return self.span(layer, f"{layer}.{name}", callback)

    def start(self) -> None:
        """Begin recording; call from outside any loop callback."""
        self.active = True
        self._started = perf_counter()

    def stop(self) -> None:
        if self.active:
            self.active = False
            self.recorded_seconds += perf_counter() - self._started

    # -- arming --------------------------------------------------------------
    def _rebind(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def arm(self) -> None:
        for layer, cls, attr in BOUNDARIES:
            original = vars(cls)[attr]
            static = isinstance(original, staticmethod)
            function = original.__func__ if static else original
            traced = self.span(layer, f"{layer}.{cls.__name__}.{attr}",
                               function)
            self._rebind(cls, attr, staticmethod(traced) if static else traced)
        for attr, position in _SCHEDULERS:
            # Socket callbacks are registered once and live long, so they
            # are wrapped even while idle; loop callbacks only when active.
            self._rebind(EventLoop, attr, self._scheduler(
                vars(EventLoop)[attr], position,
                always=attr.startswith("add_")))
        self._rebind(XrlRouter, "send", self._send(vars(XrlRouter)["send"]))

    def _scheduler(self, original: Callable, position: int,
                   always: bool) -> Callable:
        wrap = self._callback

        def schedule(*args, **kwargs):
            if always or self.active:
                args = list(args)
                args[position] = wrap(args[position])
            return original(*args, **kwargs)

        return schedule

    def _send(self, original: Callable) -> Callable:
        wrap = self._callback

        def send(router, xrl, callback=None, **kwargs):
            if callback is not None and self.active:
                callback = wrap(callback)
            return original(router, xrl, callback, **kwargs)

        return self.span("xrl", "xrl.XrlRouter.send", send)

    def trace_session(self, session) -> None:
        """Span the router-side ``on_data`` of *session*; each delivery
        starts the next trace id."""
        deliver = self.span("bgp", "bgp.session.on_data", session.on_data)

        def on_data(data: bytes) -> None:
            if self.active:
                self.trace_id += 1
            deliver(data)

        self._rebind(session, "on_data", on_data)

    def disarm(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reporting -----------------------------------------------------------
    def write(self, path: str, header: dict) -> None:
        """All spans, times in microseconds from the first span's start."""
        unfinished = ("unfinished", 0.0, 0.0, -1, -1)
        spans = [span or unfinished for span in self.spans]
        origin = min((span[1] for span in spans if span[1]), default=0.0)
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent, trace_id in spans:
            name_id = names.setdefault(name, len(names))
            rows.append([name_id, round((start - origin) * 1e6, 2),
                         round((end - origin) * 1e6, 2), parent, trace_id])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**header, "span_count": self.span_count,
                       "columns": ["name", "start_us", "end_us", "parent",
                                   "trace_id"],
                       "names": list(names), "spans": rows}, handle,
                      separators=(",", ":"))
