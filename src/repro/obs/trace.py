"""Causal per-route tracing across stages, XRLs and the FIB.

A traced prefix owns a :class:`TraceContext` (trace id + hop counter).
While the :class:`Tracer` is armed, every hop the route takes is recorded
as a :class:`Span`:

* ``origin`` — an :class:`~repro.core.stages.OriginStage` injected or
  withdrew the route (``originate``/``withdraw``/batch variants);
* ``stage`` — the route flowed through a stage message method
  (``add_route``/``delete_route``/``replace_route``/batch variants);
* ``xrl-send`` / ``xrl-recv`` — the route crossed a process boundary.
  The sending side appends a reserved ``txt`` atom (:data:`TRACE_ARG`,
  value ``trace_id:parent_span_id[;...]``) to the XRL's arguments; the
  receiving side strips it before IDL checking and parents its spans to
  the carried ids, which is what stitches one causal tree across
  processes — the frame *is* the causal edge, so retries and coalesced
  batches need no special handling (the atom rides the re-encoded
  request either way);
* ``fib`` — the route reached the simulated kernel table
  (:class:`repro.fea.fib.Fib`), the end of the paper's latency runs.

Parenting uses a per-context stack: nested synchronous hops (a stage
forwarding downstream inside its own ``add_route``) become children,
while hops separated by a queue or a wire chain through the context's
``last_span_id``.  Timestamps come from an injected clock callable
(tests pass the event-loop clock — determinism rule DET001 keeps wall
clocks out of shared code); the default is a logical counter, so span
order is always meaningful even unclocked.

The tracer is a plain observer of the instrumentation seam
(:mod:`repro.core.taps`): armed, it is a stage tap and five ``around``
functions — on :class:`~repro.xrl.router.XrlRouter` ``send`` /
``dispatch_request``, :class:`~repro.eventloop.eventloop.EventLoop`
``call_soon`` and, only if the FEA is loaded, :class:`repro.fea.fib.Fib`
``insert`` / ``remove``.  It rebinds nothing itself; the seam puts the
pristine functions back when the last observer leaves (the zero-overhead
contract ``tests/test_taps.py`` gates), in whatever order they leave.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import taps
from repro.eventloop.eventloop import EventLoop
from repro.net import IPNet
from repro.obs.metrics import MetricsRegistry
from repro.xrl import XrlArgs, XrlError, XrlRouter

#: the reserved XRL argument carrying trace contexts across frames.
#: The dispatch sanitizer treats it like ``bench/1.0`` traffic: stripped
#: before SAN103 argument checking, never part of any IDL signature.
TRACE_ARG = "trace_ctx"

#: two armed tracers would both stamp ``trace_ctx`` on a frame
_armed_tracer: Optional["Tracer"] = None


class Span:
    """One recorded hop of one traced route."""

    __slots__ = ("trace_id", "span_id", "parent_id", "kind", "site", "op",
                 "ts")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 kind: str, site: str, op: str, ts: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.site = site
        self.op = op
        self.ts = ts

    def to_text(self) -> str:
        parent = "-" if self.parent_id is None else str(self.parent_id)
        return (f"{self.span_id} {parent} {_fmt_ts(self.ts)} "
                f"{self.kind} {self.site} {self.op}")

    def __repr__(self) -> str:
        return f"<Span {self.to_text()}>"


def _fmt_ts(ts: float) -> str:
    if ts == int(ts):
        return str(int(ts))
    return format(ts, ".9g")


class TraceContext:
    """One traced prefix: its id, hop counter and recorded spans."""

    __slots__ = ("trace_id", "net", "hops", "spans", "stack", "last_span_id")

    def __init__(self, trace_id: int, net: IPNet):
        self.trace_id = trace_id
        self.net = net
        #: hop counter — allocates span ids within this trace
        self.hops = 0
        self.spans: List[Span] = []
        #: ids of spans currently open (nested synchronous hops)
        self.stack: List[int] = []
        #: the most recent span, parent for queue/wire-separated hops
        self.last_span_id: Optional[int] = None

    def next_parent(self) -> Optional[int]:
        return self.stack[-1] if self.stack else self.last_span_id


def _net_key(net: IPNet) -> Tuple:
    return (net.bits,) + tuple(net.key())


class Tracer(taps.StageTap):
    """Records causal spans for registered prefixes while armed.

    *clock* is a zero-argument callable returning the current time; pass
    the event-loop clock's ``now`` for simulated-time traces.  *metrics*
    receives the tracer's own instruments (XRL sends observed, event-loop
    dispatch latency); by default a private ``obs`` registry is used.

    Also the ``trace/1.0`` implementation, so a harness can bind the
    tracer to a component and let an external process pull span trees.
    """

    def __init__(self, clock=None, metrics: Optional[MetricsRegistry] = None):
        self._logical = 0
        self.clock = clock if clock is not None else self._tick
        self.metrics = metrics if metrics is not None else MetricsRegistry("obs")
        self._traces: Dict[int, TraceContext] = {}
        self._by_key: Dict[Tuple, TraceContext] = {}
        self._next_trace_id = 1
        self._armed = False
        self._sends = self.metrics.counter("xrl.sends")
        self._traced_frames = self.metrics.counter("xrl.traced_frames")
        self._dispatch_latency = self.metrics.histogram(
            "eventloop.dispatch_latency")

    def _tick(self) -> float:
        self._logical += 1
        return float(self._logical)

    # -- trace registration ------------------------------------------------
    def trace(self, net: IPNet) -> TraceContext:
        """Start tracing *net*; returns its (possibly existing) context."""
        key = _net_key(net)
        ctx = self._by_key.get(key)
        if ctx is None:
            ctx = TraceContext(self._next_trace_id, net)
            self._next_trace_id += 1
            self._traces[ctx.trace_id] = ctx
            self._by_key[key] = ctx
        return ctx

    def context_for(self, net: IPNet) -> Optional[TraceContext]:
        return self._by_key.get(_net_key(net))

    def by_id(self, trace_id: int) -> Optional[TraceContext]:
        return self._traces.get(trace_id)

    def contexts(self) -> List[TraceContext]:
        """Every trace context, ordered by trace id (stable)."""
        return [self._traces[tid] for tid in sorted(self._traces)]

    # -- span recording ----------------------------------------------------
    def _record(self, ctx: TraceContext, kind: str, site: str, op: str,
                parent: Optional[int]) -> Span:
        ctx.hops += 1
        span = Span(ctx.trace_id, ctx.hops, parent, kind, site, op,
                    self.clock())
        ctx.spans.append(span)
        ctx.last_span_id = span.span_id
        return span

    def _enter(self, ctx: TraceContext, kind: str, site: str, op: str) -> None:
        span = self._record(ctx, kind, site, op, ctx.next_parent())
        ctx.stack.append(span.span_id)

    def _exit(self, ctx: TraceContext) -> None:
        if ctx.stack:
            ctx.stack.pop()

    # -- reconstruction ----------------------------------------------------
    def span_tree(self, trace_id: int) -> List[Tuple[int, Span]]:
        """The trace as ``(depth, span)`` pairs in recording order."""
        ctx = self._traces.get(trace_id)
        if ctx is None:
            return []
        depth: Dict[int, int] = {}
        out: List[Tuple[int, Span]] = []
        for span in ctx.spans:
            d = 0 if span.parent_id is None else depth.get(span.parent_id, 0) + 1
            depth[span.span_id] = d
            out.append((d, span))
        return out

    def hop_sequence(self, trace_id: int) -> List[str]:
        """Ordered route-visible hop sites (origin/stage/fib spans only),
        consecutive duplicates collapsed.

        This is the batched-vs-unbatched invariant: a route delivered in
        a batch takes exactly the same hop sequence as the same route
        delivered singularly (the batch contract), while xrl-kind spans —
        whose count legitimately differs under coalescing — are excluded.
        """
        ctx = self._traces.get(trace_id)
        if ctx is None:
            return []
        hops: List[str] = []
        for span in ctx.spans:
            if span.kind not in ("origin", "stage", "fib"):
                continue
            if hops and hops[-1] == span.site:
                continue
            hops.append(span.site)
        return hops

    # -- trace/1.0 handlers ------------------------------------------------
    def xrl_list_traces(self) -> Dict[str, str]:
        ids = sorted(self._traces)
        return {"trace_ids": ",".join(str(i) for i in ids)}

    def xrl_get_spans(self, trace_id: int) -> Dict[str, str]:
        ctx = self._traces.get(trace_id)
        if ctx is None:
            from repro.xrl.error import XrlErrorCode
            raise XrlError(XrlErrorCode.COMMAND_FAILED,
                           f"no trace {trace_id}")
        return {"spans": "\n".join(s.to_text() for s in ctx.spans)}

    # -- lifecycle ---------------------------------------------------------
    def _points(self) -> List[Tuple[type, str, Callable]]:
        points = [(XrlRouter, "send", self._around_send),
                  (XrlRouter, "dispatch_request", self._around_dispatch),
                  (EventLoop, "call_soon", self._around_call_soon)]
        # The FEA is a process package, so shared code must not import it
        # (isolation rule ISO002).  If it is loaded in this interpreter we
        # tap its Fib class; if not, there is no FIB to trace.
        fib_module = sys.modules.get("repro.fea.fib")
        if fib_module is not None:
            points += [(fib_module.Fib, name, self._around_fib)
                       for name in ("insert", "remove")]
        return points

    def arm(self) -> None:
        global _armed_tracer
        if self._armed:
            return
        if _armed_tracer is not None:
            raise RuntimeError("another Tracer is already armed")
        _armed_tracer = self
        self._armed = True
        taps.attach(self)
        for point in self._points():
            taps.wrap(*point)

    def disarm(self) -> None:
        global _armed_tracer
        if not self._armed:
            return
        taps.detach(self)
        for point in self._points():
            taps.unwrap(*point)
        for ctx in self._traces.values():
            ctx.stack.clear()
        self._armed = False
        _armed_tracer = None

    def __enter__(self) -> "Tracer":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    # -- the stage surface (a taps.StageTap) --------------------------------
    def stage_message(self, stage, op, items, caller):
        if op == "lookup":
            return None  # a query, not a hop
        ctxs = self._contexts_for_nets(
            i if isinstance(i, IPNet) else i.net for i in items)
        if not ctxs:
            return None
        kind = "origin" if op in ("originate", "withdraw") else "stage"
        site = getattr(stage, "name", "") or type(stage).__name__
        for ctx in ctxs:
            self._enter(ctx, kind, site, op)

        def leave(result):
            for ctx in reversed(ctxs):
                self._exit(ctx)

        return leave

    def _contexts_for_nets(self, nets) -> List[TraceContext]:
        ctxs: List[TraceContext] = []
        seen: set = set()
        for net in nets:
            key = _net_key(net)
            if key in seen:
                continue
            seen.add(key)
            ctx = self._by_key.get(key)
            if ctx is not None:
                ctxs.append(ctx)
        return ctxs

    # -- XRL send / dispatch -------------------------------------------------
    def _contexts_in_args(self, args: XrlArgs) -> List[TraceContext]:
        ctxs: List[TraceContext] = []
        for atom in args:
            value = atom.value
            if isinstance(value, IPNet):
                ctx = self._by_key.get(_net_key(value))
                if ctx is not None and ctx not in ctxs:
                    ctxs.append(ctx)
            elif isinstance(value, list):
                for inner in value:
                    inner_value = getattr(inner, "value", inner)
                    if isinstance(inner_value, IPNet):
                        ctx = self._by_key.get(_net_key(inner_value))
                        if ctx is not None and ctx not in ctxs:
                            ctxs.append(ctx)
        return ctxs

    def _around_send(self, call, router, xrl, *args, **kwargs):
        self._sends.inc()
        ctxs = self._contexts_in_args(xrl.args)
        if ctxs and not xrl.args.has(TRACE_ARG):
            entries = []
            for ctx in ctxs:
                span = self._record(ctx, "xrl-send", router.class_name,
                                    xrl.method, ctx.next_parent())
                entries.append(f"{ctx.trace_id}:{span.span_id}")
            augmented = XrlArgs(list(xrl.args))
            augmented.add_txt(TRACE_ARG, ";".join(entries))
            xrl = xrl.with_args(augmented)
            self._traced_frames.inc()
        return call(router, xrl, *args, **kwargs)

    def _around_dispatch(self, call, router, seq, resolved_method, args,
                         *rest, **kwargs):
        # The post-decode dispatch hook, not dispatch_frame_async: the
        # frame may have travelled in a stateful per-connection codec, so
        # the span is recorded (and the trace atom stripped) on the
        # decoded arguments instead of re-encoding the frame.
        if args.has(TRACE_ARG):
            entries = args.get_txt(TRACE_ARG)
            args = XrlArgs([a for a in args if a.name != TRACE_ARG])
            op = resolved_method.rsplit("/", 1)[-1]
            for entry in entries.split(";"):
                trace_part, __, parent_part = entry.partition(":")
                try:
                    trace_id = int(trace_part)
                    parent_id = int(parent_part)
                except ValueError:
                    continue
                ctx = self._traces.get(trace_id)
                if ctx is None:
                    continue
                self._record(ctx, "xrl-recv", router.class_name, op,
                             parent_id)
        return call(router, seq, resolved_method, args, *rest, **kwargs)

    # -- event-loop dispatch latency -----------------------------------------
    def _around_call_soon(self, call, loop, cb, *args):
        enqueued = loop.clock.now()

        def timed(*cb_args):
            self._dispatch_latency.observe(loop.clock.now() - enqueued)
            return cb(*cb_args)

        return call(loop, timed, *args)

    # -- the FIB: insert(entry) / remove(net) --------------------------------
    def _around_fib(self, call, fib, item):
        # *call* carries the name of the method it continues (the op)
        net = getattr(item, "net", item)
        ctx = self._by_key.get(_net_key(net))
        if ctx is not None:
            self._record(ctx, "fib", "fib4" if net.bits == 32 else "fib6",
                         call.__name__, ctx.next_parent())
        return call(fib, item)
