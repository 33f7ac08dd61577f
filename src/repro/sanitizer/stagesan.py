"""Stage-graph consistency sanitizer (paper §5's rules, every edge).

The paper debugs the staged routing tables with a cache stage just
after each peer's outgoing filter bank (§5.1).  This sanitizer is that
cache stage, on that edge and on every other: armed, it is a stage tap
on the instrumentation seam (:mod:`repro.core.taps`), which hands it
every message on *every* ``RouteTableStage`` subclass, present and
future, once — a batch as its singular decomposition, so verdicts are
identical batched or unbatched — and it shadows the route stream on
every inter-stage edge, asserting both §5 consistency rules:

1. no ``add_route`` for a prefix already live on that edge without an
   intervening ``delete_route``, and every ``delete_route`` /
   ``replace_route`` names a previously propagated route (SAN001–003);
2. ``lookup_route`` answers agree with the messages previously sent
   down the same edge (SAN004) — also for a question asked of a stage
   while it is inside its own ``add_route``, which is when downstream
   stages ask.

Shadow state is keyed per *(caller, receiver)* edge, because
multi-parent stages (merge, decision) legitimately hold the same prefix
live from several parents at once.  Dynamic splicing is handled by
migrating edge state when the seam reports a pipeline rewired
(``insert_downstream``/``unplumb``), and a cooperative ``stream_reset``
notification lets code that legitimately wipes state without deletes
(BGP output branches on session loss) drop the shadow instead of
tripping SAN002 later.

The sanitizer rebinds nothing itself and any number may be armed at
once, with the tracer or without, in any order; with no observer left
the seam has put the pristine functions back — there is no residual
``if`` in the message hot path (``tests/test_taps.py`` gates it).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional, Set, Tuple

from repro.core import taps
from repro.sanitizer.report import ViolationLog


def _label(stage: Any) -> str:
    if stage is None:
        return "(external)"
    return getattr(stage, "name", None) or type(stage).__name__


class StageSanitizer(taps.StageTap):
    """Arms §5 consistency checking on every stage edge."""

    def __init__(self, log: Optional[ViolationLog] = None):
        self.log = log if log is not None else ViolationLog()
        #: (caller, receiver) -> {net: route} — the live set per edge
        self._edges: Dict[Tuple[Any, Any], Dict[Any, Any]] = {}
        self._seen: Set[Tuple[str, str, str]] = set()
        self.duplicates_suppressed = 0
        self._armed = False

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        taps.attach(self)

    def disarm(self) -> None:
        if not self._armed:
            return
        taps.detach(self)
        self._edges.clear()
        self._armed = False

    def __enter__(self) -> "StageSanitizer":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    @property
    def violations(self):
        return self.log.violations

    # -- the stage surface (a taps.StageTap) --------------------------------
    def stage_message(self, stage, op, items, caller):
        if op == "lookup":
            # rule 2 is about the answer: observed when the handler returns
            return partial(self._observe_lookup, stage, items[0], caller)
        if op == "replace":
            self._observe_replace(stage, *items, caller)
        elif op in ("add", "delete"):
            observe = (self._observe_add if op == "add"
                       else self._observe_delete)
            for route in items:
                observe(stage, route, caller)
        return None

    def stage_plumbed(self, old_edge, new_edge) -> None:
        state = self._edges.pop(old_edge, None)
        if state and new_edge is not None:
            self._edges.setdefault(new_edge, {}).update(state)

    def stream_reset(self, stages: tuple) -> None:
        affected = set(map(id, stages))
        for key in [k for k in self._edges
                    if id(k[0]) in affected or id(k[1]) in affected]:
            del self._edges[key]

    # -- observations ------------------------------------------------------
    def _record(self, rule: str, origin: str, message: str, **context) -> None:
        # Report each (rule, prefix) once.  Observation happens on entry,
        # before the stage forwards, so the first report names the most
        # upstream edge — a duplicate add at the head of a pipeline would
        # otherwise cascade into one finding per downstream edge and bury
        # the origin.
        key = (rule, str(context.get("net", "")))
        if key in self._seen:
            self.duplicates_suppressed += 1
            return
        self._seen.add(key)
        self.log.record(rule, origin, message, context)

    def _observe_add(self, stage, route, caller) -> None:
        edge = (caller, stage)
        live = self._edges.setdefault(edge, {})
        net = route.net
        origin = f"{_label(caller)}->{_label(stage)}"
        if net in live:
            self._record(
                "SAN001", origin,
                f"add_route for {net} but it is already live on this edge "
                "without an intervening delete_route", net=str(net))
        live[net] = route

    def _observe_delete(self, stage, route, caller) -> None:
        edge = (caller, stage)
        live = self._edges.setdefault(edge, {})
        net = route.net
        if net not in live:
            self._record(
                "SAN002", f"{_label(caller)}->{_label(stage)}",
                f"delete_route for {net} without a previously propagated "
                "add_route on this edge", net=str(net))
            return
        del live[net]

    def _observe_replace(self, stage, old_route, new_route, caller) -> None:
        edge = (caller, stage)
        live = self._edges.setdefault(edge, {})
        old_net, new_net = old_route.net, new_route.net
        if old_net not in live:
            self._record(
                "SAN003", f"{_label(caller)}->{_label(stage)}",
                f"replace_route for {old_net} but that prefix was never "
                "added on this edge", net=str(old_net))
        else:
            del live[old_net]
        live[new_net] = new_route

    def _observe_lookup(self, stage, net, caller, result) -> None:
        if caller is None:
            return
        # For the data stream flowing (stage -> caller), the asking stage
        # is the receiver: lookups travel upstream against the flow.
        live = self._edges.get((stage, caller))
        origin = f"{_label(stage)}->{_label(caller)}"
        if live is not None and net in live:
            expected = live[net]
            if result is None:
                self._record(
                    "SAN004", origin,
                    f"lookup_route({net}) answered None but that prefix is "
                    "live on this edge (rule 2)", net=str(net))
            elif getattr(result, "net", None) != expected.net:
                self._record(
                    "SAN004", origin,
                    f"lookup_route({net}) answered a route for "
                    f"{getattr(result, 'net', None)}, inconsistent with the "
                    f"announced route for {expected.net} (rule 2)",
                    net=str(net))
