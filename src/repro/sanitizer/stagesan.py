"""Stage-graph consistency sanitizer (paper §5's rules, every edge).

The paper ships one debugging aid for the staged routing tables — a
cache stage spliced into a single pipeline position.  This sanitizer
generalises it: when armed it rebinds the stage-API message methods
(whichever form — singular or batch — the class implements; the derived
form lands on it) on *every* ``RouteTableStage`` subclass (present and
future, via the hook registry in :mod:`repro.core.stages`) and
shadows the route stream on every inter-stage edge, asserting both §5
consistency rules:

1. no ``add_route`` for a prefix already live on that edge without an
   intervening ``delete_route``, and every ``delete_route`` /
   ``replace_route`` names a previously propagated route (SAN001–003);
2. ``lookup_route`` answers agree with the messages previously sent
   down the same edge (SAN004).

Shadow state is keyed per *(caller, receiver)* edge, because
multi-parent stages (merge, decision) legitimately hold the same prefix
live from several parents at once.  Dynamic splicing is handled by
migrating edge state when ``insert_downstream``/``unplumb`` rewires a
pipeline, and a cooperative ``stream_reset`` notification lets code
that legitimately wipes state without deletes (BGP output branches on
session loss) drop the shadow instead of tripping SAN002 later.

When disarmed the original functions are restored — there is no
residual ``if`` in the message hot path (see the benchmark gate).
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import stages as _stages
from repro.sanitizer.report import ViolationLog

#: the paper's stage message API plus the plumbing ops we must track
_MESSAGE_METHODS = ("add_route", "delete_route", "replace_route",
                    "lookup_route", "add_routes", "delete_routes")
_PLUMBING_METHODS = ("insert_downstream", "unplumb")

_armed_sanitizer: Optional["StageSanitizer"] = None


def _label(stage: Any) -> str:
    if stage is None:
        return "(external)"
    return getattr(stage, "name", None) or type(stage).__name__


class StageSanitizer:
    """Arms §5 consistency checking on every stage edge."""

    def __init__(self, log: Optional[ViolationLog] = None, *,
                 strict_lookup: bool = False):
        self.log = log if log is not None else ViolationLog()
        self.strict_lookup = strict_lookup
        #: (caller, receiver) -> {net: route} — the live set per edge
        self._edges: Dict[Tuple[Any, Any], Dict[Any, Any]] = {}
        self._wrapped: List[Tuple[type, str, Any]] = []
        self._in_flight: Set[int] = set()
        self._seen: Set[Tuple[str, str, str]] = set()
        self.duplicates_suppressed = 0
        self._armed = False

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> None:
        global _armed_sanitizer
        if self._armed:
            return
        if _armed_sanitizer is not None:
            raise RuntimeError("another StageSanitizer is already armed")
        _armed_sanitizer = self
        self._armed = True
        _stages.install_stage_instrumentation(self._instrument_class)
        _stages.add_stream_reset_listener(self._on_stream_reset)

    def disarm(self) -> None:
        global _armed_sanitizer
        if not self._armed:
            return
        _stages.uninstall_stage_instrumentation(self._instrument_class)
        _stages.remove_stream_reset_listener(self._on_stream_reset)
        for cls, name, original in reversed(self._wrapped):
            setattr(cls, name, original)
        self._wrapped.clear()
        self._edges.clear()
        self._in_flight.clear()
        self._armed = False
        _armed_sanitizer = None

    def __enter__(self) -> "StageSanitizer":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    @property
    def violations(self):
        return self.log.violations

    # -- class instrumentation --------------------------------------------
    def _instrument_class(self, cls: type) -> None:
        for name in _MESSAGE_METHODS + _PLUMBING_METHODS:
            fn = cls.__dict__.get(name)
            if fn is None or hasattr(fn, "_repro_sanitizer_original") \
                    or (cls, name) in _stages.DERIVED_FORMS:
                continue
            wrapper = self._make_wrapper(name, fn)
            wrapper._repro_sanitizer_original = fn  # type: ignore[attr-defined]
            setattr(cls, name, wrapper)
            self._wrapped.append((cls, name, fn))

    def _make_wrapper(self, name: str, original):
        sanitizer = self

        if name in ("add_route", "delete_route"):
            observe = (sanitizer._observe_add if name == "add_route"
                       else sanitizer._observe_delete)

            @functools.wraps(original)
            def wrapper(stage, route, *, caller=None):
                marker = id(stage)
                if marker in sanitizer._in_flight:
                    return original(stage, route, caller=caller)
                sanitizer._in_flight.add(marker)
                try:
                    observe(stage, route, caller)
                    return original(stage, route, caller=caller)
                finally:
                    sanitizer._in_flight.discard(marker)

        elif name == "replace_route":
            @functools.wraps(original)
            def wrapper(stage, old_route, new_route, *, caller=None):
                marker = id(stage)
                if marker in sanitizer._in_flight:
                    return original(stage, old_route, new_route,
                                    caller=caller)
                sanitizer._in_flight.add(marker)
                try:
                    sanitizer._observe_replace(stage, old_route, new_route,
                                               caller)
                    return original(stage, old_route, new_route,
                                    caller=caller)
                finally:
                    sanitizer._in_flight.discard(marker)

        elif name == "lookup_route":
            @functools.wraps(original)
            def wrapper(stage, net, *, caller=None):
                marker = id(stage)
                if marker in sanitizer._in_flight:
                    return original(stage, net, caller=caller)
                sanitizer._in_flight.add(marker)
                try:
                    result = original(stage, net, caller=caller)
                finally:
                    sanitizer._in_flight.discard(marker)
                sanitizer._observe_lookup(stage, net, caller, result)
                return result

        elif name in ("add_routes", "delete_routes"):
            observe = (sanitizer._observe_add if name == "add_routes"
                       else sanitizer._observe_delete)

            @functools.wraps(original)
            def wrapper(stage, routes, *, caller=None):
                marker = id(stage)
                if marker in sanitizer._in_flight:
                    return original(stage, routes, caller=caller)
                # A batch is its singular decomposition (the batch
                # contract): observe each constituent in order, so SAN
                # verdicts are identical batched or unbatched.
                routes = list(routes)
                sanitizer._in_flight.add(marker)
                try:
                    for route in routes:
                        observe(stage, route, caller)
                    return original(stage, routes, caller=caller)
                finally:
                    sanitizer._in_flight.discard(marker)

        elif name == "insert_downstream":
            @functools.wraps(original)
            def wrapper(stage, new_stage):
                old_down = stage.next_table
                result = original(stage, new_stage)
                if old_down is not None:
                    sanitizer._migrate_edge((stage, old_down),
                                            (new_stage, old_down))
                return result

        else:  # unplumb
            @functools.wraps(original)
            def wrapper(stage):
                upstream, downstream = stage.parent, stage.next_table
                result = original(stage)
                if upstream is not None:
                    sanitizer._drop_edge((upstream, stage))
                if downstream is not None:
                    if upstream is not None:
                        sanitizer._migrate_edge((stage, downstream),
                                                (upstream, downstream))
                    else:
                        sanitizer._drop_edge((stage, downstream))
                return result

        return wrapper

    # -- edge state --------------------------------------------------------
    def _migrate_edge(self, src: Tuple[Any, Any], dst: Tuple[Any, Any]) -> None:
        state = self._edges.pop(src, None)
        if state:
            self._edges.setdefault(dst, {}).update(state)

    def _drop_edge(self, key: Tuple[Any, Any]) -> None:
        self._edges.pop(key, None)

    def _on_stream_reset(self, stages: tuple) -> None:
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
        elif self.strict_lookup and result is not None:
            self._record(
                "SAN004", origin,
                f"lookup_route({net}) found a route never announced on "
                "this edge (rule 2, strict)", net=str(net))
