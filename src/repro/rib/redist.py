"""Route redistribution stages (paper §3, §5.2).

    "A key instrument of routing policy is the process of route
    redistribution, where routes from one routing protocol that match
    certain policy filters are redistributed into another routing protocol
    for advertisement to other routers.  The RIB, as the one part of the
    system that sees everyone's routes, is central to this process."

A :class:`RedistStage` is a dynamic stage inserted when a watcher
registers.  Each target supplies a predicate (typically "protocol ==
X" or a compiled policy filter); matching winners are announced to the
target via a callback, including an initial dump of pre-existing routes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.stages import BatchStage, RouteTableStage
from repro.net import IPNet

#: redistribution event callback: (event, route) with event "add"|"delete"
RedistCallback = Callable[[str, Any], None]


class _RedistTarget:
    __slots__ = ("name", "predicate", "callback", "announced")

    def __init__(self, name: str, predicate: Callable[[Any], bool],
                 callback: RedistCallback):
        self.name = name
        self.predicate = predicate
        self.callback = callback
        #: which prefixes this target currently knows (for clean deletes
        #: when a replace changes whether the predicate matches)
        self.announced: Dict[IPNet, Any] = {}


class RedistStage(BatchStage):
    def __init__(self, name: str):
        super().__init__(name)
        #: final winners by prefix; only ever asked for the route at one
        #: prefix or dumped whole, so a dict (dumps run in insertion order)
        self.winners: Dict[IPNet, Any] = {}
        self._targets: Dict[str, _RedistTarget] = {}

    # -- target management -------------------------------------------------
    def add_target(self, name: str, predicate: Callable[[Any], bool],
                   callback: RedistCallback) -> None:
        """Register a redistribution target; dumps existing winners."""
        target = _RedistTarget(name, predicate, callback)
        self._targets[name] = target
        # Snapshot: the callback may feed a route back into this RIB.
        for route in list(self.winners.values()):
            self._offer(target, route)

    def remove_target(self, name: str) -> None:
        self._targets.pop(name, None)

    def resync_target(self, name: str) -> None:
        """Re-dump every winner to *name* (its consumer was restarted).

        The reborn consumer has empty state, so the announced table is
        rebuilt from scratch rather than diffed against it.
        """
        target = self._targets.get(name)
        if target is None:
            return
        target.announced = {}
        for route in list(self.winners.values()):
            self._offer(target, route)

    def has_target(self, name: str) -> bool:
        return name in self._targets

    def _offer(self, target: _RedistTarget, route: Any) -> None:
        if target.predicate(route):
            target.announced[route.net] = route
            target.callback("add", route)

    def _rescind(self, target: _RedistTarget, route: Any) -> None:
        known = target.announced.pop(route.net, None)
        if known is not None:
            target.callback("delete", known)

    # -- message handling ------------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # Per-route winner/target bookkeeping, one downstream dispatch.
        targets = self._targets.values()
        winners = self.winners
        for route in routes:
            winners[route.net] = route
            for target in targets:
                self._offer(target, route)
        if self.next_table is not None:
            self.next_table.add_routes(routes, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        targets = self._targets.values()
        winners = self.winners
        for route in routes:
            winners.pop(route.net, None)
            for target in targets:
                self._rescind(target, route)
        if self.next_table is not None:
            self.next_table.delete_routes(routes, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self.winners[new_route.net] = new_route
        for target in self._targets.values():
            matched_before = old_route.net in target.announced
            matches_now = target.predicate(new_route)
            if matched_before and matches_now:
                target.announced[new_route.net] = new_route
                target.callback("delete", old_route)
                target.callback("add", new_route)
            elif matched_before:
                self._rescind(target, old_route)
            elif matches_now:
                self._offer(target, new_route)
        super().replace_route(old_route, new_route, caller=caller)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.winners.get(net)
