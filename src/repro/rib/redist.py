"""Route redistribution stages (paper §3, §5.2).

    "A key instrument of routing policy is the process of route
    redistribution, where routes from one routing protocol that match
    certain policy filters are redistributed into another routing protocol
    for advertisement to other routers.  The RIB, as the one part of the
    system that sees everyone's routes, is central to this process."

A :class:`RedistStage` is a dynamic stage inserted when a watcher
registers.  Each target supplies a predicate (typically "protocol ==
X" or a compiled policy filter); matching winners are announced to the
target via a callback.  The stage keeps no table of winners and dumps
nothing: the winners before a target came, or before its consumer was
reborn, reach it as the RIB's ``RouteStream.dump`` over the register
stage's trie, whose *keep* is :meth:`RedistStage.dump_keep`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.stages import RouteTableStage
from repro.net import IPNet

#: redistribution event callback: (event, route) with event "add"|"delete"
RedistCallback = Callable[[str, Any], None]


class _RedistTarget:
    __slots__ = ("predicate", "callback", "announced")

    def __init__(self, predicate: Callable[[Any], bool],
                 callback: RedistCallback):
        self.predicate = predicate
        self.callback = callback
        #: which prefixes this target currently knows (for clean deletes
        #: when a replace changes whether the predicate matches)
        self.announced: Dict[IPNet, Any] = {}

    def keep(self, route: Any) -> bool:
        """A winner goes out if it matches and is not known already."""
        if self.predicate(route) and \
                self.announced.get(route.net) is not route:
            self.announced[route.net] = route
            return True
        return False


class RedistStage(RouteTableStage):
    def __init__(self, name: str):
        super().__init__(name)
        self._targets: Dict[str, _RedistTarget] = {}

    # -- target management -------------------------------------------------
    def add_target(self, name: str, predicate: Callable[[Any], bool],
                   callback: RedistCallback) -> None:
        """Register a redistribution target; live changes reach it now."""
        self._targets[name] = _RedistTarget(predicate, callback)

    def remove_target(self, name: str) -> None:
        self._targets.pop(name, None)

    def dump_keep(self, name: str) -> Callable[[Any], bool]:
        """*name*'s dump starts: its consumer knows nothing yet (it is new,
        or reborn empty), so the announced table restarts empty and the
        returned *keep* announces each matching winner the dump reaches."""
        target = self._targets[name]
        target.announced = {}
        return target.keep

    def _offer(self, target: _RedistTarget, route: Any) -> None:
        if target.keep(route):
            target.callback("add", route)

    def _rescind(self, target: _RedistTarget, route: Any) -> None:
        known = target.announced.pop(route.net, None)
        if known is not None:
            target.callback("delete", known)

    # -- message handling ------------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # Per-route target bookkeeping, one downstream dispatch.
        targets = self._targets.values()
        for route in routes:
            for target in targets:
                self._offer(target, route)
        if self.next_table is not None:
            self.next_table.add_routes(routes, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        targets = self._targets.values()
        for route in routes:
            for target in targets:
                self._rescind(target, route)
        if self.next_table is not None:
            self.next_table.delete_routes(routes, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        for target in self._targets.values():
            self._rescind(target, old_route)
            self._offer(target, new_route)
        super().replace_route(old_route, new_route, caller=caller)
