"""The ExtInt stage: compose external routes with internal routes.

    "... an ExtInt Stage, which composes a set of external routes with a
    set of internal routes."  (paper §5.2, Figure 7)

Figure 7 draws ExtInt with **two** upstream sides — the external (EGP)
merge chain and the internal (IGP) merge chain — and that structure is
load-bearing: an external route with the best administrative distance may
still be *unusable* because its nexthop does not resolve through any
internal route, in which case the internal alternative must win.  A
single merged chain would swallow that alternative before ExtInt could
see it (a bug our property tests caught in an earlier design).

The stage mirrors each side's winners, gates external candidates on
nexthop resolvability through the internal side, picks the final winner
by administrative preference, and keeps downstream consistent as routes
and resolvability change.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.stages import BatchStage, RouteTableStage
from repro.net import IPNet
from repro.rib.route import preferred
from repro.trie import RouteTrie


class ExtIntStage(BatchStage):
    def __init__(self, name: str, bits: int = 32):
        super().__init__(name)
        self.bits = bits
        #: internal-side winners by prefix (the resolution substrate: the
        #: one table here that answers longest-match questions)
        self.internal = RouteTrie(bits)
        #: external-side winners by prefix (announced only if resolvable)
        self.external: Dict[IPNet, Any] = {}
        #: everything announced downstream (consistency rule 2 source)
        self.announced: Dict[IPNet, Any] = {}
        #: nexthop address -> set of external prefixes using it
        self._nexthop_index: Dict[Any, Set[IPNet]] = {}
        #: batch emission buffer; None outside add_routes/delete_routes
        self._emissions: Optional[List[Tuple[str, Any, Any]]] = None

    # -- helpers ------------------------------------------------------------
    def _resolves(self, route: Any) -> bool:
        return self.internal.best_match(route.nexthop) is not None

    @property
    def unresolved(self) -> Dict[IPNet, Any]:
        """External routes currently held for lack of a resolvable nexthop."""
        return {net: route for net, route in self.external.items()
                if not self._resolves(route)}

    def _index_add(self, route: Any) -> None:
        nets = self._nexthop_index.get(route.nexthop)
        if nets is None:
            self._nexthop_index[route.nexthop] = {route.net}
        else:
            nets.add(route.net)

    def _index_remove(self, route: Any) -> None:
        nets = self._nexthop_index.get(route.nexthop)
        if nets is not None:
            nets.discard(route.net)
            if not nets:
                del self._nexthop_index[route.nexthop]

    # -- emission (direct, or buffered during a batch) ----------------------
    def _emit(self, op: str, route: Any, old_route: Any = None) -> None:
        if self._emissions is not None:
            self._emissions.append((op, route, old_route))
            return
        if self.next_table is None:
            return
        if op == "add":
            self.next_table.add_route(route, caller=self)
        elif op == "delete":
            self.next_table.delete_route(route, caller=self)
        else:
            self.next_table.replace_route(old_route, route, caller=self)

    def _flush_emissions(self, emissions: List[Tuple[str, Any, Any]]) -> None:
        """Replay buffered emissions in order, grouping runs of same-op
        add/delete into one downstream batch each."""
        if self.next_table is None:
            return
        run_op: Optional[str] = None
        run: List[Any] = []

        next_table = self.next_table

        def flush_run() -> None:
            nonlocal run_op, run
            if not run:
                return
            if run_op == "add":
                next_table.add_routes(run, caller=self)
            else:
                next_table.delete_routes(run, caller=self)
            run_op, run = None, []

        for op, route, old_route in emissions:
            if op == "replace":
                flush_run()
                next_table.replace_route(old_route, route, caller=self)
                continue
            if op != run_op:
                flush_run()
                run_op = op
            run.append(route)
        flush_run()

    # -- winner computation -------------------------------------------------
    def _reevaluate(self, net: IPNet) -> None:
        external = self.external.get(net)
        if external is not None and not self._resolves(external):
            external = None  # unusable: the internal alternative may win
        internal = self.internal.exact(net)
        winner = preferred(external, internal)
        current = self.announced.get(net)
        if winner is None:
            if current is not None:
                del self.announced[net]
                self._emit("delete", current)
            return
        if current is None:
            self.announced[net] = winner
            self._emit("add", winner)
        elif current is not winner:
            self.announced[net] = winner
            self._emit("replace", winner, current)

    def _reevaluate_externals_for(self, changed_net: IPNet) -> None:
        """Internal routing under *changed_net* changed: resolvability of
        any external nexthop inside it may have flipped."""
        affected = [
            nexthop for nexthop in self._nexthop_index
            if changed_net.contains_addr(nexthop)
        ]
        index_get = self._nexthop_index.get
        for nexthop in affected:
            for net in list(index_get(nexthop, ())):
                self._reevaluate(net)

    # -- message handling (routes classify themselves via is_external) --------
    def _add_one(self, route: Any) -> None:
        if route.is_external:
            self.external[route.net] = route
            self._index_add(route)
            self._reevaluate(route.net)
        else:
            self.internal.insert(route.net, route)
            self._reevaluate(route.net)
            self._reevaluate_externals_for(route.net)

    def _delete_one(self, route: Any) -> None:
        if route.is_external:
            self.external.pop(route.net, None)
            self._index_remove(route)
            self._reevaluate(route.net)
        else:
            self.internal.discard(route.net)
            self._reevaluate(route.net)
            self._reevaluate_externals_for(route.net)

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        self._batch(self._add_one, routes)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._batch(self._delete_one, routes)

    def _batch(self, per_route: Any, routes: List[Any]) -> None:
        """Run *per_route* over the batch with emissions buffered, then
        flush the buffer as segment-grouped downstream batches."""
        self._emissions = []
        try:
            for route in routes:
                per_route(route)
        finally:
            emissions, self._emissions = self._emissions, None
        self._flush_emissions(emissions)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        if old_route.is_external != new_route.is_external:
            # Cannot happen with split ext/int sides, but stay safe.
            self.delete_routes([old_route], caller=caller)
            self.add_routes([new_route], caller=caller)
            return
        if new_route.is_external:
            self._index_remove(old_route)
            self.external[new_route.net] = new_route
            self._index_add(new_route)
            self._reevaluate(new_route.net)
        else:
            self.internal.insert(new_route.net, new_route)
            self._reevaluate(new_route.net)
            self._reevaluate_externals_for(new_route.net)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.announced.get(net)
