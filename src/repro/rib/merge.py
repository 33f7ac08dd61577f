"""Pairwise merge stages (paper §5.2, Figure 7).

    "the decision process in the RIB is distributed as pairwise decisions
    between Merge Stages, which combine route tables with conflicts based
    on a preference order ... This single metric allows more distributed
    decision-making, which we prefer, since it better supports future
    extensions."

A merge stage is *stateless*: on every message it consults the other
branch via ``lookup_route`` and decides what, if anything, changes
downstream — the same technique BGP's decision process uses.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.stages import RouteTableStage
from repro.net import IPNet
from repro.rib.route import preferred


class MergeStage(RouteTableStage):
    """Combines two upstream branches by administrative preference."""

    def __init__(self, name: str):
        super().__init__(name)
        self.parent_a: Optional[RouteTableStage] = None
        self.parent_b: Optional[RouteTableStage] = None

    def set_parents(self, parent_a: RouteTableStage,
                    parent_b: RouteTableStage) -> None:
        self.parent_a = parent_a
        self.parent_b = parent_b
        parent_a.next_table = self
        parent_b.next_table = self

    def _other_branch(self, caller: RouteTableStage) -> RouteTableStage:
        if caller is self.parent_a:
            return self.parent_b
        if caller is self.parent_b:
            return self.parent_a
        raise AssertionError(
            f"{self.name}: message from unknown branch {caller!r}"
        )

    # -- message handling ----------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # Segment-flush: consecutive plain adds coalesce into one
        # downstream batch; a route that displaces the other branch's
        # incumbent flushes the segment and emits its replace singly, so
        # per-prefix ordering matches the singular decomposition.
        next_table = self.next_table
        if next_table is None:
            return
        other_branch = self._other_branch(caller)
        lookup = other_branch.lookup_route
        plain: List[Any] = []
        for route in routes:
            other = lookup(route.net, caller=self)
            if other is None:
                plain.append(route)
            elif preferred(route, other) is route:
                if plain:
                    next_table.add_routes(plain, caller=self)
                    plain = []
                next_table.replace_route(other, route, caller=self)
            # else: the other branch still wins; swallow silently.
        if plain:
            next_table.add_routes(plain, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        next_table = self.next_table
        if next_table is None:
            return
        other_branch = self._other_branch(caller)
        lookup = other_branch.lookup_route
        plain: List[Any] = []
        for route in routes:
            other = lookup(route.net, caller=self)
            if other is None:
                plain.append(route)
            elif preferred(route, other) is route:
                # The departing route was the winner; the other branch
                # takes over.
                if plain:
                    next_table.delete_routes(plain, caller=self)
                    plain = []
                next_table.replace_route(route, other, caller=self)
            # else: the deleted route was never visible downstream.
        if plain:
            next_table.delete_routes(plain, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        if self.next_table is None:
            return
        other = self._other_branch(caller).lookup_route(new_route.net,
                                                        caller=self)
        if other is None:
            self.next_table.replace_route(old_route, new_route, caller=self)
            return
        old_won = preferred(old_route, other) is old_route
        new_wins = preferred(new_route, other) is new_route
        if old_won and new_wins:
            self.next_table.replace_route(old_route, new_route, caller=self)
        elif old_won and not new_wins:
            self.next_table.replace_route(old_route, other, caller=self)
        elif not old_won and new_wins:
            self.next_table.replace_route(other, new_route, caller=self)
        # else: the other branch won before and still wins; nothing changes.

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        """Downstream asks: answer with the preferred branch's route."""
        route_a = (self.parent_a.lookup_route(net, caller=self)
                   if self.parent_a else None)
        route_b = (self.parent_b.lookup_route(net, caller=self)
                   if self.parent_b else None)
        return preferred(route_a, route_b)
