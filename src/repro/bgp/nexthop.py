"""Nexthop resolution: the stages and cache of paper §5.1.1 and §5.2.1.

    "The Nexthop Resolver stages talk asynchronously to the RIB to
    discover metrics to the nexthops in BGP's routes. ... Routes are held
    in a queue until the relevant nexthop metrics are received; this
    avoids the need for the Decision Process to wait on asynchronous
    operations."

The shared :class:`NexthopResolver` owns the query client and the cache of
RIB answers; one :class:`NexthopResolverStage` sits on each peer's input
branch and annotates routes with (resolvable, IGP metric) before they
reach the decision process.

Because the RIB guarantees that no returned valid-subnet overlaps another
(§5.2.1), :class:`NexthopCache` is a sorted array searched with bisection
— the "balanced trees for fast route lookup, with attendant performance
advantages" the paper describes.
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.stages import RouteTableStage
from repro.net import IPNet, IPv4


class CacheEntry:
    __slots__ = ("subnet", "resolvable", "metric", "users")

    def __init__(self, subnet: IPNet, resolvable: bool, metric: int):
        self.subnet = subnet
        self.resolvable = resolvable
        self.metric = metric
        #: nexthop addresses answered from this entry (for invalidation)
        self.users: Set[int] = set()


class NexthopCache:
    """Non-overlapping valid-subnets, bisect-searchable by address."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._entries: List[CacheEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, addr: IPv4) -> Optional[CacheEntry]:
        value = addr.to_int()
        index = bisect.bisect_right(self._starts, value) - 1
        if index < 0:
            return None
        entry = self._entries[index]
        if entry.subnet.contains_addr(addr):
            return entry
        return None

    def insert(self, subnet: IPNet, resolvable: bool, metric: int) -> CacheEntry:
        entry = CacheEntry(subnet, resolvable, metric)
        start = subnet.first_addr().to_int()
        index = bisect.bisect_left(self._starts, start)
        if (index < len(self._starts) and self._starts[index] == start
                and self._entries[index].subnet == subnet):
            # Refresh in place, keeping users.
            entry.users = self._entries[index].users
            self._entries[index] = entry
            return entry
        self._starts.insert(index, start)
        self._entries.insert(index, entry)
        return entry

    def clear(self) -> List[CacheEntry]:
        """Drop every entry; return them (for re-query after RIB restart)."""
        removed = self._entries
        self._entries = []
        self._starts = []
        return removed

    def invalidate(self, subnet: IPNet) -> List[CacheEntry]:
        """Drop entries overlapping *subnet*; return them."""
        removed = []
        entries = self._entries
        starts = self._starts
        index = 0
        while index < len(entries):
            if entries[index].subnet.overlaps(subnet):
                removed.append(entries.pop(index))
                starts.pop(index)
            else:
                index += 1
        return removed


#: resolver answer callback: (resolvable, igp_metric)
AnswerCallback = Callable[[bool, int], None]
#: XRL query function: (nexthop, reply_cb(subnet, resolvable, metric))
QueryFn = Callable[[IPv4, Callable[[IPNet, bool, int], None]], None]


class NexthopResolver:
    """Shared query client + cache; one per BGP process."""

    def __init__(self, query_fn: QueryFn):
        self.cache = NexthopCache()
        self._query_fn = query_fn
        self._pending: Dict[int, List[AnswerCallback]] = {}
        #: pending nexthops an invalidation reached before their answer
        self._stale: Set[int] = set()
        self._stages: List["NexthopResolverStage"] = []
        self.queries_sent = 0
        self.cache_hits = 0

    def register_stage(self, stage: "NexthopResolverStage") -> None:
        self._stages.append(stage)

    def cached(self, nexthop: IPv4) -> Optional[CacheEntry]:
        """The cache's answer for *nexthop*, counted as a hit and as a
        user of the entry; None on a miss."""
        entry = self.cache.lookup(nexthop)
        if entry is not None:
            self.cache_hits += 1
            entry.users.add(nexthop.to_int())
        return entry

    def resolve(self, nexthop: IPv4, callback: AnswerCallback) -> bool:
        """Resolve *nexthop*; True if answered synchronously from cache."""
        entry = self.cached(nexthop)
        if entry is not None:
            callback(entry.resolvable, entry.metric)
            return True
        key = nexthop.to_int()
        waiters = self._pending.get(key)
        if waiters is not None:
            waiters.append(callback)
            return False
        self._pending[key] = [callback]
        self._query(nexthop)
        return False

    def _query(self, nexthop: IPv4) -> None:
        self.queries_sent += 1
        self._query_fn(nexthop, lambda subnet, resolvable, metric:
                       self._answered(nexthop, subnet, resolvable, metric))

    def _answered(self, nexthop: IPv4, subnet: IPNet, resolvable: bool,
                  metric: int) -> None:
        key = nexthop.to_int()
        if key in self._stale:
            # The RIB's invalidation and its answer travel apart, so the
            # answer may describe the cover from before the change, and
            # the interest it registered is gone.  Ask again; the
            # waiters keep waiting.
            self._stale.discard(key)
            self._query(nexthop)
            return
        entry = self.cache.insert(subnet, resolvable, metric)
        entry.users.add(key)
        for callback in self._pending.pop(key, []):
            callback(resolvable, metric)

    def invalidate(self, subnet: IPNet) -> None:
        """RIB cache-invalidation (rib_client XRL): re-query and re-push."""
        self._stale.update(key for key in self._pending
                           if subnet.contains_addr(IPv4(key)))
        removed = self.cache.invalidate(subnet)
        affected: Set[int] = set()
        for entry in removed:
            affected.update(entry.users)
        for nexthop_value in sorted(affected):
            nexthop = IPv4(nexthop_value)
            self.resolve(nexthop, lambda resolvable, metric, nh=nexthop:
                         self._notify_stages(nh, resolvable, metric))

    def requery_all(self) -> None:
        """Flush the cache and re-resolve every nexthop that used it.

        After a RIB restart the old interest registrations are gone, so
        cached answers can never be refreshed; re-querying also
        re-registers interest with the reborn RIB.
        """
        affected: Set[int] = set()
        for entry in self.cache.clear():
            affected.update(entry.users)
        for nexthop_value in sorted(affected):
            nexthop = IPv4(nexthop_value)
            self.resolve(nexthop, lambda resolvable, metric, nh=nexthop:
                         self._notify_stages(nh, resolvable, metric))

    def _notify_stages(self, nexthop: IPv4, resolvable: bool,
                       metric: int) -> None:
        for stage in self._stages:
            stage.reresolve(nexthop, resolvable, metric)


class NexthopResolverStage(RouteTableStage):
    """Annotates routes flowing down one peer branch.

    Holds a route when its nexthop answer is outstanding; guarantees the
    decision process only ever sees annotated routes, in a consistent
    add/delete/replace stream.
    """

    def __init__(self, name: str, resolver: NexthopResolver):
        super().__init__(name)
        self.resolver = resolver
        resolver.register_stage(self)
        #: last annotated version forwarded downstream, by prefix
        self.forwarded: Dict[IPNet, Any] = {}
        #: routes parked awaiting a nexthop answer, by prefix
        self.waiting: Dict[IPNet, Any] = {}
        #: nexthop -> set of prefixes forwarded with that nexthop
        self._nexthop_index: Dict[IPv4, Set[IPNet]] = {}

    # -- bookkeeping --------------------------------------------------------
    def _forward_add(self, route: Any, resolvable: bool, metric: int) -> None:
        annotated = route.annotated(igp_metric=metric, resolvable=resolvable)
        self.forwarded[route.net] = annotated
        self._nexthop_index.setdefault(route.nexthop, set()).add(route.net)
        if self.next_table is not None:
            self.next_table.add_routes([annotated], caller=self)

    def _unindex(self, route: Any) -> None:
        nets = self._nexthop_index.get(route.nexthop)
        if nets is not None:
            nets.discard(route.net)
            if not nets:
                del self._nexthop_index[route.nexthop]

    def _answered_add(self, net: IPNet, resolvable: bool,
                      metric: int) -> None:
        parked = self.waiting.pop(net, None)
        if parked is None:
            return  # cancelled by a delete while parked
        self._forward_add(parked, resolvable, metric)

    # -- stage messages ---------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # The routes of one UPDATE share one attribute list, hence one
        # nexthop object: one cache lookup per run of it, and every hit
        # of the batch goes downstream in one dispatch.  A miss parks
        # its route; its answer forwards it alone, whenever that arrives.
        resolver = self.resolver
        waiting = self.waiting
        forwarded = self.forwarded
        ready: List[Any] = []
        nexthop = entry = nets = None
        for route in routes:
            net = route.net
            if net in waiting:
                waiting[net] = route  # superseded while parked
                continue
            if route.nexthop is not nexthop:
                nexthop = route.nexthop
                entry = resolver.cached(nexthop)
                if entry is not None:
                    nets = self._nexthop_index.setdefault(nexthop, set())
            if entry is None:
                waiting[net] = route
                resolver.resolve(nexthop, partial(self._answered_add, net))
                nexthop = None  # the answer may be in the cache by now
                continue
            annotated = route.annotated(igp_metric=entry.metric,
                                        resolvable=entry.resolvable)
            forwarded[net] = annotated
            nets.add(net)
            ready.append(annotated)
        if ready and self.next_table is not None:
            self.next_table.add_routes(ready, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        waiting = self.waiting
        forwarded_pop = self.forwarded.pop
        gone: List[Any] = []
        for route in routes:
            net = route.net
            if net in waiting:
                # The parked version never made it downstream; a replace
                # parks with the previous version still forwarded.
                del waiting[net]
            annotated = forwarded_pop(net, None)
            if annotated is None:
                continue  # consistency: nothing to delete downstream
            self._unindex(annotated)
            gone.append(annotated)
        if gone and self.next_table is not None:
            self.next_table.delete_routes(gone, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        net = new_route.net
        if net in self.waiting:
            self.waiting[net] = new_route
            return
        previous = self.forwarded.get(net)
        if previous is None:
            self.add_routes([new_route], caller=caller)
            return

        def answered(resolvable: bool, metric: int) -> None:
            parked = self.waiting.pop(net, None)
            if parked is None:
                return
            current = self.forwarded.get(net)
            if current is None:
                self._forward_add(parked, resolvable, metric)
                return
            annotated = parked.annotated(igp_metric=metric,
                                         resolvable=resolvable)
            self._unindex(current)
            self.forwarded[net] = annotated
            self._nexthop_index.setdefault(parked.nexthop, set()).add(net)
            if self.next_table is not None:
                self.next_table.replace_route(current, annotated, caller=self)

        self.waiting[net] = new_route
        self.resolver.resolve(new_route.nexthop, answered)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        """Consistent with what flowed downstream: the forwarded version."""
        return self.forwarded.get(net)

    # -- RIB invalidation fallout ----------------------------------------------
    def reresolve(self, nexthop: IPv4, resolvable: bool, metric: int) -> None:
        """The IGP answer for *nexthop* changed: re-annotate affected routes.

        "a RIP route change must immediately notify BGP, which must then
        figure out all the BGP routes that might change as a result."
        """
        nets = self._nexthop_index.get(nexthop)
        if not nets:
            return
        forwarded = self.forwarded
        next_table = self.next_table
        for net in list(nets):
            current = forwarded.get(net)
            if current is None:
                continue
            if (current.resolvable == resolvable
                    and current.igp_metric == metric):
                continue
            annotated = current.annotated(igp_metric=metric,
                                          resolvable=resolvable)
            forwarded[net] = annotated
            if next_table is not None:
                next_table.replace_route(current, annotated, caller=self)
