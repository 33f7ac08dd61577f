"""The staged routing-table framework (paper §5).

    "Rather than a single, shared, passive table that stores information
    and annotations, we implement routing tables as dynamic processes
    through which routes flow.  There is no single routing table object,
    but rather a network of pluggable routing stages, each implementing
    the same interface."

The stage API is the paper's, with add and delete carrying a batch:

* ``add_routes`` — a preceding stage is sending new routes downstream;
* ``delete_routes`` — a preceding stage is withdrawing old routes;
* ``replace_route`` — one prefix's route changes (one old/new pair);
* ``lookup_route`` — a *later* stage is asking upstream for the route to a
  destination subnet.

with the two consistency rules:

1. any delete must correspond to a previous add;
2. the result of ``lookup_route`` must be consistent with previous
   add / delete messages sent downstream.

Routes are any objects with a ``.net`` attribute (an :class:`IPNet`).

The paper's ``add_route(r)`` is ``add_routes([r])``: a batch is the only
form of add and delete.  A batch is *semantically identical* to its
routes sent one at a time, in order — that is the batch contract, and it
is what keeps the two consistency rules meaningful: a stage may process a
batch with one downstream dispatch, but the per-prefix event order it
emits must match the one-route-at-a-time decomposition.

The ``caller`` argument is keyword-only on the whole message API so call
sites read unambiguously and stages can add positional parameters
without breaking callers.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.net import IPNet
from repro.trie import RouteTrie


# -- what repro.core.taps listens on -----------------------------------------
#
# Observers must cost nothing when none is attached, so there is no
# ``if instrumented:`` branch anywhere in the message hot path.  Instead
# the instrumentation seam (:mod:`repro.core.taps`, the only writer of
# these two lists) is told of every stage *class* defined while it has a
# tap attached and taps the class's methods; with no tap the lists are
# empty.  ``stream_reset`` is the one cooperative notification: code that
# legitimately wipes per-stage state without emitting deletes (e.g. BGP
# tearing down a peering's output branch on session loss) announces it so
# shadow state tracking the §5 consistency rules can be dropped there
# instead of misreported as violations.

class_hooks: List[Callable[[type], None]] = []
reset_listeners: List[Callable[[tuple], None]] = []


def all_stage_classes() -> List[type]:
    """Every currently defined stage class, the base class included."""
    seen: List[type] = []

    def visit(cls: type) -> None:
        if cls in seen:
            return
        seen.append(cls)
        for sub in cls.__subclasses__():
            visit(sub)

    visit(RouteTableStage)
    return seen


def stream_reset(*stages: "RouteTableStage") -> None:
    """Announce that *stages* dropped route state without emitting deletes."""
    for listener in list(reset_listeners):
        listener(stages)


class RouteTableStage:
    """Base stage: forwards everything, knows its neighbours.

    ``parent`` is the upstream neighbour (towards route origin), and
    ``next_table`` the downstream one (towards consumers).  Stages with
    several parents (decision, merge) track them themselves and use the
    *caller* argument to tell parents apart.
    """

    def __init__(self, name: str):
        self.name = name
        self.parent: Optional["RouteTableStage"] = None
        self.next_table: Optional["RouteTableStage"] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Classes defined while a tap is attached are tapped too
        # (test-local stage subclasses, dynamically created stages).
        for hook in class_hooks:
            hook(cls)

    # -- plumbing ------------------------------------------------------------
    def set_next(self, downstream: Optional["RouteTableStage"]) -> None:
        self.next_table = downstream
        if downstream is not None:
            downstream.parent = self

    @staticmethod
    def plumb(*stages: "RouteTableStage") -> None:
        """Connect *stages* into a linear pipeline, left-to-right."""
        for upstream, downstream in zip(stages, stages[1:]):
            upstream.set_next(downstream)

    def insert_downstream(self, new_stage: "RouteTableStage") -> None:
        """Dynamically plumb *new_stage* directly after this stage.

        This is how dynamic stages (deletion stages, policy re-filter
        stages) are spliced in at runtime (paper §5.1.2, Figure 6).
        """
        downstream = self.next_table
        self.set_next(new_stage)
        new_stage.set_next(downstream)

    def unplumb(self) -> None:
        """Remove this stage from a linear pipeline, reconnecting neighbours."""
        upstream, downstream = self.parent, self.next_table
        if upstream is not None and upstream.next_table is self:
            upstream.next_table = downstream
        if downstream is not None and downstream.parent is self:
            downstream.parent = upstream
        self.parent = None
        self.next_table = None

    # -- the stage message API (paper §5.1) -----------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional["RouteTableStage"] = None) -> None:
        """Receive a burst of new routes from upstream; default: pass it on."""
        if self.next_table is not None:
            self.next_table.add_routes(routes, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional["RouteTableStage"] = None) -> None:
        """Receive a burst of withdrawals from upstream; default: pass it on."""
        if self.next_table is not None:
            self.next_table.delete_routes(routes, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional["RouteTableStage"] = None) -> None:
        """Atomic delete+add for the same prefix; default: pass it on."""
        if self.next_table is not None:
            self.next_table.replace_route(old_route, new_route, caller=self)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional["RouteTableStage"] = None) -> Any:
        """A later stage asks for the route to *net*; default: ask upstream.

        "If the stage cannot answer the request itself, it should pass the
        request upstream to the preceding stage."
        """
        if self.parent is not None:
            return self.parent.lookup_route(net, caller=self)
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class OriginStage(RouteTableStage):
    """A stage that *stores* routes and feeds them into the pipeline.

    "we only store the original versions of routes, in the Peer In
    stages" — BGP's PeerIn and the RIB's origin tables derive from this.
    """

    def __init__(self, name: str, bits: int = 32):
        super().__init__(name)
        self.routes = RouteTrie(bits)

    @property
    def route_count(self) -> int:
        return len(self.routes)

    def originate(self, route: Any) -> None:
        """Inject *route*; replaces any previous route for the same prefix."""
        self.originate_batch([route])

    def originate_batch(self, routes: List[Any]) -> None:
        """Inject a burst of routes with one downstream dispatch per segment.

        Fresh prefixes accumulate into ``add_routes`` batches; a route
        that replaces a stored one flushes the accumulated segment first
        and then emits its ``replace_route``, so the downstream per-prefix
        event order is exactly that of the routes sent one at a time.
        """
        insert = self.routes.insert
        next_table = self.next_table
        if next_table is None:
            for route in routes:
                insert(route.net, route)
            return
        fresh: List[Any] = []
        for route in routes:
            previous = insert(route.net, route)
            if previous is not None:
                if fresh:
                    next_table.add_routes(fresh, caller=self)
                    fresh = []
                next_table.replace_route(previous, route, caller=self)
            else:
                fresh.append(route)
        if fresh:
            next_table.add_routes(fresh, caller=self)

    def withdraw(self, net: IPNet) -> Any:
        """Withdraw the route for *net*; returns it (KeyError if absent)."""
        removed = self.withdraw_batch([net])
        if not removed:
            raise KeyError(net)
        return removed[0]

    def withdraw_if_present(self, net: IPNet) -> Any:
        removed = self.withdraw_batch([net])
        return removed[0] if removed else None

    def withdraw_batch(self, nets: List[IPNet]) -> List[Any]:
        """Withdraw a burst of prefixes (absent ones are skipped).

        Returns the removed routes; downstream sees one
        ``delete_routes`` batch.
        """
        removed: List[Any] = []
        discard = self.routes.discard
        for net in nets:
            route = discard(net)
            if route is not None:
                removed.append(route)
        if removed and self.next_table is not None:
            self.next_table.delete_routes(removed, caller=self)
        return removed

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.routes.exact(net)


class FilterStage(RouteTableStage):
    """A filter bank element: drop or rewrite routes flowing downstream.

    *filter_fn(route)* returns None to drop, the same route to pass, or a
    modified route.  The function must be deterministic, so a later
    delete of the original route maps to the same output the earlier add
    produced — preserving consistency rule 1.
    """

    def __init__(self, name: str, filter_fn: Callable[[Any], Optional[Any]]):
        super().__init__(name)
        self.filter_fn = filter_fn

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # One pass over the batch, one downstream dispatch: the filter
        # function (possibly a compiled policy program) stays hot across
        # the whole burst instead of being re-entered per call chain.
        filter_fn = self.filter_fn
        passed = [f for f in map(filter_fn, routes) if f is not None]
        if passed and self.next_table is not None:
            self.next_table.add_routes(passed, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        filter_fn = self.filter_fn
        passed = [f for f in map(filter_fn, routes) if f is not None]
        if passed and self.next_table is not None:
            self.next_table.delete_routes(passed, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        old_filtered = self.filter_fn(old_route)
        new_filtered = self.filter_fn(new_route)
        if self.next_table is None:
            return
        if old_filtered is not None and new_filtered is not None:
            self.next_table.replace_route(old_filtered, new_filtered,
                                          caller=self)
        elif old_filtered is not None:
            self.next_table.delete_routes([old_filtered], caller=self)
        elif new_filtered is not None:
            self.next_table.add_routes([new_filtered], caller=self)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        if self.parent is None:
            return None
        route = self.parent.lookup_route(net, caller=self)
        if route is None:
            return None
        return self.filter_fn(route)


class DeletionStage(RouteTableStage):
    """Dynamic background-deletion stage (paper §5.1.2, Figure 6).

    When a peering goes down, its route table is handed to a new deletion
    stage plumbed directly after the origin stage; the origin immediately
    starts fresh and empty, while this stage deletes the old routes in
    background slices — preserving consistency throughout:

    * an add from upstream for a prefix still held here first emits the
      pending delete downstream, then the add;
    * a delete from upstream refers to the origin's own
      new-generation route — a held prefix cannot also exist upstream —
      so it is simply forwarded;
    * ``lookup_route`` keeps answering with not-yet-deleted routes;
    * when done, the stage unplumbs and discards itself.
    """

    def __init__(self, name: str, loop, routes: RouteTrie, *,
                 slice_size: int = 64,
                 on_complete: Optional[Callable[[], None]] = None):
        super().__init__(name)
        self.loop = loop
        self.pending = routes
        self.slice_size = slice_size
        self._iterator = routes.iterator()
        self._task = None
        self._on_complete = on_complete

    def start(self) -> None:
        """Begin background deletion (call after plumbing in)."""
        from repro.eventloop.tasks import TaskPriority

        self._task = self.loop.spawn_task(
            self._run_slice, priority=TaskPriority.BACKGROUND,
            name=f"{self.name}-deletion",
        )

    def _run_slice(self) -> bool:
        deleted = self._iterator.take(self.slice_size)
        discard = self.pending.discard
        for route in deleted:
            discard(route.net)
        # One batched downstream dispatch per slice, not one per route.
        if deleted and self.next_table is not None:
            self.next_table.delete_routes(deleted, caller=self)
        if self._iterator.exhausted:
            self._finish()
            return False
        return True

    def _finish(self) -> None:
        self._iterator.close()
        if self.parent is not None or self.next_table is not None:
            self.unplumb()
        if self._on_complete is not None:
            on_complete, self._on_complete = self._on_complete, None
            on_complete()

    @property
    def done(self) -> bool:
        return len(self.pending) == 0 and self._iterator.exhausted

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # "first it sends a delete route downstream for the old route,
        # and then it sends the add route for the new route."  Per prefix
        # that order is preserved; across prefixes all pending deletes are
        # grouped ahead of the adds so the batch costs two downstream
        # dispatches, not 2N.
        discard = self.pending.discard
        if self.next_table is None:
            for route in routes:
                discard(route.net)
            return
        helds = []
        for route in routes:
            held = discard(route.net)
            if held is not None:
                helds.append(held)
        if helds:
            self.next_table.delete_routes(helds, caller=self)
        self.next_table.add_routes(routes, caller=self)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        held = self.pending.exact(net)
        if held is not None:
            return held
        return super().lookup_route(net, caller=caller)
