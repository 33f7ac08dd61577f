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

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net import IPNet
from repro.trie import SnapshotWalk


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
    stages" — its table is a dict keyed by prefix.  A deletion stage or a
    re-filter that walks it holds a :class:`SnapshotWalk` over it.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.routes: Dict[IPNet, Any] = {}

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
        table = self.routes
        get = table.get
        next_table = self.next_table
        if next_table is None:
            table.update((route.net, route) for route in routes)
            return
        fresh: List[Any] = []
        for route in routes:
            net = route.net
            previous = get(net)
            table[net] = route
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
        pop = self.routes.pop
        for net in nets:
            route = pop(net, None)
            if route is not None:
                removed.append(route)
        if removed and self.next_table is not None:
            self.next_table.delete_routes(removed, caller=self)
        return removed

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.routes.get(net)


class _Refilter:
    """A filter bank between two functions: the routes still pending in a
    walk over the table upstream carry *old*'s output downstream, every
    other route *new*'s — those the walk has passed and those added after
    it began.  A stopped re-filter keeps its walk's snapshot where it
    stands, so it still says what each route carries."""

    __slots__ = ("new", "old", "walk", "task")

    def __init__(self, new: Callable[[Any], Optional[Any]],
                 old: Callable[[Any], Optional[Any]], walk: SnapshotWalk):
        self.new = new
        self.old = old
        self.walk = walk
        self.task = None

    def __call__(self, route: Any) -> Optional[Any]:
        if self.walk.pending(route.net):
            return self.old(route)
        return self.new(route)

    def stop(self) -> None:
        if self.task is not None:
            self.task.kill()


class FilterStage(RouteTableStage):
    """A filter bank element: drop or rewrite routes flowing downstream.

    *filter_fn(route)* returns None to drop, the same route to pass, or a
    modified route.  The function must be deterministic, so a later
    delete of the original route maps to the same output the earlier add
    produced — preserving consistency rule 1.

    A policy change swaps the function through :meth:`refilter`, and
    rule 1 holds across the swap because every message about a route is
    filtered with ``carried``: the function its output downstream was
    made with.  That is the new function behind the re-filter walk and
    the old one ahead of it, and for the routes a deletion stage took
    over (:meth:`held_by`) the function they carried when it did.  No
    route is copied for it.
    """

    #: routes a re-filter walk handles per background slice
    REFILTER_SLICE = 64

    def __init__(self, name: str, filter_fn: Callable[[Any], Optional[Any]]):
        super().__init__(name)
        self.filter_fn = filter_fn
        #: ``filter_fn``, or a ``_Refilter`` while a re-filter runs
        self.carried: Callable[[Any], Optional[Any]] = filter_fn
        #: (table a deletion stage upstream drains, the function its
        #: routes carry), one per such stage
        self._held: List[Tuple[Any, Callable[[Any], Optional[Any]]]] = []

    def _carried_by(self, route: Any) -> Optional[Any]:
        for table, carried in self._held:
            if table.get(route.net) is route:
                return carried(route)
        return self.carried(route)

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # One pass over the batch, one downstream dispatch: the filter
        # function (possibly a compiled policy program) stays hot across
        # the whole burst instead of being re-entered per call chain.
        passed = [f for f in map(self.carried, routes) if f is not None]
        if passed and self.next_table is not None:
            self.next_table.add_routes(passed, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        carried = self._carried_by if self._held else self.carried
        passed = [f for f in map(carried, routes) if f is not None]
        if passed and self.next_table is not None:
            self.next_table.delete_routes(passed, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._send_change(self.carried(old_route), self.carried(new_route))

    def _send_change(self, old_filtered: Any, new_filtered: Any) -> None:
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
        return self._carried_by(route)

    # -- policy changes (paper §5.1.2) -------------------------------------
    def refilter(self, filter_fn: Callable[[Any], Optional[Any]],
                 walk: Optional[SnapshotWalk], loop, name: str) -> None:
        """Filter with *filter_fn* from now on.

        *walk*, begun over the table upstream, is taken in background
        slices: each route it passes sends downstream the difference
        between the output it carried and the one it carries now.  Until
        then a route whose prefix is pending in the walk carries the old
        function, and any other route the new one.  Without a walk
        nothing downstream needs telling.  A newer swap supersedes a
        running walk where it stands: its routes still carry what that
        walk left them.
        """
        from repro.eventloop.tasks import TaskPriority

        previous = self.carried
        if isinstance(previous, _Refilter):
            previous.stop()
        self.filter_fn = self.carried = filter_fn
        if walk is None:
            return
        refilter = self.carried = _Refilter(filter_fn, previous, walk)
        refilter.task = loop.spawn_task(
            partial(self._refilter_slice, refilter),
            priority=TaskPriority.BACKGROUND, name=name)

    def _refilter_slice(self, refilter: _Refilter) -> bool:
        walk = refilter.walk
        for __ in range(self.REFILTER_SLICE):
            # One route at a time: a route leaves the pending keys before
            # its difference goes downstream, and no later one does.
            taken = walk.take(1)
            if not taken:
                break
            route = taken[0]
            old_filtered, new_filtered = refilter.old(route), \
                refilter.new(route)
            if old_filtered != new_filtered:
                self._send_change(old_filtered, new_filtered)
        if not walk.exhausted:
            return True
        self.carried = self.filter_fn
        return False

    def held_by(self, table: Any) -> Callable[[], None]:
        """A deletion stage upstream takes over *table*: its routes leave
        through the function they carry now, a running walk stops where
        it stands, and the routes that arrive from now on carry
        ``filter_fn``.  Returns what to call once the table is drained."""
        entry = (table, self.carried)
        self.reset()
        self._held.append(entry)
        return partial(self._held.remove, entry)

    def reset(self) -> None:
        """Stop a running re-filter: downstream was reset, so every route
        carries ``filter_fn`` from now on."""
        if isinstance(self.carried, _Refilter):
            self.carried.stop()
        self.carried = self.filter_fn


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

    def __init__(self, name: str, loop, routes: Dict[IPNet, Any], *,
                 slice_size: int = 64,
                 on_complete: Optional[Callable[[], None]] = None):
        super().__init__(name)
        self.loop = loop
        self.pending = routes
        self.slice_size = slice_size
        self._walk = SnapshotWalk(routes)
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
        deleted = self._walk.take(self.slice_size)
        # One batched downstream dispatch per slice, not one per route.
        # A route leaves ``pending`` only once its delete is sent, so a
        # filter bank downstream can still tell it held (``held_by``).
        if deleted and self.next_table is not None:
            self.next_table.delete_routes(deleted, caller=self)
        pop = self.pending.pop
        for route in deleted:
            pop(route.net, None)
        if self._walk.exhausted:
            self._finish()
            return False
        return True

    def _finish(self) -> None:
        if self.parent is not None or self.next_table is not None:
            self.unplumb()
        if self._on_complete is not None:
            on_complete, self._on_complete = self._on_complete, None
            on_complete()

    @property
    def done(self) -> bool:
        return not self.pending and self._walk.exhausted

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # "first it sends a delete route downstream for the old route,
        # and then it sends the add route for the new route."  Per prefix
        # that order is preserved; across prefixes all pending deletes are
        # grouped ahead of the adds so the batch costs two downstream
        # dispatches, not 2N.
        pending = self.pending
        helds = [held for held in (pending.get(route.net)
                                   for route in routes)
                 if held is not None]
        if helds and self.next_table is not None:
            self.next_table.delete_routes(helds, caller=self)
        for held in helds:
            pending.pop(held.net, None)
        if self.next_table is not None:
            self.next_table.add_routes(routes, caller=self)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        held = self.pending.get(net)
        if held is not None:
            return held
        return super().lookup_route(net, caller=caller)
