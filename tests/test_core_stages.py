"""Tests for the generic staged routing-table framework (paper §5)."""

import pytest

from repro.core import (
    BatchStage,
    DeletionStage,
    FilterStage,
    OriginStage,
    RouteTableStage,
)
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet


class Route:
    """Minimal route object for framework tests."""

    def __init__(self, net_text, tag="r", metric=0):
        self.net = IPNet.parse(net_text)
        self.tag = tag
        self.metric = metric

    def __repr__(self):
        return f"Route({self.net}, {self.tag!r}, {self.metric})"

    def __eq__(self, other):
        return (isinstance(other, Route) and self.net == other.net
                and self.tag == other.tag and self.metric == other.metric)


class SinkStage(RouteTableStage):
    """Records everything that reaches the end of a pipeline."""

    def __init__(self):
        super().__init__("sink")
        self.log = []

    def add_route(self, route, caller=None):
        self.log.append(("add", route))

    def delete_route(self, route, caller=None):
        self.log.append(("delete", route))

    def replace_route(self, old, new, caller=None):
        self.log.append(("replace", old, new))


@pytest.fixture
def loop():
    return EventLoop(SimulatedClock())


class TestPlumbing:
    def test_linear_plumb(self):
        a, b, c = (RouteTableStage(n) for n in "abc")
        RouteTableStage.plumb(a, b, c)
        assert a.next_table is b and b.next_table is c
        assert c.parent is b and b.parent is a

    def test_insert_downstream(self):
        a, c = RouteTableStage("a"), RouteTableStage("c")
        RouteTableStage.plumb(a, c)
        b = RouteTableStage("b")
        a.insert_downstream(b)
        assert a.next_table is b and b.next_table is c and c.parent is b

    def test_unplumb(self):
        a, b, c = (RouteTableStage(n) for n in "abc")
        RouteTableStage.plumb(a, b, c)
        b.unplumb()
        assert a.next_table is c and c.parent is a
        assert b.parent is None and b.next_table is None

    def test_messages_flow_through_chain(self):
        sink = SinkStage()
        a, b = RouteTableStage("a"), RouteTableStage("b")
        RouteTableStage.plumb(a, b, sink)
        route = Route("10.0.0.0/8")
        a.add_route(route)
        a.delete_route(route)
        assert sink.log == [("add", route), ("delete", route)]

    def test_lookup_flows_upstream(self):
        origin = OriginStage("origin")
        mid = RouteTableStage("mid")
        sink = SinkStage()
        RouteTableStage.plumb(origin, mid, sink)
        route = Route("10.0.0.0/8")
        origin.originate(route)
        assert sink.lookup_route(IPNet.parse("10.0.0.0/8")) is route
        assert sink.lookup_route(IPNet.parse("11.0.0.0/8")) is None


class TestOriginStage:
    def test_originate_and_withdraw(self):
        origin, sink = OriginStage("o"), SinkStage()
        RouteTableStage.plumb(origin, sink)
        route = Route("10.0.0.0/8")
        origin.originate(route)
        assert origin.route_count == 1
        origin.withdraw(route.net)
        assert origin.route_count == 0
        assert sink.log == [("add", route), ("delete", route)]

    def test_reoriginate_sends_replace(self):
        origin, sink = OriginStage("o"), SinkStage()
        RouteTableStage.plumb(origin, sink)
        first = Route("10.0.0.0/8", "v1")
        second = Route("10.0.0.0/8", "v2")
        origin.originate(first)
        origin.originate(second)
        assert sink.log[-1] == ("replace", first, second)

    def test_withdraw_missing_raises(self):
        origin = OriginStage("o")
        with pytest.raises(KeyError):
            origin.withdraw(IPNet.parse("10.0.0.0/8"))

    def test_withdraw_if_present(self):
        origin, sink = OriginStage("o"), SinkStage()
        RouteTableStage.plumb(origin, sink)
        assert origin.withdraw_if_present(IPNet.parse("10.0.0.0/8")) is None
        assert sink.log == []


class TestFilterStage:
    def test_drop(self):
        sink = SinkStage()
        fltr = FilterStage("f", lambda r: None if r.metric > 10 else r)
        RouteTableStage.plumb(fltr, sink)
        fltr.add_route(Route("10.0.0.0/8", metric=20))
        fltr.add_route(Route("11.0.0.0/8", metric=5))
        assert len(sink.log) == 1
        assert sink.log[0][1].net == IPNet.parse("11.0.0.0/8")

    def test_delete_filtered_consistently(self):
        sink = SinkStage()
        fltr = FilterStage("f", lambda r: Route(str(r.net), r.tag, r.metric + 1))
        RouteTableStage.plumb(fltr, sink)
        route = Route("10.0.0.0/8", metric=1)
        fltr.add_route(route)
        fltr.delete_route(route)
        (op1, added), (op2, deleted) = sink.log
        assert (op1, op2) == ("add", "delete")
        assert added == deleted  # deterministic rewrite keeps rule 1

    def test_replace_where_new_is_dropped_becomes_delete(self):
        sink = SinkStage()
        fltr = FilterStage("f", lambda r: None if r.metric > 10 else r)
        RouteTableStage.plumb(fltr, sink)
        old = Route("10.0.0.0/8", metric=1)
        new = Route("10.0.0.0/8", metric=99)
        fltr.replace_route(old, new)
        assert sink.log == [("delete", old)]

    def test_replace_where_old_was_dropped_becomes_add(self):
        sink = SinkStage()
        fltr = FilterStage("f", lambda r: None if r.metric > 10 else r)
        RouteTableStage.plumb(fltr, sink)
        old = Route("10.0.0.0/8", metric=99)
        new = Route("10.0.0.0/8", metric=1)
        fltr.replace_route(old, new)
        assert sink.log == [("add", new)]

    def test_lookup_applies_filter(self):
        origin = OriginStage("o")
        fltr = FilterStage("f", lambda r: None if r.metric > 10 else r)
        sink = SinkStage()
        RouteTableStage.plumb(origin, fltr, sink)
        origin.routes.insert(IPNet.parse("10.0.0.0/8"), Route("10.0.0.0/8", metric=99))
        assert sink.lookup_route(IPNet.parse("10.0.0.0/8")) is None


class TestDeletionStage:
    def _setup(self, loop, count=10, slice_size=3):
        origin = OriginStage("peer-in")
        sink = SinkStage()
        RouteTableStage.plumb(origin, sink)
        for i in range(count):
            origin.originate(Route(f"10.{i}.0.0/16", f"old{i}"))
        sink.log.clear()
        # Peering goes down: hand the table to a deletion stage (Figure 6).
        old_routes = origin.routes
        from repro.trie import RouteTrie

        origin.routes = RouteTrie(32)
        deletion = DeletionStage("del", loop, old_routes, slice_size=slice_size)
        origin.insert_downstream(deletion)
        deletion.start()
        return origin, deletion, sink

    def test_background_deletion_completes(self, loop):
        origin, deletion, sink = self._setup(loop)
        loop.run()
        deletes = [op for op, __ in sink.log if op == "delete"]
        assert len(deletes) == 10
        assert deletion.done
        # The stage unplumbed itself.
        assert origin.next_table is sink

    def test_deletion_is_sliced(self, loop):
        origin, deletion, sink = self._setup(loop, count=10, slice_size=3)
        # One background slice per idle loop turn: 3 deletions.
        loop.run_once()
        assert len(sink.log) == 3

    def test_readd_during_deletion_sends_delete_then_add(self, loop):
        origin, deletion, sink = self._setup(loop, count=5, slice_size=2)
        fresh = Route("10.4.0.0/16", "new4")
        origin.originate(fresh)  # peer came back before deletion finished
        ops = [entry for entry in sink.log if entry[1].net == fresh.net]
        assert [op for op, __ in ops] == ["delete", "add"]
        assert ops[0][1].tag == "old4"
        assert ops[1][1].tag == "new4"
        loop.run()
        deletes = [e for e in sink.log if e[0] == "delete"]
        assert len(deletes) == 5  # old4 deleted exactly once

    def test_lookup_during_deletion_sees_undeleted_routes(self, loop):
        origin, deletion, sink = self._setup(loop, count=5, slice_size=1)
        loop.run_once()  # deletes 10.0/16
        assert sink.lookup_route(IPNet.parse("10.0.0.0/16")) is None
        held = sink.lookup_route(IPNet.parse("10.3.0.0/16"))
        assert held is not None and held.tag == "old3"

    def test_flap_creates_multiple_deletion_stages(self, loop):
        """Each down/up cycle gets its own stage; each route held at most once."""
        origin, first_deletion, sink = self._setup(loop, count=4, slice_size=1)
        # Peer comes up, re-adds two routes, goes down again.
        for i in (0, 1):
            origin.originate(Route(f"10.{i}.0.0/16", f"gen2-{i}"))
        from repro.trie import RouteTrie

        old_routes = origin.routes
        origin.routes = RouteTrie(32)
        second = DeletionStage("del2", loop, old_routes, slice_size=1)
        origin.insert_downstream(second)
        second.start()
        loop.run()
        adds = sum(1 for op, *_ in sink.log if op == "add") + 4  # 4 initial adds
        deletes = sum(1 for op, *_ in sink.log if op == "delete")
        assert adds == deletes  # everything announced was withdrawn exactly once
        assert origin.next_table is sink

    def test_empty_table_finishes_immediately(self, loop):
        from repro.trie import RouteTrie

        origin, sink = OriginStage("o"), SinkStage()
        RouteTableStage.plumb(origin, sink)
        deletion = DeletionStage("del", loop, RouteTrie(32))
        origin.insert_downstream(deletion)
        deletion.start()
        loop.run()
        assert origin.next_table is sink


class TestSingleMessageSurface:
    """Every stage implements each message once; the other form is
    derived in ``repro.core.stages`` and nowhere else."""

    PAIRS = [("add_route", "add_routes"), ("delete_route", "delete_routes")]
    ORIGIN_SINGULARS = ("originate", "withdraw", "withdraw_if_present")

    @staticmethod
    def _owner(cls, name):
        return next(base for base in cls.__mro__ if name in vars(base))

    def test_no_stage_class_implements_both_forms(self):
        import repro.bgp  # noqa: F401  (define every stage class)
        import repro.fea  # noqa: F401
        import repro.rib  # noqa: F401
        from repro.core.stages import DERIVED_FORMS, all_stage_classes

        assert {cls for cls, __ in DERIVED_FORMS} == {RouteTableStage,
                                                      BatchStage}
        forked = []
        for cls in all_stage_classes():
            if not cls.__module__.startswith("repro."):
                continue  # test doubles
            for pair in self.PAIRS:
                implemented = [name for name in pair
                               if (self._owner(cls, name), name)
                               not in DERIVED_FORMS]
                if len(implemented) != 1:
                    forked.append((cls.__name__, implemented))
            if issubclass(cls, OriginStage):
                forked += [(cls.__name__, name)
                           for name in self.ORIGIN_SINGULARS
                           if self._owner(cls, name) is not OriginStage]
        assert forked == []

    def test_singular_call_into_batch_stage_is_one_span(self):
        from repro.obs.trace import Tracer

        flt = FilterStage("filter", lambda route: route)
        sink = SinkStage()
        flt.set_next(sink)
        route = Route("10.0.0.0/8")
        tracer = Tracer()
        tracer.trace(route.net)
        with tracer:
            flt.add_route(route)
            flt.delete_route(route)
        spans = tracer.context_for(route.net).spans
        assert [(s.site, s.op) for s in spans] == [
            ("filter", "add"), ("sink", "add"),
            ("filter", "delete"), ("sink", "delete")]
        assert sink.log == [("add", route), ("delete", route)]
