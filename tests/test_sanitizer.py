"""repro.sanitizer: the stage sanitizer and the schedule shuffler.

Mirrors ``test_analysis.py``'s contract for the runtime half: seeded
stage mutations must each be caught by exactly the intended rule, and
the clean tree must report zero violations (the armed fixtures in
``test_rib_stages.py`` / ``test_full_router_integration.py``).  The
shuffler permutes exactly the orders the event model leaves open, and
the two fault experiments still converge under it.
"""

import pytest

from repro.bgp.session import session_pair
from repro.core.stages import (
    DeletionStage,
    FilterStage,
    OriginStage,
    RouteTableStage,
    stream_reset,
)
from repro.eventloop import EventLoop, SimulatedClock
from repro.experiments.recovery import run_recovery
from repro.experiments.resilience import run_backend_resilience
from repro.net import IPNet, IPv4
from repro.rib import RibRoute
from repro.sanitizer import ScheduleShuffler, StageSanitizer


def net(text):
    return IPNet.parse(text)


def route(net_text, protocol="static", nexthop="192.168.0.1", metric=1):
    return RibRoute(net(net_text), IPv4(nexthop), metric, protocol)


class SinkStage(RouteTableStage):
    def __init__(self, name="sink"):
        super().__init__(name)
        self.log = []

    def add_routes(self, routes, caller=None):
        self.log.extend(("add", r.net) for r in routes)

    def delete_routes(self, routes, caller=None):
        self.log.extend(("delete", r.net) for r in routes)


def pipeline():
    origin = OriginStage("origin")
    flt = FilterStage("filter", lambda r: r)
    sink = SinkStage()
    RouteTableStage.plumb(origin, flt, sink)
    return origin, flt, sink


def rules_of(violations):
    return [v.rule for v in violations]


class TestStageSanitizer:
    def test_clean_flow_no_violations(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            origin.originate(route("10.0.0.0/8"))
            origin.originate(route("10.0.0.0/8", metric=5))  # replace
            origin.withdraw(net("10.0.0.0/8"))
        assert san.violations == []
        assert sink.log == [("add", net("10.0.0.0/8")),
                            ("delete", net("10.0.0.0/8"))]

    def test_double_add_reports_san001_once(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            r = route("10.0.0.0/8")
            flt.add_routes([r], caller=origin)
            flt.add_routes([r], caller=origin)
        assert rules_of(san.violations) == ["SAN001"]
        assert "already live" in san.violations[0].message

    def test_delete_without_add_reports_san002(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            flt.delete_routes([route("10.0.0.0/8")], caller=origin)
        assert rules_of(san.violations) == ["SAN002"]

    def test_replace_of_never_added_reports_san003(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            flt.replace_route(route("10.0.0.0/8"),
                              route("10.0.0.0/8", metric=9), caller=origin)
        assert rules_of(san.violations) == ["SAN003"]

    def test_edges_are_tracked_per_caller(self):
        """Multi-parent stages legitimately hold one prefix per parent."""
        with StageSanitizer() as san:
            a, b = OriginStage("a"), OriginStage("b")
            sink = SinkStage()
            r = route("10.0.0.0/8")
            sink.add_routes([r], caller=a)
            sink.add_routes([r], caller=b)  # different edge: not a violation
        assert san.violations == []

    def test_lookup_denying_live_route_reports_san004(self):
        class AmnesiacStage(RouteTableStage):
            def lookup_route(self, net_, caller=None):
                return None  # bug: denies what it announced

        with StageSanitizer() as san:
            upstream = AmnesiacStage("amnesiac")
            sink = SinkStage()
            upstream.set_next(sink)
            r = route("10.0.0.0/8")
            sink.add_routes([r], caller=upstream)
            assert upstream.lookup_route(net("10.0.0.0/8"), caller=sink) is None
        assert rules_of(san.violations) == ["SAN004"]

    def test_lookup_asked_during_an_in_flight_add_is_checked(self):
        """Rule 2 at the moment downstream stages ask: from inside their
        own add_routes, of a parent that is still inside its own."""
        class Forgetful(RouteTableStage):
            def lookup_route(self, net_, *, caller=None):
                return None  # bug: denies what it is announcing

        class Asker(RouteTableStage):
            def add_routes(self, routes, *, caller=None):
                for r in routes:
                    during.append(rules_of(san.violations))
                    self.parent.lookup_route(r.net, caller=self)
                    during.append(rules_of(san.violations))

        during = []
        with StageSanitizer() as san:
            up, asker = Forgetful("forgetful"), Asker("asker")
            up.set_next(asker)
            up.add_routes([route("10.0.0.0/8")])
        assert during == [[], ["SAN004"]]
        assert san.violations[0].origin == "forgetful->asker"

    def test_consistent_lookup_is_clean(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            origin.originate(route("10.0.0.0/8"))
            found = flt.lookup_route(net("10.0.0.0/8"), caller=sink)
            assert found is not None
        assert san.violations == []

    def test_deletion_stage_splice_keeps_consistency(self):
        """The §5.1.2 dynamic splice: no false SAN002 from migrated edges."""
        loop = EventLoop(SimulatedClock())
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            for prefix in ("10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"):
                origin.originate(route(prefix))
            old_routes = origin.routes
            origin.routes = {}
            deletion = DeletionStage("del", loop, old_routes, slice_size=1)
            origin.insert_downstream(deletion)
            deletion.start()
            # New-generation add for a still-held prefix: the deletion
            # stage must emit the pending delete first, then the add.
            origin.originate(route("20.0.0.0/8", metric=7))
            loop.run()
            assert deletion.done
        assert san.violations == []
        table = {}
        for op, prefix in sink.log:
            if op == "add":
                assert prefix not in table
                table[prefix] = True
            else:
                del table[prefix]
        assert sorted(str(k) for k in table) == ["20.0.0.0/8"]

    def test_stream_reset_drops_edge_state(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            origin.originate(route("10.0.0.0/8"))
            stream_reset(flt, sink)
            # After the declared reset a fresh add is not a double add.
            flt.add_routes([route("10.0.0.0/8")], caller=origin)
        assert san.violations == []

    def test_disarm_restores_pristine_methods(self):
        originals = {
            name: RouteTableStage.__dict__[name]
            for name in ("add_routes", "delete_routes", "replace_route",
                         "lookup_route", "insert_downstream", "unplumb")
        }
        san = StageSanitizer()
        san.arm()
        assert (RouteTableStage.__dict__["add_routes"]
                is not originals["add_routes"])
        san.disarm()
        for name, fn in originals.items():
            assert RouteTableStage.__dict__[name] is fn

    def test_classes_defined_while_armed_are_instrumented(self):
        with StageSanitizer() as san:
            class LateStage(RouteTableStage):
                def add_routes(self, routes, caller=None):
                    pass

            late = LateStage("late")
            r = route("10.0.0.0/8")
            late.add_routes([r], caller=None)
            late.add_routes([r], caller=None)
        assert rules_of(san.violations) == ["SAN001"]


class TestSeededStageMutation:
    """Satellite: a deliberate double-add in a RIB stage is caught."""

    def test_buggy_origin_stage_caught_by_san001(self, monkeypatch):
        def buggy_originate(self, r):
            self.routes[r.net] = r
            if self.next_table is not None:
                # Bug under test: ignores the previous route and re-adds.
                self.next_table.add_routes([r], caller=self)

        monkeypatch.setattr(OriginStage, "originate", buggy_originate)
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            origin.originate(route("10.0.0.0/8"))
            origin.originate(route("10.0.0.0/8", metric=5))
        assert rules_of(san.violations) == ["SAN001"]
        assert san.violations[0].origin == "origin->filter"

    def test_fixed_origin_stage_is_clean(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            origin.originate(route("10.0.0.0/8"))
            origin.originate(route("10.0.0.0/8", metric=5))
        assert san.violations == []


SEEDS = range(1, 9)


def _run_shuffled(seed, schedule):
    """Run *schedule(loop, order)* on a fresh loop under *seed*'s
    shuffler; return the order its callbacks ran in."""
    loop = EventLoop(SimulatedClock())
    order = []
    schedule(loop, order)
    with ScheduleShuffler(seed):
        loop.run()
    return tuple(order)


def _orders(schedule):
    return {_run_shuffled(seed, schedule) for seed in SEEDS}


class TestScheduleShuffler:
    def test_same_deadline_timers_are_permuted(self):
        def schedule(loop, order):
            for name in "abc":
                loop.call_later(1.0, lambda name=name: order.append(name),
                                name=name)

        orders = _orders(schedule)
        assert len(orders) > 1
        assert all(sorted(order) == ["a", "b", "c"] for order in orders)

    def test_different_deadlines_keep_their_order(self):
        def schedule(loop, order):
            for delay, name in [(2.0, "late"), (1.0, "early")]:
                loop.call_later(delay, lambda name=name: order.append(name),
                                name=name)

        assert _orders(schedule) == {("early", "late")}

    def test_one_turns_deferred_callbacks_are_permuted(self):
        def schedule(loop, order):
            loop.call_soon(order.append, "first")
            loop.call_soon(order.append, "second")

        assert _orders(schedule) == {("first", "second"),
                                     ("second", "first")}

    def test_same_priority_tasks_are_permuted(self):
        def schedule(loop, order):
            for name in "ab":
                loop.tasks.spawn(lambda name=name: order.append(name),
                                 name=name)

        assert _orders(schedule) == {("a", "b"), ("b", "a")}

    def test_a_seed_replays_its_schedule(self):
        def schedule(loop, order):
            for i in range(6):
                loop.call_later(1.0, lambda i=i: order.append(i))
                loop.call_soon(order.append, -i)

        assert _run_shuffled(5, schedule) == _run_shuffled(5, schedule)

    def test_shuffled_timer_cancelled_by_sibling_stays_dead(self):
        """A timer cancelled by an earlier same-deadline sibling must not
        fire, whichever order the shuffler picks."""
        def schedule(loop, order):
            timers = {}

            def cancel_other(myself, other):
                order.append(myself)
                timers[other].cancel()

            timers["a"] = loop.call_later(
                1.0, lambda: cancel_other("a", "b"), name="a")
            timers["b"] = loop.call_later(
                1.0, lambda: cancel_other("b", "a"), name="b")

        assert _orders(schedule) == {("a",), ("b",)}


    @pytest.mark.parametrize("latency", [0.0, 0.5])
    def test_a_session_pair_delivers_same_turn_sends_in_order(self,
                                                              latency):
        """A loopback session is a byte stream: whatever order the
        shuffler gives same-time events, each direction's sends arrive
        in the order they were made."""
        def schedule(loop, order):
            a, b = session_pair(loop, latency)
            a.connect()
            loop.run()
            b.on_data = lambda data: order.append(("b", data))
            a.on_data = lambda data: order.append(("a", data))
            for data in (b"one", b"two", b"three"):
                a.send(data)
                b.send(data.upper())

        for order in _orders(schedule):
            assert [data for end, data in order if end == "b"] == \
                [b"one", b"two", b"three"]
            assert [data for end, data in order if end == "a"] == \
                [b"ONE", b"TWO", b"THREE"]


@pytest.mark.parametrize("seed", range(1, 7))
class TestFaultExperimentsUnderTheShuffler:
    """The two fault experiments reconverge whatever the order of
    same-deadline events; each raises if it does not."""

    def test_recovery_restarts_bgp_and_reconverges(self, seed):
        with ScheduleShuffler(seed):
            result = run_recovery(seed=7)
        assert result.restarts == 1
        assert result.time_to_reconverge >= result.time_to_restart > 0

    def test_backend_reconciles_and_serves_through_the_outage(self, seed):
        routes, churn = 32, 16
        with ScheduleShuffler(seed):
            result = run_backend_resilience(seed=7, routes=routes,
                                            churn=churn)
        # every route the churn left live is answered from the shadow
        assert result.served_during_outage == routes + churn - churn // 2
        assert result.reconverged_at > result.restart_at
