"""repro.sanitizer: stage consistency, XRL dispatch, schedule exploration.

Mirrors ``test_analysis.py``'s contract for the runtime half: seeded
mutations must each be caught by exactly the intended sanitizer piece,
the clean tree must report zero violations (the armed fixtures in
``test_rib_stages.py`` / ``test_full_router_integration.py`` plus the
explorer runs here), and exploration reports must be byte-identical
across repeated runs.
"""

import json
import random

from repro.core.stages import (
    DeletionStage,
    FilterStage,
    OriginStage,
    RouteTableStage,
    stream_reset,
)
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.rib import RibRoute
from repro.sanitizer import (
    RuntimeSanitizer,
    ScheduleShuffler,
    StageSanitizer,
    XrlDispatchSanitizer,
    explore,
)
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.transport import IntraProcessFamily


def net(text):
    return IPNet.parse(text)


def route(net_text, protocol="static", nexthop="192.168.0.1", metric=1):
    return RibRoute(net(net_text), IPv4(nexthop), metric, protocol)


class SinkStage(RouteTableStage):
    def __init__(self, name="sink"):
        super().__init__(name)
        self.log = []

    def add_route(self, r, caller=None):
        self.log.append(("add", r.net))

    def delete_route(self, r, caller=None):
        self.log.append(("delete", r.net))


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
            flt.add_route(r, caller=origin)
            flt.add_route(r, caller=origin)
        assert rules_of(san.violations) == ["SAN001"]
        assert "already live" in san.violations[0].message

    def test_delete_without_add_reports_san002(self):
        with StageSanitizer() as san:
            origin, flt, sink = pipeline()
            flt.delete_route(route("10.0.0.0/8"), caller=origin)
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
            sink.add_route(r, caller=a)
            sink.add_route(r, caller=b)  # different edge: not a violation
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
            sink.add_route(r, caller=upstream)
            assert upstream.lookup_route(net("10.0.0.0/8"), caller=sink) is None
        assert rules_of(san.violations) == ["SAN004"]

    def test_lookup_asked_during_an_in_flight_add_is_checked(self):
        """Rule 2 at the moment downstream stages ask: from inside their
        own add_route, of a parent that is still inside its own."""
        class Forgetful(RouteTableStage):
            def lookup_route(self, net_, *, caller=None):
                return None  # bug: denies what it is announcing

        class Asker(RouteTableStage):
            def add_route(self, r, *, caller=None):
                during.append(rules_of(san.violations))
                self.parent.lookup_route(r.net, caller=self)
                during.append(rules_of(san.violations))

        during = []
        with StageSanitizer() as san:
            up, asker = Forgetful("forgetful"), Asker("asker")
            up.set_next(asker)
            up.add_route(route("10.0.0.0/8"))
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
            origin.routes = type(old_routes)(old_routes.bits)
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
            flt.add_route(route("10.0.0.0/8"), caller=origin)
        assert san.violations == []

    def test_disarm_restores_pristine_methods(self):
        originals = {
            name: RouteTableStage.__dict__[name]
            for name in ("add_route", "delete_route", "replace_route",
                         "lookup_route", "insert_downstream", "unplumb")
        }
        san = StageSanitizer()
        san.arm()
        assert RouteTableStage.__dict__["add_route"] is not originals["add_route"]
        san.disarm()
        for name, fn in originals.items():
            assert RouteTableStage.__dict__[name] is fn

    def test_classes_defined_while_armed_are_instrumented(self):
        with StageSanitizer() as san:
            class LateStage(RouteTableStage):
                def add_route(self, r, caller=None):
                    pass

            late = LateStage("late")
            r = route("10.0.0.0/8")
            late.add_route(r, caller=None)
            late.add_route(r, caller=None)
        assert rules_of(san.violations) == ["SAN001"]


class TestSeededStageMutation:
    """Satellite: a deliberate double-add in a RIB stage is caught."""

    def test_buggy_origin_stage_caught_by_san001(self, monkeypatch):
        def buggy_originate(self, r):
            self.routes.insert(r.net, r)
            if self.next_table is not None:
                # Bug under test: ignores the previous route and re-adds.
                self.next_table.add_route(r, caller=self)

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


class TestXrlDispatchSanitizer:
    def _client(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(7))
        client = XrlRouter(loop, "client", finder,
                           families=[IntraProcessFamily()])
        return loop, client

    def test_clean_dispatch_passes(self):
        loop, client = self._client()
        with XrlDispatchSanitizer() as san:
            args = (XrlArgs().add_txt("protocol", "bgp")
                    .add_ipv4net("net", net("10.0.0.0/8"))
                    .add_ipv4("nexthop", IPv4("192.168.0.1"))
                    .add_u32("metric", 1)
                    .add_list("policytags", []))
            client.send(Xrl("rib", "rib", "1.0", "add_route4", args))
            loop.run()
        assert san.violations == []
        assert san.checked == 1

    def test_unknown_interface_reports_san101(self):
        loop, client = self._client()
        with XrlDispatchSanitizer() as san:
            client.send(Xrl("rib", "ribble", "9.9", "add_route4", XrlArgs()))
            loop.run()
        assert rules_of(san.violations) == ["SAN101"]

    def test_unknown_method_reports_san102(self):
        loop, client = self._client()
        with XrlDispatchSanitizer() as san:
            client.send(Xrl("rib", "rib", "1.0", "add_rote4", XrlArgs()))
            loop.run()
        assert rules_of(san.violations) == ["SAN102"]

    def test_dynamically_built_bad_args_report_san103(self):
        """The case XRL001-006 cannot resolve statically: args from data."""
        loop, client = self._client()
        with XrlDispatchSanitizer() as san:
            args = XrlArgs()
            for name, value in [("protocol", "bgp"), ("metric", "one")]:
                args.add_txt(name, value)  # metric should be u32
            client.send(Xrl("rib", "rib", "1.0", "delete_route4", args))
            loop.run()
        assert rules_of(san.violations) == ["SAN103"]
        assert "rib/1.0/delete_route4" in san.violations[0].origin

    def test_bench_interface_is_exempt(self):
        loop, client = self._client()
        with XrlDispatchSanitizer() as san:
            client.send(Xrl("bench", "bench", "1.0", "noargs",
                            XrlArgs().add_u32("weird", 1)))
            loop.run()
        assert san.violations == []
        assert san.checked == 0

    def test_disarm_restores_pristine_send(self):
        original = XrlRouter.__dict__["send"]
        san = XrlDispatchSanitizer()
        san.arm()
        assert XrlRouter.__dict__["send"] is not original
        san.disarm()
        assert XrlRouter.__dict__["send"] is original


def _racy_scenario():
    """Two same-deadline timers whose order changes the result: a bug."""
    loop = EventLoop(SimulatedClock())
    state = {"value": 0}

    def increment():
        state["value"] += 1

    def double():
        state["value"] *= 2

    loop.call_later(1.0, increment, name="increment")
    loop.call_later(1.0, double, name="double")
    loop.run()
    return {"value": state["value"]}


def _commuting_scenario():
    """Two same-deadline timers touching independent state: no bug."""
    loop = EventLoop(SimulatedClock())
    state = {}
    loop.call_later(1.0, lambda: state.setdefault("a", 1), name="set-a")
    loop.call_later(1.0, lambda: state.setdefault("b", 2), name="set-b")
    loop.run()
    return dict(sorted(state.items()))


class TestScheduleExplorer:
    SEEDS = list(range(1, 9))

    def test_swapped_timer_order_bug_caught_by_race001(self):
        """Satellite: the seeded ordering mutation yields exactly RACE001."""
        report = explore(_racy_scenario, name="racy", seeds=self.SEEDS)
        assert rules_of(report.violations) == ["RACE001"]
        violation = report.violations[0]
        assert violation.origin == "schedule:racy"
        context = violation.context
        assert context["baseline_fingerprint"] == {"value": 2}
        assert context["divergent_fingerprint"] == {"value": 1}
        # The two minimal divergent schedules end at the differing choice.
        base = context["baseline_schedule"]
        diverged = context["divergent_schedule"]
        assert base[-1]["ready"] == ["increment", "double"]
        assert base[-1]["order"] != diverged[-1]["order"]
        assert base[:-1] == diverged[:-1]

    def test_commuting_timers_are_clean(self):
        report = explore(_commuting_scenario, name="commuting",
                         seeds=self.SEEDS)
        assert report.violations == []
        assert all(run.fingerprint == {"a": 1, "b": 2}
                   for run in report.runs)

    def test_reports_are_byte_identical(self):
        first = explore(_racy_scenario, name="racy", seeds=self.SEEDS)
        second = explore(_racy_scenario, name="racy", seeds=self.SEEDS)
        assert first.to_json() == second.to_json()
        assert json.dumps([v.to_dict() for v in first.violations],
                          sort_keys=True) == \
            json.dumps([v.to_dict() for v in second.violations],
                       sort_keys=True)

    def test_identity_schedule_matches_unpatched_run(self):
        unpatched = _racy_scenario()
        with ScheduleShuffler(None) as shuffler:
            patched = _racy_scenario()
        assert patched == unpatched
        assert any(point.kind == "timer" for point in shuffler.trace)

    def test_deferred_callbacks_are_permuted(self):
        def scenario():
            loop = EventLoop(SimulatedClock())
            order = []
            loop.call_soon(lambda: order.append("first"))
            loop.call_soon(lambda: order.append("second"))
            loop.run()
            return {"order": order}

        report = explore(scenario, name="deferred", seeds=self.SEEDS)
        assert rules_of(report.violations) == ["RACE001"]

    def test_shuffled_timer_cancelled_by_sibling_stays_dead(self):
        """A timer cancelled by an earlier same-deadline sibling must not
        fire, whichever order the shuffler picks."""
        fired = []
        for seed in [None] + self.SEEDS:
            loop = EventLoop(SimulatedClock())
            timers = {}

            def cancel_other(myself="a", other="b"):
                fired.append(myself)
                timers[other].cancel()

            timers["a"] = loop.call_later(
                1.0, lambda: cancel_other("a", "b"), name="a")
            timers["b"] = loop.call_later(
                1.0, lambda: cancel_other("b", "a"), name="b")
            with ScheduleShuffler(seed):
                loop.run()
        # Exactly one of the pair fires per run.
        assert len(fired) == len(self.SEEDS) + 1


class TestRuntimeSanitizerComposite:
    def test_arms_both_and_shares_log(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(7))
        client = XrlRouter(loop, "client", finder,
                           families=[IntraProcessFamily()])
        with RuntimeSanitizer() as san:
            origin, flt, sink = pipeline()
            flt.delete_route(route("10.0.0.0/8"), caller=origin)
            client.send(Xrl("rib", "rib", "1.0", "add_rote4", XrlArgs()))
            loop.run()
        assert rules_of(san.violations) == ["SAN002", "SAN102"]
        assert [v.seq for v in san.violations] == [1, 2]
