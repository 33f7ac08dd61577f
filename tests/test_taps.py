"""repro.core.taps: the one instrumentation seam.

What the seam promises, checked from outside: observers compose in any
order, leave in any order, and once the last has left every tapped
attribute is the identical pristine object again — the zero-overhead
contract (with nothing attached, the hot path is the uninstrumented
code; the paired wall-clock backstop lives in
``benchmarks/test_fig13_route_flow.py``).
"""

import itertools
import random

import pytest

import repro.bgp  # noqa: F401  (define every stage class)
import repro.rib  # noqa: F401
from repro.core import stages, taps
from repro.core.stages import FilterStage, OriginStage, RouteTableStage
from repro.eventloop import EventLoop, SimulatedClock
from repro.eventloop.tasks import TaskScheduler
from repro.eventloop.timers import TimerList
from repro.fea.fib import Fib
from repro.net import IPNet, IPv4
from repro.obs import TRACE_ARG, Observability
from repro.rib import RibRoute
from repro.sanitizer import ScheduleShuffler, StageSanitizer
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter
from repro.xrl.transport import IntraProcessFamily

#: every (class, method) an observer in this repo taps, stage classes aside
TAPPED = [(XrlRouter, "send"), (XrlRouter, "dispatch_request"),
          (EventLoop, "call_soon"), (EventLoop, "_drain_deferred"),
          (TimerList, "run_expired"), (TaskScheduler, "run_one_slice"),
          (Fib, "insert"), (Fib, "remove")]
STAGE_METHODS = ("add_routes", "delete_routes", "replace_route",
                 "lookup_route", "originate_batch", "withdraw_batch",
                 "insert_downstream", "unplumb")


def route(net_text, metric=1):
    return RibRoute(IPNet.parse(net_text), IPv4("192.168.0.1"), metric,
                    "static")


def snapshot():
    """The object behind every tappable attribute, as the class holds it."""
    held = {(cls, name): vars(cls)[name] for cls, name in TAPPED}
    for cls in stages.all_stage_classes():
        for name in STAGE_METHODS:
            if name in vars(cls):
                held[(cls, name)] = vars(cls)[name]
    return held


class Sink(RouteTableStage):
    def __init__(self, name="sink"):
        super().__init__(name)
        self.log = []

    def add_routes(self, routes, *, caller=None):
        self.log.extend(("add", r.net) for r in routes)

    def delete_routes(self, routes, *, caller=None):
        self.log.extend(("delete", r.net) for r in routes)


class Passing(RouteTableStage):
    """Ends its add_routes in ``super().add_routes``: a super() chain."""

    def add_routes(self, routes, *, caller=None):
        super().add_routes(routes, caller=caller)


class Recorder(taps.StageTap):
    def __init__(self):
        self.seen = []
        self.finished = []

    def stage_message(self, stage, op, items, caller):
        nets = [getattr(item, "net", item) for item in items]
        self.seen.append((stage.name, op, nets))
        return lambda result: self.finished.append((stage.name, op, result))


class TestWrap:
    class Target:
        def greet(self, name, *, loud=False):
            return f"HELLO {name}" if loud else f"hello {name}"

    def test_arounds_continue_to_the_pristine_function(self):
        calls = []

        def first(call, *args, **kwargs):
            calls.append("first")
            return call(*args, **kwargs) + "!"

        def second(call, *args, **kwargs):
            calls.append("second")
            return call(*args, **kwargs) + "?"

        pristine = vars(self.Target)["greet"]
        taps.wrap(self.Target, "greet", first)
        taps.wrap(self.Target, "greet", second)
        try:
            assert taps.installed() == [(self.Target, "greet")]
            assert self.Target().greet("x", loud=True) == "HELLO x!?"
            assert calls == ["second", "first"]
            assert self.Target.greet.__name__ == "greet"
        finally:
            # first in, first out: the order a saved-original scheme forbids
            taps.unwrap(self.Target, "greet", first)
            assert self.Target().greet("x") == "hello x?"
            taps.unwrap(self.Target, "greet", second)
        assert vars(self.Target)["greet"] is pristine
        assert taps.installed() == []

    def test_unwrap_of_what_is_not_installed_is_a_no_op(self):
        def passthrough(call, *args, **kwargs):
            return call(*args, **kwargs)

        pristine = vars(self.Target)["greet"]
        taps.unwrap(self.Target, "greet", passthrough)
        assert vars(self.Target)["greet"] is pristine
        taps.wrap(self.Target, "greet", passthrough)
        taps.unwrap(self.Target, "greet", print)
        assert taps.installed() == [(self.Target, "greet")]
        taps.unwrap(self.Target, "greet", passthrough)
        assert vars(self.Target)["greet"] is pristine

    def test_importing_the_seam_rebinds_nothing(self):
        assert taps.installed() == []
        assert stages.class_hooks == [] and stages.reset_listeners == []


ORDERS = list(itertools.permutations(range(3)))


@pytest.mark.parametrize("disarm_order", ORDERS,
                         ids=lambda o: "disarm" + "".join(map(str, o)))
@pytest.mark.parametrize("arm_order", ORDERS,
                         ids=lambda o: "arm" + "".join(map(str, o)))
def test_every_arm_and_disarm_order_restores_the_pristine_objects(
        arm_order, disarm_order):
    pristine = snapshot()
    observers = [StageSanitizer(), Observability(), ScheduleShuffler(3)]
    for index in arm_order:
        observers[index].arm()
    tapped = snapshot()
    for cls, name in TAPPED + [(RouteTableStage, "add_routes"),
                               (OriginStage, "originate_batch")]:
        assert tapped[(cls, name)] is not pristine[(cls, name)]
    for index in disarm_order:
        observers[index].disarm()
    assert taps.installed() == []
    assert stages.class_hooks == [] and stages.reset_listeners == []
    restored = snapshot()
    assert restored.keys() == pristine.keys()
    for key, fn in pristine.items():
        assert restored[key] is fn, f"{key[0].__name__}.{key[1]} not restored"


def test_flow_armed_obs_first_is_traced_and_clean():
    """Tracer armed before the sanitizer and disarmed before it too —
    both halves of what the saved-original scheme could not do."""
    loop = EventLoop(SimulatedClock())
    finder = Finder(rng=random.Random(7))
    client = XrlRouter(loop, "client", finder,
                       families=[IntraProcessFamily()])
    sent = []

    def capture(call, router, xrl, *args, **kwargs):
        sent.append(xrl)  # innermost: what would have left the router

    pristine_send = vars(XrlRouter)["send"]
    r = route("10.0.0.0/8")
    obs, san = Observability(), StageSanitizer()
    obs.trace(r.net)
    taps.wrap(XrlRouter, "send", capture)
    obs.arm()
    san.arm()
    try:
        origin, flt, sink = OriginStage("origin"), FilterStage(
            "filter", lambda x: x), Sink()
        RouteTableStage.plumb(origin, flt, sink)
        origin.originate(r)
        assert flt.lookup_route(r.net, caller=sink) is r
        args = (XrlArgs().add_txt("protocol", "static")
                .add_ipv4net("net", r.net).add_ipv4("nexthop", r.nexthop)
                .add_u32("metric", 1).add_list("policytags", []))
        client.send(Xrl("rib", "rib", "1.0", "add_route4", args))
        origin.withdraw(r.net)
    finally:
        obs.disarm()
        san.disarm()
        taps.unwrap(XrlRouter, "send", capture)
    assert vars(XrlRouter)["send"] is pristine_send
    assert san.violations == []
    assert sent[0].args.has(TRACE_ARG)
    spans = obs.tracer.context_for(r.net).spans
    assert [(s.kind, s.site, s.op) for s in spans] == [
        ("origin", "origin", "originate"), ("stage", "filter", "add"),
        ("stage", "sink", "add"), ("xrl-send", "client", "add_route4"),
        ("origin", "origin", "withdraw"), ("stage", "filter", "delete"),
        ("stage", "sink", "delete")]


def test_stage_class_defined_while_armed_is_seen_by_every_tap():
    r = route("10.0.0.0/8")
    obs, san = Observability(), StageSanitizer()
    obs.trace(r.net)
    with obs, san:
        class Late(RouteTableStage):
            def add_routes(self, routes, *, caller=None):
                pass

        late = Late("late")
        late.add_routes([r])
        late.add_routes([r])
        assert (Late, "add_routes") in taps.installed()
    assert [v.rule for v in san.violations] == ["SAN001"]
    assert [(s.site, s.op) for s in obs.tracer.context_for(r.net).spans] == [
        ("late", "add"), ("late", "add")]
    assert "tapped" not in vars(Late)["add_routes"].__qualname__


def test_a_message_is_delivered_once_where_it_lands():
    """A one-route batch, a batch handed as an iterator, and a super()
    chain: each is one message per stage."""
    recorder = Recorder()
    taps.attach(recorder)
    try:
        flt = FilterStage("filter", lambda x: x)
        cache = Passing("cache")
        sink = Sink()
        RouteTableStage.plumb(flt, cache, sink)
        a, b = route("10.0.0.0/8"), route("20.0.0.0/8")
        flt.add_routes([a])
        cache.add_routes(iter([b]))
    finally:
        taps.detach(recorder)
    assert recorder.seen == [
        ("filter", "add", [a.net]), ("cache", "add", [a.net]),
        ("sink", "add", [a.net]),
        ("cache", "add", [b.net]), ("sink", "add", [b.net])]
    assert [entry[:2] for entry in recorder.finished] == [
        ("sink", "add"), ("cache", "add"), ("filter", "add"),
        ("sink", "add"), ("cache", "add")]


def test_a_stage_that_raises_still_finishes_and_clears_the_guard():
    class Exploding(RouteTableStage):
        def add_routes(self, routes, *, caller=None):
            raise ValueError("boom")

    recorder = Recorder()
    taps.attach(recorder)
    try:
        stage = Exploding("exploding")
        r = route("10.0.0.0/8")
        for __ in range(2):  # the second is seen only if the guard cleared
            with pytest.raises(ValueError):
                stage.add_routes([r])
    finally:
        taps.detach(recorder)
    assert recorder.seen == [("exploding", "add", [r.net])] * 2
    assert recorder.finished == [("exploding", "add", None)] * 2


def test_two_stage_sanitizers_each_see_every_message():
    with StageSanitizer() as first, StageSanitizer() as second:
        sink = Sink()
        flt = FilterStage("filter", lambda x: x)
        flt.set_next(sink)
        r = route("10.0.0.0/8")
        flt.add_routes([r])
        flt.add_routes([r])
        stages.stream_reset(flt, sink)
        flt.add_routes([r])
    assert [v.rule for v in first.violations] == ["SAN001"]
    assert [v.rule for v in second.violations] == ["SAN001"]
    assert first.violations is not second.violations


def test_observers_that_would_conflict_stay_exclusive():
    with Observability():
        with pytest.raises(RuntimeError):
            Observability().arm()
    with ScheduleShuffler(1):
        with pytest.raises(RuntimeError):
            ScheduleShuffler(2).arm()
    assert taps.installed() == []
