"""repro.obs: what the tracer records, hop by hop, and what its metrics count.

The end-to-end trees are asserted in ``test_full_router_integration.py``
and the CLI gate in ``test_cli_gates.py``; these are the unit-sized
facts those rest on.
"""

import random

import pytest

from repro.core.stages import FilterStage, OriginStage, RouteTableStage
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.obs import TRACE_ARG, Observability, Tracer
from repro.rib import RibRoute
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter, parse_idl
from repro.xrl.transport import IntraProcessFamily, SimFamily

LEARN_IDL = """
interface learn/1.0 {
    learn ? net:ipv4net -> seen:u32;
}
"""


def route(net_text, metric=1):
    return RibRoute(IPNet.parse(net_text), IPv4("192.168.0.1"), metric,
                    "static")


class Sink(RouteTableStage):
    def add_route(self, r, *, caller=None):
        pass

    def delete_route(self, r, *, caller=None):
        pass


class Passing(RouteTableStage):
    """Ends its add_route in ``super().add_route``: a super() chain."""

    def add_route(self, r, *, caller=None):
        super().add_route(r, caller=caller)


def rows(tracer, net):
    return [(s.span_id, s.parent_id, s.kind, s.site, s.op)
            for s in tracer.context_for(net).spans]


class TestStageSpans:
    def test_kinds_and_parents_through_origin_filter_sink(self):
        origin = OriginStage("origin")
        RouteTableStage.plumb(origin, FilterStage("filter", lambda r: r),
                              Sink("sink"))
        r, other = route("10.0.0.0/8"), route("20.0.0.0/8")
        tracer = Tracer()
        tracer.trace(r.net)
        with tracer:
            origin.originate_batch([other, r])
            origin.withdraw(r.net)
        # Synchronous hops nest; the withdraw, a new event, chains
        # through the last span.  The untraced prefix leaves nothing.
        assert rows(tracer, r.net) == [
            (1, None, "origin", "origin", "originate"),
            (2, 1, "stage", "filter", "add"),
            (3, 2, "stage", "sink", "add"),
            (4, 3, "origin", "origin", "withdraw"),
            (5, 4, "stage", "filter", "delete"),
            (6, 5, "stage", "sink", "delete")]
        assert tracer.context_for(other.net) is None
        assert [depth for depth, __ in tracer.span_tree(1)] == [0, 1, 2,
                                                                3, 4, 5]
        assert tracer.context_for(r.net).stack == []

    def test_one_span_per_stage_through_a_super_chain(self):
        """Passing.add_route ends in super().add_route: two tapped
        functions, one message."""
        origin = OriginStage("origin")
        RouteTableStage.plumb(origin, Passing("cache"),
                              Sink("sink"))
        r = route("10.0.0.0/8")
        tracer = Tracer()
        tracer.trace(r.net)
        with tracer:
            origin.originate(r)
        assert [(s.site, s.op) for s in tracer.context_for(r.net).spans] == [
            ("origin", "originate"), ("cache", "add"), ("sink", "add")]

    def test_hop_sequence_is_the_same_singly_and_in_a_batch(self):
        def hops(deliver):
            origin = OriginStage("origin")
            RouteTableStage.plumb(
                origin, FilterStage("filter", lambda r: r),
                Passing("cache"), Sink("sink"))
            r = route("10.0.0.0/8")
            tracer = Tracer()
            tracer.trace(r.net)
            with tracer:
                deliver(origin, r)
            return tracer.hop_sequence(1)

        singly = hops(lambda origin, r: origin.originate(r))
        batched = hops(lambda origin, r: origin.originate_batch(
            [route("20.0.0.0/8"), r, route("30.0.0.0/8")]))
        assert singly == batched == ["origin", "filter", "cache", "sink"]


class LearnTarget:
    def __init__(self):
        self.received = []

    def xrl_learn(self, net):
        self.received.append(net)
        return {"seen": len(self.received)}


@pytest.fixture(params=[IntraProcessFamily, SimFamily],
                ids=["intra", "sim"])
def pair(request):
    loop = EventLoop(SimulatedClock())
    finder = Finder(rng=random.Random(7))
    family = request.param()
    token = 999 if request.param is IntraProcessFamily else None
    server = XrlRouter(loop, "learner", finder, families=[family],
                       process_token=token)
    target = LearnTarget()
    server.bind(parse_idl(LEARN_IDL)["learn/1.0"], target)
    client = XrlRouter(loop, "client", finder, families=[family],
                       process_token=token)
    return loop, client, target


def learn(net):
    return Xrl("learner", "learn", "1.0", "learn",
               XrlArgs().add_ipv4net("net", net))


class TestXrlSpans:
    def test_trace_ctx_rides_the_frame_and_never_reaches_the_handler(
            self, pair):
        loop, client, target = pair
        traced, plain = IPNet.parse("10.0.0.0/8"), IPNet.parse("20.0.0.0/8")
        obs = Observability(clock=loop.clock.now)
        ctx = obs.trace(traced)
        replies = []
        with obs:
            for net in (traced, plain):
                client.send(learn(net), lambda err, args: replies.append(
                    (err.is_okay, err.note)))
            loop.call_soon(lambda: None)  # sim delivers by timer, not this
            assert loop.run_until(lambda: len(replies) == 2, timeout=5)
        # Stripped before the IDL check (an undeclared atom is BAD_ARGS)
        # and before the handler, which saw exactly its own argument.
        assert replies == [(True, ""), (True, "")]
        assert sorted(target.received, key=str) == [traced, plain]
        assert rows(obs.tracer, traced) == [
            (1, None, "xrl-send", "client", "learn"),
            (2, 1, "xrl-recv", "learner", "learn")]
        assert ctx.spans[1].ts >= ctx.spans[0].ts
        assert obs.metrics.get("obs.xrl.sends").value == 2
        assert obs.metrics.get("obs.xrl.traced_frames").value == 1
        assert obs.metrics.get("obs.eventloop.dispatch_latency").count > 0

    def test_a_frame_already_carrying_a_context_is_not_stamped_again(
            self, pair):
        loop, client, target = pair
        traced = IPNet.parse("10.0.0.0/8")
        obs = Observability()
        obs.trace(traced)
        replies = []
        xrl = learn(traced)
        xrl.args.add_txt(TRACE_ARG, "1:7")  # a retry re-sends the stamped XRL
        with obs:
            client.send(xrl, lambda err, args: replies.append(err.is_okay))
            assert loop.run_until(lambda: replies, timeout=5)
        assert replies == [True]
        assert rows(obs.tracer, traced) == [
            (1, 7, "xrl-recv", "learner", "learn")]
        assert obs.metrics.get("obs.xrl.traced_frames").value == 0

    def test_metrics_stand_still_once_disarmed(self, pair):
        loop, client, target = pair
        obs = Observability()
        with obs:
            client.send(learn(IPNet.parse("10.0.0.0/8")))
            loop.run()
        sends = obs.metrics.get("obs.xrl.sends").value
        latency = obs.metrics.get("obs.eventloop.dispatch_latency").count
        client.send(learn(IPNet.parse("20.0.0.0/8")))
        loop.run()
        assert len(target.received) == 2
        assert obs.metrics.get("obs.xrl.sends").value == sends == 1
        assert obs.metrics.get(
            "obs.eventloop.dispatch_latency").count == latency
