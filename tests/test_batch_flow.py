"""Batched route flow & XRL pipelining: the batch contract, end to end.

A batch is semantically identical to its singular decomposition, in
order.  These tests pin that contract at every layer it touches:

* staged tables — any interleaving of ``add_routes``/``delete_routes``
  through the RIB pipeline yields the same final table and the same FEA
  redistribution stream as the singular interleaving (property test);
* the stage-graph sanitizer — SAN verdicts are identical batched or
  unbatched, for clean flows and seeded violations alike;
* the XRL layer — ``send(batch=True)`` coalesces same-sender calls in
  one event-loop turn into a single wire transmission with unchanged
  per-call semantics, across transports;
* the unified ``send``/``send_sync`` keyword surface and the
  ``timeout=`` deprecation shim.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stages import OriginStage, RouteTableStage
from repro.core.txqueue import XrlTransmitQueue
from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.net import IPNet, IPv4
from repro.rib.rib import _Pipeline
from repro.rib.route import RibRoute
from repro.sanitizer import StageSanitizer
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter, parse_idl
from repro.xrl.transport import IntraProcessFamily, TcpFamily

# ---------------------------------------------------------------------------
# staged tables: batched == singular, through the full RIB pipeline


PREFIXES = [f"10.{i}.0.0/16" for i in range(6)]
PROTOCOLS = ["rip", "ebgp"]


def net(text):
    return IPNet.parse(text)


def make_route(prefix, protocol, metric=1):
    return RibRoute(net(prefix), IPv4("192.168.0.1"), metric, protocol)


class _StreamLog:
    """Collects the FEA-bound emission stream of one pipeline."""

    def __init__(self):
        self.events = []

    def emit(self, op, routes):
        # How the stream was batched only affects wire coalescing, never
        # semantics: flatten it out of the comparison key on purpose.
        self.events.extend((op, str(route.net), route.protocol, route.metric)
                           for route in routes)


def build_pipeline():
    log = _StreamLog()
    pipe = _Pipeline(32, "", log.emit, invalidate_cb=lambda *a: None)
    for protocol in PROTOCOLS:
        pipe.add_origin(protocol, external=(protocol == "ebgp"))
    return pipe, log


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete"]),
        st.integers(min_value=0, max_value=len(PREFIXES) - 1),
        st.sampled_from(PROTOCOLS),
        st.integers(min_value=1, max_value=3),  # metric
    ),
    max_size=24,
)


def apply_singular(pipe, ops):
    for op, prefix_idx, protocol, metric in ops:
        origin = pipe.origin(protocol)
        if op == "add":
            origin.originate(make_route(PREFIXES[prefix_idx], protocol,
                                        metric))
        else:
            origin.withdraw_if_present(net(PREFIXES[prefix_idx]))


def apply_batched(pipe, ops):
    """Group maximal same-(op, protocol) runs into batch entry points."""
    run = []

    def flush():
        if not run:
            return
        op, protocol = run[0][0], run[0][2]
        origin = pipe.origin(protocol)
        if op == "add":
            origin.originate_batch(
                [make_route(PREFIXES[i], protocol, m)
                 for __, i, __p, m in run])
        else:
            origin.withdraw_batch([net(PREFIXES[i]) for __, i, __p, __m
                                   in run])
        run.clear()

    for entry in ops:
        if run and (entry[0] != run[0][0] or entry[2] != run[0][2]):
            flush()
        run.append(entry)
    flush()


def final_table(pipe):
    table = {}
    for prefix in PREFIXES:
        winner = pipe.extint.lookup_route(net(prefix))
        if winner is not None:
            table[prefix] = (str(winner.net), winner.protocol, winner.metric)
    return table


class TestBatchSingularEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops_strategy)
    def test_same_fea_stream_and_final_rib(self, ops):
        pipe_s, log_s = build_pipeline()
        apply_singular(pipe_s, ops)
        pipe_b, log_b = build_pipeline()
        apply_batched(pipe_b, ops)
        assert log_b.events == log_s.events
        assert final_table(pipe_b) == final_table(pipe_s)

    @settings(max_examples=30, deadline=None)
    @given(ops_strategy)
    def test_batched_flow_is_sanitizer_clean(self, ops):
        with StageSanitizer() as san:
            pipe, __ = build_pipeline()
            apply_batched(pipe, ops)
        rendered = "\n".join(v.render() for v in san.violations)
        assert not san.violations, rendered


# ---------------------------------------------------------------------------
# sanitizer: batched and unbatched flows produce identical SAN verdicts


class SinkStage(RouteTableStage):
    def __init__(self):
        super().__init__("sink")


def verdicts(drive):
    with StageSanitizer() as san:
        drive()
    return sorted((v.rule, v.context.get("net", "")) for v in san.violations)


class TestSanitizerBatchEquivalence:
    def test_clean_batch_no_violations(self):
        def batched():
            origin = OriginStage("o")
            origin.set_next(SinkStage())
            origin.originate_batch(
                [make_route(p, "rip") for p in PREFIXES])
            origin.withdraw_batch([net(p) for p in PREFIXES])

        assert verdicts(batched) == []

    def test_double_add_batch_matches_singular_san001(self):
        route = make_route(PREFIXES[0], "rip")

        def singular():
            sink = SinkStage()
            sink.add_route(route, caller=None)
            sink.add_route(route, caller=None)

        def batched():
            sink = SinkStage()
            sink.add_routes([route, route], caller=None)

        expected = verdicts(singular)
        assert expected and expected[0][0] == "SAN001"
        assert verdicts(batched) == expected

    def test_delete_without_add_batch_matches_singular_san002(self):
        route = make_route(PREFIXES[1], "rip")

        def singular():
            SinkStage().delete_route(route, caller=None)

        def batched():
            SinkStage().delete_routes([route], caller=None)

        expected = verdicts(singular)
        assert expected and expected[0][0] == "SAN002"
        assert verdicts(batched) == expected

    def test_seeded_interleavings_same_verdicts(self):
        rng = random.Random(20240806)
        for __ in range(10):
            script = [(rng.choice(["add", "delete"]),
                       rng.randrange(len(PREFIXES)))
                      for __ in range(12)]
            routes = {p: make_route(p, "rip") for p in PREFIXES}

            def singular():
                sink = SinkStage()
                for op, i in script:
                    r = routes[PREFIXES[i]]
                    if op == "add":
                        sink.add_route(r, caller=None)
                    else:
                        sink.delete_route(r, caller=None)

            def batched():
                sink = SinkStage()
                run = []
                def flush():
                    if not run:
                        return
                    rs = [routes[PREFIXES[i]] for __, i in run]
                    if run[0][0] == "add":
                        sink.add_routes(rs, caller=None)
                    else:
                        sink.delete_routes(rs, caller=None)
                    run.clear()
                for entry in script:
                    if run and entry[0] != run[0][0]:
                        flush()
                    run.append(entry)
                flush()

            assert verdicts(batched) == verdicts(singular)


# ---------------------------------------------------------------------------
# XRL layer: per-turn coalescing with unchanged per-call semantics


TEST_IDL = """
interface test/1.0 {
    echo ? value:u32 -> value:u32;
}
"""


class EchoTarget:
    def xrl_echo(self, value):
        return {"value": value}


def build_pair(family_factory, clock=None, shared_process=False):
    loop = EventLoop(clock or SimulatedClock())
    finder = Finder(rng=random.Random(7))
    family = family_factory()
    iface = parse_idl(TEST_IDL)["test/1.0"]
    token = 999 if shared_process else None
    server = XrlRouter(loop, "echo", finder, families=[family],
                       process_token=token)
    server.bind(iface, EchoTarget())
    client = XrlRouter(loop, "client", finder, families=[family],
                       process_token=token)
    return loop, server, client


def echo_xrl(value):
    return Xrl("echo", "test", "1.0", "echo", XrlArgs().add_u32("value",
                                                               value))


XRL_FAMILIES = [
    ("intra", lambda: IntraProcessFamily(), None, True),
    ("tcp", lambda: TcpFamily(), SystemClock(), False),
]


@pytest.mark.parametrize("name,factory,clock,shared", XRL_FAMILIES,
                         ids=[f[0] for f in XRL_FAMILIES])
class TestXrlBatchHint:
    def test_batched_sends_complete_in_order(self, name, factory, clock,
                                             shared):
        loop, __, client = build_pair(factory, clock, shared)
        replies = []
        for value in range(8):
            client.send(echo_xrl(value),
                        lambda e, a: replies.append((e.is_okay,
                                                     a.get_u32("value"))),
                        batch=True)
        assert loop.run_until(lambda: len(replies) == 8, timeout=5)
        assert replies == [(True, v) for v in range(8)]
        assert client.batches_sent == 1

    def test_batch_and_singular_interleave(self, name, factory, clock,
                                           shared):
        loop, __, client = build_pair(factory, clock, shared)
        replies = []
        client.send(echo_xrl(1), lambda e, a: replies.append(
            a.get_u32("value")))
        client.send(echo_xrl(2), lambda e, a: replies.append(
            a.get_u32("value")), batch=True)
        client.send(echo_xrl(3), lambda e, a: replies.append(
            a.get_u32("value")), batch=True)
        assert loop.run_until(lambda: len(replies) == 3, timeout=5)
        assert sorted(replies) == [1, 2, 3]

    def test_single_hinted_call_skips_call_batch(self, name, factory, clock,
                                                 shared):
        loop, __, client = build_pair(factory, clock, shared)
        replies = []
        client.send(echo_xrl(7), lambda e, a: replies.append(
            a.get_u32("value")), batch=True)
        assert loop.run_until(lambda: len(replies) == 1, timeout=5)
        assert replies == [7]
        assert client.batches_sent == 0


ORDER_IDL = """
interface order/1.0 {
    put  ? value:u32;
    take ? value:u32;
}
"""


class TestXrlSendOrder:
    """One router's sends to one target arrive in send order, whatever
    mix of methods and batch hints they carry: a vector XRL (hinted,
    deferred to the turn's flush) followed by a lone singular one
    (unhinted) is the BGP→RIB stream's everyday shape."""

    def _pair(self):
        loop = EventLoop(SimulatedClock())
        finder = Finder(rng=random.Random(7))
        family = IntraProcessFamily()
        arrived = []

        class Target:
            def xrl_put(self, value):
                arrived.append(("put", value))

            def xrl_take(self, value):
                arrived.append(("take", value))

        server = XrlRouter(loop, "store", finder, families=[family],
                           process_token=999)
        server.bind(parse_idl(ORDER_IDL)["order/1.0"], Target())
        client = XrlRouter(loop, "client", finder, families=[family],
                           process_token=999)
        return loop, client, arrived

    @staticmethod
    def _xrl(method, value):
        return Xrl("store", "order", "1.0", method,
                   XrlArgs().add_u32("value", value))

    def test_plain_send_does_not_overtake_a_hinted_one(self):
        loop, client, arrived = self._pair()
        client.send(self._xrl("put", 1), batch=True)
        client.send(self._xrl("take", 2))            # joins the flush
        loop.run()
        assert arrived == [("put", 1), ("take", 2)]

    def test_flush_keeps_order_across_methods(self):
        loop, client, arrived = self._pair()
        script = [("put", 1, True), ("put", 2, True), ("take", 3, False),
                  ("put", 4, True), ("take", 5, True), ("take", 6, True),
                  ("put", 7, False)]
        for method, value, hint in script:
            client.send(self._xrl(method, value), batch=hint)
        loop.run()
        assert arrived == [(method, value) for method, value, __ in script]
        # One sender carries both methods, so the turn is one transmission.
        assert client.batches_sent == 1

    def test_plain_send_with_nothing_pending_is_immediate(self):
        loop, client, arrived = self._pair()
        client.send(self._xrl("put", 1))
        assert not client._batch_pending
        loop.run_once(block=False)
        assert arrived == [("put", 1)]


class TestXrlBatchFailure:
    def test_batch_to_dead_target_fails_each_call(self):
        loop, server, client = build_pair(lambda: IntraProcessFamily(),
                                          shared_process=True)
        errors = []
        # Prime the resolution cache, then kill the server so the batch
        # flush hits a broken sender and falls back to the singular path.
        error, __ = client.send_sync(echo_xrl(0), deadline=5)
        assert error.is_okay
        server.shutdown()
        for value in range(3):
            client.send(echo_xrl(value), lambda e, a: errors.append(e),
                        batch=True, deadline=2)
        assert loop.run_until(lambda: len(errors) == 3, timeout=5)
        assert all(not e.is_okay for e in errors)

    def test_shutdown_with_pending_batch(self):
        loop, __, client = build_pair(lambda: IntraProcessFamily(),
                                      shared_process=True)
        errors = []
        client.send(echo_xrl(1), lambda e, a: errors.append(e), batch=True)
        client.shutdown()
        assert loop.run_until(lambda: len(errors) == 1, timeout=5)
        assert not errors[0].is_okay


class TestTxQueueBatch:
    def test_enqueue_batch_drains_and_coalesces(self):
        loop, __, client = build_pair(lambda: IntraProcessFamily(),
                                      shared_process=True)
        txq = XrlTransmitQueue(client, window=100)
        replies = []
        txq.enqueue_batch([
            (echo_xrl(v), None, lambda e, a: replies.append(e.is_okay))
            for v in range(6)
        ])
        assert loop.run_until(lambda: len(replies) == 6, timeout=5)
        assert all(replies)
        assert txq.idle
        assert client.batches_sent == 1

    def test_enqueue_batch_hint_passthrough(self):
        loop, __, client = build_pair(lambda: IntraProcessFamily(),
                                      shared_process=True)
        txq = XrlTransmitQueue(client, window=100)
        done = []
        for v in range(4):
            txq.enqueue(echo_xrl(v),
                        on_reply=lambda e, a: done.append(e.is_okay),
                        batch=True)
        assert loop.run_until(lambda: len(done) == 4, timeout=5)
        assert all(done)
        assert client.batches_sent == 1


# ---------------------------------------------------------------------------
# unified send/send_sync surface


class TestSendSyncSurface:
    def test_deadline_keyword(self):
        __, __, client = build_pair(lambda: IntraProcessFamily(),
                                    shared_process=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing deprecated fires
            error, args = client.send_sync(echo_xrl(5), deadline=10)
        assert error.is_okay
        assert args.get_u32("value") == 5

    def test_removed_timeout_keyword_rejected(self):
        __, __, client = build_pair(lambda: IntraProcessFamily(),
                                    shared_process=True)
        with pytest.raises(TypeError):
            client.send_sync(echo_xrl(6), timeout=10)

    def test_positional_deadline_rejected(self):
        # deadline/retry/batch are keyword-only, matching send().
        __, __, client = build_pair(lambda: IntraProcessFamily(),
                                    shared_process=True)
        with pytest.raises(TypeError):
            client.send_sync(echo_xrl(8), 10)

    def test_send_sync_accepts_batch_hint(self):
        __, __, client = build_pair(lambda: IntraProcessFamily(),
                                    shared_process=True)
        error, args = client.send_sync(echo_xrl(4), deadline=10, batch=True)
        assert error.is_okay
        assert args.get_u32("value") == 4


# ---------------------------------------------------------------------------
# the vectorized FEA interface: add_entries4/delete_entries4 == N singular


class TestVectorizedFeaDistribution:
    """A batched RIB flush reaches the FEA as vectorized XRLs whose
    effect — FIB contents and every profiling stream — is identical to
    the singular per-route XRLs, in order."""

    PROFILE_POINTS = ("route_queued_fea", "route_sent_fea",
                      "route_arrive_fea", "route_kernel")

    def _run(self, batched, route_count=40, batch_limit=None, family=32):
        from repro.core.process import Host
        from repro.fea import FeaProcess
        from repro.net import IPv6
        from repro.rib import RibProcess

        loop = EventLoop(SystemClock())
        host = Host(loop=loop)
        fea = FeaProcess(host)
        rib = RibProcess(host)
        if batch_limit is not None:
            rib.FEA_BATCH_LIMIT = batch_limit
        for name in ("route_queued_fea", "route_sent_fea"):
            rib.profiler.enable(name)
        for name in ("route_arrive_fea", "route_kernel"):
            fea.profiler.enable(name)
        if family == 32:
            origin = rib.v4.origin("static")
            fea_fib = fea.fib4
            routes = [
                RibRoute(IPNet(IPv4(0x0A000000 + (i << 8)), 24),
                         IPv4("10.0.0.1"), 1, "static", ifname="eth0")
                for i in range(route_count)
            ]
        else:
            origin = rib.v6.origin("static")
            fea_fib = fea.fib6
            routes = [
                RibRoute(IPNet.parse(f"2001:db8:{i:x}::/48"),
                         IPv6("2001:db8::1"), 1, "static", ifname="eth0")
                for i in range(route_count)
            ]
        if batched:
            origin.originate_batch(routes)
        else:
            for route in routes:
                origin.originate(route)
        assert loop.run_until(
            lambda: len(fea_fib) == route_count and rib.txq.idle,
            timeout=30.0)
        fib = sorted((str(n), str(e.nexthop), e.ifname)
                     for n, e in fea_fib.entries())
        nets = [route.net for route in routes]
        if batched:
            origin.withdraw_batch(nets)
        else:
            for n in nets:
                origin.withdraw(n)
        assert loop.run_until(
            lambda: len(fea_fib) == 0 and rib.txq.idle, timeout=30.0)
        streams = {}
        for name in ("route_queued_fea", "route_sent_fea"):
            streams[name] = [data for __, data in
                             rib.profiler.var(name).entries]
        for name in ("route_arrive_fea", "route_kernel"):
            streams[name] = [data for __, data in
                             fea.profiler.var(name).entries]
        xrl_count = rib.txq.sent_count
        rib.shutdown()
        fea.shutdown()
        host.shutdown()
        return fib, streams, xrl_count

    def test_batched_equals_singular(self):
        fib_b, streams_b, xrls_b = self._run(batched=True)
        fib_s, streams_s, xrls_s = self._run(batched=False)
        assert fib_b == fib_s
        for name in self.PROFILE_POINTS:
            assert streams_b[name] == streams_s[name], name
        # The whole point: 40 adds + 40 deletes in 2 XRLs, not 80.
        assert xrls_s == 80
        assert xrls_b == 2

    def test_segments_respect_batch_limit(self):
        __, __, xrls = self._run(batched=True, route_count=20,
                                 batch_limit=8)
        # 20 adds -> segments of 8+8+4, 20 deletes likewise.
        assert xrls == 6

    def test_v6_batched_equals_singular(self):
        """The v6 vectorized path has full parity: same FIB, same
        profiling streams, same 40x coalescing as v4."""
        fib_b, streams_b, xrls_b = self._run(batched=True, family=128)
        fib_s, streams_s, xrls_s = self._run(batched=False, family=128)
        assert fib_b == fib_s
        for name in self.PROFILE_POINTS:
            assert streams_b[name] == streams_s[name], name
        assert xrls_s == 80
        assert xrls_b == 2

    def test_v6_segments_respect_batch_limit(self):
        __, __, xrls = self._run(batched=True, route_count=20,
                                 batch_limit=8, family=128)
        assert xrls == 6

    def test_single_route_batch_falls_back_to_singular_xrl(self):
        fib_b, streams_b, __ = self._run(batched=True, route_count=1)
        fib_s, streams_s, __ = self._run(batched=False, route_count=1)
        assert fib_b == fib_s
        for name in self.PROFILE_POINTS:
            assert streams_b[name] == streams_s[name], name

    def test_resync_fea_replays_table_vectorized(self):
        from repro.core.process import Host
        from repro.fea import FeaProcess
        from repro.rib import RibProcess

        loop = EventLoop(SystemClock())
        host = Host(loop=loop)
        fea = FeaProcess(host)
        rib = RibProcess(host)
        origin = rib.v4.origin("static")
        routes = [
            RibRoute(IPNet(IPv4(0x0A000000 + (i << 8)), 24),
                     IPv4("10.0.0.1"), 1, "static", ifname="eth0")
            for i in range(30)
        ]
        origin.originate_batch(routes)
        assert loop.run_until(
            lambda: len(fea.fib4) == 30 and rib.txq.idle, timeout=30.0)
        before = rib.txq.sent_count
        fea.fib4.clear()
        rib.resync_fea()
        assert loop.run_until(
            lambda: len(fea.fib4) == 30 and rib.txq.idle, timeout=30.0)
        # The whole-table replay is one vectorized XRL, not 30.
        assert rib.txq.sent_count == before + 1
        rib.shutdown()
        fea.shutdown()
        host.shutdown()
