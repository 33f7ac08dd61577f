"""Tests for the simulated network: links, forwarding, baseline routers."""

from repro.bgp.attributes import ASPath, PathAttributeList
from repro.bgp.fsm import BgpState
from repro.bgp.messages import UpdateMessage
from repro.net import IPNet, IPv4
from repro.simnet import (
    EventDrivenRouterModel,
    ScannerRouterModel,
    SimNetwork,
)
from repro.simnet.baselines import Speaker
from repro.fea.fib import FibEntry


def net(text):
    return IPNet.parse(text)


class TestTopology:
    def test_link_creates_interfaces_and_connected_routes(self):
        network = SimNetwork()
        a = network.add_router("a")
        b = network.add_router("b")
        network.link(a, "10.0.0.1", b, "10.0.0.2", prefix_len=24)
        assert a.fea.ifmgr.get("eth0").addr == IPv4("10.0.0.1")
        assert b.fea.ifmgr.get("eth0").addr == IPv4("10.0.0.2")
        # Connected routes land in the FIB through the RIB pipeline.
        assert network.run_until(
            lambda: a.fea.fib4.lookup(IPv4("10.0.0.2")) is not None,
            timeout=10)

    def test_datagram_delivery_with_latency(self):
        network = SimNetwork()
        a = network.add_router("a")
        b = network.add_router("b")
        network.link(a, "10.0.0.1", b, "10.0.0.2", delay=0.5)
        received = []
        b.packet_io.bind(lambda ifname, src, port, payload:
                         received.append((ifname, str(src), payload)))
        start = network.loop.now()
        a.packet_io.send("eth0", IPv4("10.0.0.1"), IPv4("10.0.0.2"), 99,
                         b"hello")
        assert network.run_until(lambda: bool(received), timeout=5)
        assert received == [("eth0", "10.0.0.1", b"hello")]
        assert network.loop.now() - start >= 0.5

    def test_link_down_drops(self):
        network = SimNetwork()
        a = network.add_router("a")
        b = network.add_router("b")
        link = network.link(a, "10.0.0.1", b, "10.0.0.2")
        received = []
        b.packet_io.bind(lambda *args: received.append(args))
        link.set_up(False)
        a.packet_io.send("eth0", IPv4("10.0.0.1"), IPv4("10.0.0.2"), 9, b"x")
        network.run(duration=2)
        assert received == []


class TestForwarding:
    def _chain(self):
        """a -- b -- c with static FIB entries for an end-to-end path."""
        network = SimNetwork()
        a, b, c = (network.add_router(n) for n in "abc")
        network.link(a, "10.0.0.1", b, "10.0.0.2", prefix_len=24)
        network.link(b, "10.0.1.1", c, "10.0.1.2", prefix_len=24)
        network.run(duration=1)  # connected routes settle
        # Route towards c's far address through b.
        a.fea.fib4.insert(FibEntry(net("10.0.1.0/24"), IPv4("10.0.0.2"), "eth0"))
        return network, a, b, c

    def test_multihop_delivery(self):
        network, a, b, c = self._chain()
        network.send_packet(a, IPv4("10.0.0.1"), IPv4("10.0.1.2"), 7, b"ping")
        assert network.run_until(lambda: bool(network.delivered), timeout=10)
        name, dst, port, payload = network.delivered[0]
        assert name == "c" and payload == b"ping"

    def test_no_route_drops(self):
        network, a, b, c = self._chain()
        network.send_packet(a, IPv4("10.0.0.1"), IPv4("99.9.9.9"), 7, b"x")
        network.run(duration=2)
        assert network.dropped >= 1
        assert not network.delivered

    def test_ttl_expiry(self):
        network, a, b, c = self._chain()
        network.send_packet(a, IPv4("10.0.0.1"), IPv4("10.0.1.2"), 7, b"x",
                            ttl=1)
        network.run(duration=2)
        assert not network.delivered
        assert network.dropped >= 1


def wire_model_pair(loop, left, right, latency=0.001):
    """Connect two baseline-model peers with a session pair."""
    from repro.bgp.session import session_pair

    s1, s2 = session_pair(loop, latency)
    left.attach_session(s1)
    right.attach_session(s2)


def make_update(prefix):
    attrs = PathAttributeList(as_path=ASPath.from_sequence(65001),
                              nexthop=IPv4("10.0.0.1"))
    return UpdateMessage(attributes=attrs, nlri=[net(prefix)])


class SinkPeer:
    """Records update arrival times at the far side of a model router."""

    def __init__(self, loop, local_as, peer_as):
        self.router = Speaker(loop, "sink", local_as, "9.9.9.9")
        self.arrivals = self.router.arrivals
        self.peer = self.router.add_peer("in", peer_as)

    def start(self):
        self.router.start()


class TestBaselineModels:
    def _run_experiment(self, model, loop, inject_count=5, spacing=1.0):
        """Feed routes at 1/s through the model; measure arrival delay."""
        source = EventDrivenRouterModel(loop, "src", 65001, "1.1.1.1",
                                        processing_delay=0.0)
        sink = SinkPeer(loop, 65003, model.local_as)
        src_peer = source.add_peer("out", model.local_as)
        model_in = model.add_peer("in", 65001)
        model_out = model.add_peer("out", 65003)
        wire_model_pair(loop, src_peer, model_in)
        wire_model_pair(loop, model_out, sink.peer)
        source.start()
        model.start()
        sink.start()
        assert loop.run_until(
            lambda: all(p.fsm.state == BgpState.ESTABLISHED
                        for p in [src_peer, model_in, model_out, sink.peer]),
            timeout=60)
        inject_times = []
        for i in range(inject_count):
            when = loop.now() + (i + 1) * spacing
            inject_times.append(when)
            loop.call_at(when, lambda i=i: source.update_from_peer(
                None, make_update(f"99.{i}.0.0/16")))
        assert loop.run_until(
            lambda: len(sink.arrivals) >= inject_count, timeout=300)
        delays = []
        for when, (arrival, prefix) in zip(inject_times, sink.arrivals):
            delays.append(arrival - when)
        return delays

    def test_event_driven_model_is_fast(self):
        from repro.eventloop import EventLoop, SimulatedClock

        loop = EventLoop(SimulatedClock())
        model = EventDrivenRouterModel(loop, "mrtd", 65002, "2.2.2.2")
        delays = self._run_experiment(model, loop)
        assert all(d < 1.0 for d in delays), delays

    def test_scanner_model_shows_batching(self):
        from repro.eventloop import EventLoop, SimulatedClock

        loop = EventLoop(SimulatedClock())
        model = ScannerRouterModel(loop, "cisco", 65002, "2.2.2.2",
                                   scan_interval=30.0)
        delays = self._run_experiment(model, loop, inject_count=8)
        assert max(d for d in delays) > 5.0  # scanner latency visible
        assert any(d > 20.0 for d in delays)  # sawtooth reaches near 30s

    def test_scanner_batches_together(self):
        """Routes injected over 30s arrive in one batch."""
        from repro.eventloop import EventLoop, SimulatedClock

        loop = EventLoop(SimulatedClock())
        model = ScannerRouterModel(loop, "cisco", 65002, "2.2.2.2",
                                   scan_interval=30.0)
        source = EventDrivenRouterModel(loop, "src", 65001, "1.1.1.1",
                                        processing_delay=0.0)
        sink = SinkPeer(loop, 65003, 65002)
        src_peer = source.add_peer("out", 65002)
        model_in = model.add_peer("in", 65001)
        model_out = model.add_peer("out", 65003)
        wire_model_pair(loop, src_peer, model_in)
        wire_model_pair(loop, model_out, sink.peer)
        source.start()
        model.start()
        sink.start()
        assert loop.run_until(
            lambda: model_in.fsm.state == BgpState.ESTABLISHED
            and model_out.fsm.state == BgpState.ESTABLISHED
            and sink.peer.fsm.state == BgpState.ESTABLISHED
            and src_peer.fsm.state == BgpState.ESTABLISHED, timeout=60)
        for i in range(10):
            loop.call_at(loop.now() + i,
                         lambda i=i: source.update_from_peer(
                             None, make_update(f"99.{i}.0.0/16")))
        assert loop.run_until(lambda: len(sink.arrivals) >= 10, timeout=120)
        arrival_times = [t for t, __ in sink.arrivals]
        assert max(arrival_times) - min(arrival_times) < 2.0  # one batch
