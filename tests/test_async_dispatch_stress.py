"""Stress tests: out-of-order deferred replies over TCP; peer-down during
another peer's background table dump."""

import pytest

from repro.bgp import BgpProcess, BgpState
from repro.bgp.peer import PeerConfig
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock, SystemClock
from repro.net import IPNet, IPv4
from repro.xrl import Finder, Xrl, XrlArgs, XrlRouter, parse_idl
from repro.xrl.router import DeferredReply
from repro.xrl.transport import TcpFamily


class TestDeferredOverTcp:
    def test_out_of_order_replies_matched_by_sequence(self):
        """A deferred first request answered after a fast second request."""
        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        parked = []

        def slow_handler(args):
            deferred = DeferredReply()
            parked.append((deferred, args.get_u32("value")))
            return deferred

        def fast_handler(args):
            from repro.xrl import XrlArgs as Args

            return Args().add_u32("value", args.get_u32("value"))

        server.register_raw_method("svc/1.0/slow", slow_handler)
        server.register_raw_method("svc/1.0/fast", fast_handler)
        client = XrlRouter(loop, "cli", finder, families=[family])
        results = []
        client.send(Xrl("svc", "svc", "1.0", "slow",
                        XrlArgs().add_u32("value", 1)),
                    lambda err, args: results.append(("slow", err.is_okay,
                                                      args.get_u32("value")
                                                      if err.is_okay else None)))
        client.send(Xrl("svc", "svc", "1.0", "fast",
                        XrlArgs().add_u32("value", 2)),
                    lambda err, args: results.append(("fast", err.is_okay,
                                                      args.get_u32("value")
                                                      if err.is_okay else None)))
        # The fast reply arrives while the slow one is parked.
        assert loop.run_until(lambda: len(results) == 1 and parked, timeout=10)
        assert results[0] == ("fast", True, 2)
        deferred, value = parked[0]
        deferred.reply(XrlArgs().add_u32("value", value + 100))
        assert loop.run_until(lambda: len(results) == 2, timeout=10)
        assert results[1] == ("slow", True, 101)

    def test_many_interleaved_deferrals(self):
        loop = EventLoop(SystemClock())
        finder = Finder()
        family = TcpFamily()
        server = XrlRouter(loop, "svc", finder, families=[family])
        parked = []

        def handler(args):
            deferred = DeferredReply()
            parked.append((deferred, args.get_u32("value")))
            return deferred

        server.register_raw_method("svc/1.0/echo", handler)
        client = XrlRouter(loop, "cli", finder, families=[family])
        results = {}
        for i in range(20):
            client.send(Xrl("svc", "svc", "1.0", "echo",
                            XrlArgs().add_u32("value", i)),
                        lambda err, args, i=i: results.__setitem__(
                            i, args.get_u32("value")))
        assert loop.run_until(lambda: len(parked) == 20, timeout=10)
        # Answer in reverse order: seq matching must pair them correctly.
        for deferred, value in reversed(parked):
            deferred.reply(XrlArgs().add_u32("value", value * 10))
        assert loop.run_until(lambda: len(results) == 20, timeout=10)
        assert all(results[i] == i * 10 for i in range(20))


class TestDumpDuringPeerFailure:
    @pytest.mark.usefixtures("runtime_sanitizers")
    def test_peer_down_mid_dump_stays_consistent(self):
        """Peer A's table is being dumped to late peer C when A dies.

        The deletion stage's withdrawals race the dump; C must end with
        exactly B's surviving routes and a rule-consistent stream on
        every stage edge (the armed sanitizer asserts that at teardown).
        """
        loop = EventLoop(SimulatedClock())

        def build(name, asn, router_id):
            host = Host(loop=loop)
            return BgpProcess(host, local_as=asn, bgp_id=IPv4(router_id),
                              rib_target=None)

        hub = build("hub", 65000, "9.9.9.9")
        feeder_a = build("a", 65001, "1.1.1.1")
        feeder_b = build("b", 65002, "2.2.2.2")
        late_c = build("c", 65003, "3.3.3.3")

        def connect(left, right, addr_l, addr_r):
            s1, s2 = session_pair(loop, 0.001)
            peer_l = left.add_peer(PeerConfig(
                IPv4(addr_r), right.local_as, left.local_as, IPv4(addr_l)))
            peer_r = right.add_peer(PeerConfig(
                IPv4(addr_l), left.local_as, right.local_as, IPv4(addr_r)))
            peer_l.attach_session(s1)
            peer_r.attach_session(s2)
            peer_l.enable()
            peer_r.enable()
            return peer_l, peer_r

        hub_a, a_hub = connect(hub, feeder_a, "10.0.1.9", "10.0.1.1")
        hub_b, b_hub = connect(hub, feeder_b, "10.0.2.9", "10.0.2.2")
        assert loop.run_until(
            lambda: all(p.fsm.state == BgpState.ESTABLISHED
                        for p in (hub_a, a_hub, hub_b, b_hub)), timeout=60)
        # A and B each feed 120 routes (disjoint prefixes).
        for i in range(120):
            feeder_a.xrl_originate_route4(
                IPNet.parse(f"99.{i}.0.0/16"), IPv4("10.0.1.1"), True)
            feeder_b.xrl_originate_route4(
                IPNet.parse(f"123.{i}.0.0/16"), IPv4("10.0.2.2"), True)
        assert loop.run_until(lambda: hub.decision.route_count == 240,
                              timeout=120)
        # C connects; the background dump to C begins.
        hub_c, c_hub = connect(hub, late_c, "10.0.3.9", "10.0.3.3")
        assert loop.run_until(
            lambda: hub_c.fsm.state == BgpState.ESTABLISHED
            and late_c.decision.route_count > 0, timeout=60)
        # Mid-dump, feeder A's session dies.
        hub_a.disable()
        assert loop.run_until(lambda: hub.decision.route_count == 120,
                              timeout=240)
        assert loop.run_until(lambda: late_c.decision.route_count == 120,
                              timeout=240)
        survivors = {str(net) for net in late_c.decision.winners}
        assert survivors == {f"123.{i}.0.0/16" for i in range(120)}
