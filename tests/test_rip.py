"""RIP tests: packet codec, protocol behaviour over the simulated network."""

import pytest

from repro.net import IPNet, IPv4
from repro.rip import RipEntry, RipPacket, RipPacketError, RipProcess
from repro.rip.packets import (
    RIP_COMMAND_REQUEST,
    RIP_COMMAND_RESPONSE,
    RIP_INFINITY,
)
from repro.simnet import SimNetwork
from repro.xrl import Xrl, XrlArgs


def net(text):
    return IPNet.parse(text)


class TestPacketCodec:
    def test_entry_round_trip(self):
        entry = RipEntry(net("10.1.0.0/16"), 3, tag=7, nexthop=IPv4("1.2.3.4"))
        assert RipEntry.decode(entry.encode(), 0) == entry

    def test_packet_round_trip(self):
        packet = RipPacket(RIP_COMMAND_RESPONSE,
                           [RipEntry(net("10.0.0.0/8"), 1),
                            RipEntry(net("11.0.0.0/8"), 2)])
        decoded = RipPacket.decode(packet.encode())
        assert decoded.command == RIP_COMMAND_RESPONSE
        assert decoded.entries == packet.entries

    def test_whole_table_request(self):
        packet = RipPacket.whole_table_request()
        decoded = RipPacket.decode(packet.encode())
        assert decoded.command == RIP_COMMAND_REQUEST
        assert decoded.entries[0].is_whole_table_request()

    def test_auth_round_trip(self):
        packet = RipPacket(RIP_COMMAND_RESPONSE,
                           [RipEntry(net("10.0.0.0/8"), 1)],
                           auth_password="s3cret")
        decoded = RipPacket.decode(packet.encode())
        assert decoded.auth_password == "s3cret"
        assert len(decoded.entries) == 1

    def test_max_entries_enforced(self):
        entries = [RipEntry(net(f"10.{i}.0.0/16"), 1) for i in range(26)]
        with pytest.raises(RipPacketError):
            RipPacket(RIP_COMMAND_RESPONSE, entries)

    def test_bad_metric_rejected(self):
        with pytest.raises(RipPacketError):
            RipEntry(net("10.0.0.0/8"), 17)

    def test_bad_length_rejected(self):
        with pytest.raises(RipPacketError):
            RipPacket.decode(b"\x02\x02\x00\x00\x01")

    def test_noncontiguous_mask_rejected(self):
        packet = RipPacket(RIP_COMMAND_RESPONSE, [RipEntry(net("10.0.0.0/8"), 1)])
        raw = bytearray(packet.encode())
        raw[12] = 0x0F  # corrupt the netmask
        with pytest.raises(RipPacketError):
            RipPacket.decode(bytes(raw))

    def test_bad_command_rejected(self):
        with pytest.raises(RipPacketError):
            RipPacket(9)


def build_rip_pair(update_interval=5.0, triggered_delay=0.5):
    """Two routers on one link, RIP enabled on both ends."""
    network = SimNetwork()
    a = network.add_router("a")
    b = network.add_router("b")
    network.link(a, "10.0.0.1", b, "10.0.0.2", prefix_len=24)
    rip_a = RipProcess(a.host, update_interval=update_interval,
                       route_timeout=4 * update_interval,
                       gc_timeout=2 * update_interval,
                       triggered_delay=triggered_delay)
    rip_b = RipProcess(b.host, update_interval=update_interval,
                       route_timeout=4 * update_interval,
                       gc_timeout=2 * update_interval,
                       triggered_delay=triggered_delay)
    enable_rip(rip_a, "eth0", "10.0.0.1")
    enable_rip(rip_b, "eth0", "10.0.0.2")
    return network, a, b, rip_a, rip_b


def enable_rip(rip, ifname, addr):
    args = XrlArgs().add_txt("ifname", ifname).add_ipv4("addr", addr)
    error, __ = rip.xrl.send_sync(
        Xrl("rip", "rip", "1.0", "add_rip_address", args), deadline=10)
    assert error.is_okay, error


class TestRipProtocol:
    def test_static_route_propagates(self):
        network, a, b, rip_a, rip_b = build_rip_pair()
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)
        entry = rip_b.routes.get(net("99.0.0.0/8"))
        assert entry.metric == 2  # 1 + interface cost
        assert entry.nexthop == IPv4("10.0.0.1")

    def test_route_lands_in_rib_and_fib(self):
        network, a, b, rip_a, rip_b = build_rip_pair()
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: b.fea.fib4.lookup(IPv4("99.1.1.1")) is not None,
            timeout=30)
        assert b.fea.fib4.lookup(IPv4("99.1.1.1")).nexthop == IPv4("10.0.0.1")

    def test_triggered_update_is_fast(self):
        """Event-driven: a new route must not wait for the periodic timer."""
        network, a, b, rip_a, rip_b = build_rip_pair(update_interval=30.0,
                                                     triggered_delay=0.5)
        network.run(duration=2)  # initial exchange settles
        start = network.loop.now()
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)
        assert network.loop.now() - start < 5.0  # well under 30s

    def test_route_timeout_and_gc(self):
        network, a, b, rip_a, rip_b = build_rip_pair(update_interval=2.0)
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)
        # Cut the link: B must time the route out (metric 16) then GC it.
        network.links[0].set_up(False)
        assert network.run_until(
            lambda: (rip_b.routes.get(net("99.0.0.0/8")) is None
                     or rip_b.routes.get(net("99.0.0.0/8")).metric
                     == RIP_INFINITY),
            timeout=60)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is None, timeout=60)
        # And the FIB entry must be gone.
        assert b.fea.fib4.lookup(IPv4("99.1.1.1")) is None

    def test_withdrawal_propagates_as_poison(self):
        network, a, b, rip_a, rip_b = build_rip_pair()
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)
        entry = rip_a.routes.get(net("99.0.0.0/8"))
        rip_a._start_deletion(entry)
        assert network.run_until(
            lambda: (rip_b.routes.get(net("99.0.0.0/8")) is None
                     or rip_b.routes.get(net("99.0.0.0/8")).metric
                     == RIP_INFINITY),
            timeout=30)

    def test_three_router_chain_metric_accumulates(self):
        network = SimNetwork()
        routers = [network.add_router(name) for name in "abc"]
        network.link(routers[0], "10.0.0.1", routers[1], "10.0.0.2")
        network.link(routers[1], "10.0.1.1", routers[2], "10.0.1.2")
        rips = []
        for router in routers:
            rip = RipProcess(router.host, update_interval=5.0,
                             triggered_delay=0.5)
            rips.append(rip)
        enable_rip(rips[0], "eth0", "10.0.0.1")
        enable_rip(rips[1], "eth0", "10.0.0.2")
        enable_rip(rips[1], "eth1", "10.0.1.1")
        enable_rip(rips[2], "eth0", "10.0.1.2")
        rips[0].xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rips[2].routes.get(net("99.0.0.0/8")) is not None,
            timeout=60)
        assert rips[2].routes.get(net("99.0.0.0/8")).metric == 3

    def test_split_horizon_poisoned_reverse(self):
        network, a, b, rip_a, rip_b = build_rip_pair()
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)
        # B advertises the route back to A only with metric 16, so A's own
        # entry must never be displaced by a learned one.
        network.run(duration=20)
        entry = rip_a.routes.get(net("99.0.0.0/8"))
        assert entry.is_local and entry.metric == 1

    def test_request_answered(self):
        network, a, b, rip_a, rip_b = build_rip_pair(update_interval=1000.0)
        rip_a.xrl_add_static_route(net("99.0.0.0/8"), IPv4("10.0.0.1"), 1)
        network.run(duration=1)
        # B joined before the route existed; a fresh C-style request works.
        rip_b._send_packet(rip_b.ports["eth0"],
                           RipPacket.whole_table_request(),
                           IPv4("224.0.0.9"))
        assert network.run_until(
            lambda: rip_b.routes.get(net("99.0.0.0/8")) is not None,
            timeout=30)

    def test_full_table_goes_out_in_prefix_order(self):
        network, a, b, rip_a, rip_b = build_rip_pair(update_interval=1000.0)
        for text in ("99.0.0.0/8", "10.1.0.0/16", "42.0.0.0/8", "10.0.0.0/8"):
            rip_a.xrl_add_static_route(net(text), IPv4("10.0.0.1"), 1)
        entries = rip_a._advertised_entries(rip_a.ports["eth0"],
                                            changed_only=False)
        assert [str(entry.net) for entry in entries] == [
            "10.0.0.0/8", "10.1.0.0/16", "42.0.0.0/8", "99.0.0.0/8"]

    def test_counters(self):
        network, a, b, rip_a, rip_b = build_rip_pair()
        network.run(duration=12)
        error, args = rip_a.xrl.send_sync(
            Xrl("rip", "rip", "1.0", "get_counters",
                XrlArgs().add_txt("ifname", "eth0")), deadline=10)
        assert error.is_okay
        assert args.get_u32("packets_out") > 0
        assert args.get_u32("packets_in") > 0

    def test_redistribution_from_rib(self):
        """Static route in the RIB redistributes into RIP via redist4."""
        network, a, b, rip_a, rip_b = build_rip_pair()
        # Enable redistribution of static routes into RIP at router A.
        args = (XrlArgs().add_txt("target", "rip")
                .add_txt("from_protocol", "static"))
        error, __ = rip_a.xrl.send_sync(
            Xrl("rib", "rib", "1.0", "redist_enable4", args), deadline=10)
        assert error.is_okay
        # Add a static route to A's RIB (as the static_routes process would).
        route_args = (XrlArgs().add_txt("protocol", "static")
                      .add_ipv4net("net", "42.0.0.0/8")
                      .add_ipv4("nexthop", "10.0.0.1")
                      .add_u32("metric", 1).add_list("policytags", []))
        error, __ = rip_a.xrl.send_sync(
            Xrl("rib", "rib", "1.0", "add_route4", route_args), deadline=10)
        assert error.is_okay
        assert network.run_until(
            lambda: rip_b.routes.get(net("42.0.0.0/8")) is not None,
            timeout=30)


class TestStaticRoutesProcess:
    def test_feeds_rib(self):
        from repro.staticroutes import StaticRoutesProcess

        network = SimNetwork()
        a = network.add_router("a")
        static = StaticRoutesProcess(a.host)
        args = (XrlArgs().add_ipv4net("net", "10.0.0.0/8")
                .add_ipv4("nexthop", "1.1.1.1").add_u32("metric", 1))
        error, __ = static.xrl.send_sync(
            Xrl("static_routes", "static_routes", "0.1", "add_route4", args),
            deadline=10)
        assert error.is_okay
        assert network.run_until(
            lambda: a.fea.fib4.lookup(IPv4("10.1.1.1")) is not None,
            timeout=10)
        # Delete via XRL as well.
        del_args = XrlArgs().add_ipv4net("net", "10.0.0.0/8")
        error, __ = static.xrl.send_sync(
            Xrl("static_routes", "static_routes", "0.1", "delete_route4",
                del_args), deadline=10)
        assert error.is_okay
        assert network.run_until(
            lambda: a.fea.fib4.lookup(IPv4("10.1.1.1")) is None, timeout=10)
