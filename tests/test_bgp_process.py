"""End-to-end BGP: multiple routers exchanging real BGP byte streams.

Each "router" is a Host (own Finder) holding FEA + RIB + BGP processes;
routers share one simulated-clock event loop.  Peerings run over loopback
byte-stream sessions carrying fully encoded BGP messages.
"""

import pytest

from repro.bgp import BgpProcess, BgpState
from repro.bgp.peer import PeerConfig
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.fea import FeaProcess
from repro.net import IPNet, IPv4
from repro.rib import RibProcess
from repro.xrl import Xrl, XrlArgs

# Every stage edge of every router is checked against the §5 rules.
pytestmark = pytest.mark.usefixtures("runtime_sanitizers")


def net(text):
    return IPNet.parse(text)


class Router:
    def __init__(self, loop, name, local_as, router_id):
        self.name = name
        self.host = Host(loop=loop)
        self.loop = loop
        self.fea = FeaProcess(self.host)
        self.rib = RibProcess(self.host)
        self.bgp = BgpProcess(self.host, local_as=local_as,
                              bgp_id=IPv4(router_id))
        self.local_as = local_as

    def add_static(self, net_text, nexthop):
        """Install a static route in the RIB (gives BGP resolvability)."""
        args = (XrlArgs().add_txt("protocol", "static")
                .add_ipv4net("net", net_text).add_ipv4("nexthop", nexthop)
                .add_u32("metric", 1).add_list("policytags", []))
        error, __ = self.bgp.xrl.send_sync(
            Xrl("rib", "rib", "1.0", "add_route4", args), deadline=10)
        assert error.is_okay, error

    def originate(self, net_text, nexthop):
        self.bgp.xrl_originate_route4(net(net_text), IPv4(nexthop), True)

    def withdraw(self, net_text):
        self.bgp.xrl_withdraw_route4(net(net_text))


def connect(router_a, router_b, addr_a, addr_b, latency=0.001):
    loop = router_a.loop
    session_a, session_b = session_pair(loop, latency)
    peer_a = router_a.bgp.add_peer(PeerConfig(
        IPv4(addr_b), router_b.local_as, router_a.local_as, IPv4(addr_a)))
    peer_a.attach_session(session_a)
    peer_b = router_b.bgp.add_peer(PeerConfig(
        IPv4(addr_a), router_a.local_as, router_b.local_as, IPv4(addr_b)))
    peer_b.attach_session(session_b)
    # Each side needs an IGP route towards the peering subnet.
    subnet = IPNet(IPv4(addr_a), 24)
    router_a.add_static(str(subnet), "0.0.0.0")
    router_b.add_static(str(subnet), "0.0.0.0")
    peer_a.enable()
    peer_b.enable()
    return peer_a, peer_b


def established(*peers):
    return all(p.fsm.state == BgpState.ESTABLISHED for p in peers)


@pytest.fixture
def two_routers():
    loop = EventLoop(SimulatedClock())
    a = Router(loop, "A", 65001, "1.1.1.1")
    b = Router(loop, "B", 65002, "2.2.2.2")
    peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
    assert loop.run_until(lambda: established(peer_ab, peer_ba), timeout=60)
    return loop, a, b, peer_ab, peer_ba


class TestTwoRouters:
    def test_session_establishes(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        assert peer_ab.fsm.state == BgpState.ESTABLISHED
        assert peer_ab.info.bgp_id == IPv4("2.2.2.2")

    def test_route_propagates(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: b.fea.fib4.lookup(IPv4("99.1.2.3")) is not None,
            timeout=30)
        entry = b.fea.fib4.lookup(IPv4("99.1.2.3"))
        assert entry.nexthop == IPv4("10.0.0.1")

    def test_as_path_and_nexthop_rewritten(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in b.bgp.decision.winners, timeout=30)
        route = b.bgp.decision.winners.get(net("99.0.0.0/8"))
        assert route.attributes.as_path.as_list() == [65001]
        assert route.nexthop == IPv4("10.0.0.1")
        assert route.attributes.local_pref == 100  # default applied on import

    def test_withdraw_propagates(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in b.bgp.decision.winners, timeout=30)
        a.withdraw("99.0.0.0/8")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") not in b.bgp.decision.winners,
            timeout=30)
        assert loop.run_until(
            lambda: b.fea.fib4.lookup(IPv4("99.1.2.3")) is None, timeout=30)

    def test_many_routes_propagate(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        for i in range(50):
            a.originate(f"99.{i}.0.0/16", "10.0.0.1")
        assert loop.run_until(
            lambda: b.bgp.decision.route_count >= 50, timeout=60)
        assert b.bgp.decision.route_count == 50

    def test_peering_down_deletes_routes_in_background(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        for i in range(20):
            a.originate(f"99.{i}.0.0/16", "10.0.0.1")
        assert loop.run_until(
            lambda: b.bgp.decision.route_count == 20, timeout=60)
        # Drop the peering from A's side: B must withdraw everything.
        peer_ab.disable()
        assert loop.run_until(
            lambda: b.bgp.decision.route_count == 0, timeout=120)
        assert peer_ba.deletion_stages_created >= 1
        assert loop.run_until(
            lambda: b.fea.fib4.lookup(IPv4("99.1.0.1")) is None, timeout=30)

    def test_flap_reconverges(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        for i in range(10):
            a.originate(f"99.{i}.0.0/16", "10.0.0.1")
        assert loop.run_until(lambda: b.bgp.decision.route_count == 10,
                              timeout=60)
        peer_ab.disable()
        assert loop.run_until(lambda: b.bgp.decision.route_count == 0,
                              timeout=120)
        peer_ab.enable()
        assert loop.run_until(
            lambda: established(peer_ab, peer_ba), timeout=120)
        assert loop.run_until(lambda: b.bgp.decision.route_count == 10,
                              timeout=120)

    def test_late_peer_receives_full_table_via_dump(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        for i in range(30):
            a.originate(f"99.{i}.0.0/16", "10.0.0.1")
        assert loop.run_until(lambda: b.bgp.decision.route_count == 30,
                              timeout=60)
        # Router C joins later and must receive the whole table.
        c = Router(loop, "C", 65003, "3.3.3.3")
        peer_bc, peer_cb = connect(b, c, "10.0.1.1", "10.0.1.2")
        assert loop.run_until(lambda: established(peer_bc, peer_cb),
                              timeout=120)
        assert loop.run_until(lambda: c.bgp.decision.route_count == 30,
                              timeout=120)
        route = c.bgp.decision.winners.get(net("99.0.0.0/16"))
        assert route.attributes.as_path.as_list() == [65002, 65001]


class TestExportRefilter:
    """An export policy change on an established peering (paper §5.1.2):
    the background re-filter sends the peer exactly the difference."""

    REJECT = ("policy-statement hide { term t { "
              "from { network4 orlonger 99.2.0.0/16; } then { reject; } } }")

    def _announce_two(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        a.originate("99.1.0.0/16", "10.0.0.1")
        a.originate("99.2.0.0/16", "10.0.0.1")
        assert loop.run_until(lambda: b.bgp.decision.route_count == 2,
                              timeout=30)
        loop.run(duration=5)

    def test_rejecting_one_prefix_withdraws_exactly_it(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        self._announce_two(two_routers)
        updates = peer_ba.updates_received
        a.bgp.xrl_configure_filter(a.bgp.FILTER_EXPORT, self.REJECT)
        loop.run(duration=5)
        assert set(b.bgp.decision.winners) == {net("99.1.0.0/16")}
        assert peer_ba.updates_received == updates + 1

    def test_reset_filter_announces_it_again(self, two_routers):
        loop, a, b, peer_ab, peer_ba = two_routers
        self._announce_two(two_routers)
        a.bgp.xrl_configure_filter(a.bgp.FILTER_EXPORT, self.REJECT)
        loop.run(duration=5)
        updates = peer_ba.updates_received
        a.bgp.xrl_reset_filter(a.bgp.FILTER_EXPORT)
        loop.run(duration=5)
        assert set(b.bgp.decision.winners) == {
            net("99.1.0.0/16"), net("99.2.0.0/16")}
        assert peer_ba.updates_received == updates + 1


class TestThreeRouterChain:
    def test_transit_propagation(self):
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65001, "1.1.1.1")
        b = Router(loop, "B", 65002, "2.2.2.2")
        c = Router(loop, "C", 65003, "3.3.3.3")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        peer_bc, peer_cb = connect(b, c, "10.0.1.1", "10.0.1.2")
        assert loop.run_until(
            lambda: established(peer_ab, peer_ba, peer_bc, peer_cb),
            timeout=120)
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in c.bgp.decision.winners, timeout=60)
        route = c.bgp.decision.winners.get(net("99.0.0.0/8"))
        assert route.attributes.as_path.as_list() == [65002, 65001]
        assert route.nexthop == IPv4("10.0.1.1")  # rewritten by B

    def test_no_route_back_to_origin(self):
        """Split horizon: A's route must not be advertised back to A."""
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65001, "1.1.1.1")
        b = Router(loop, "B", 65002, "2.2.2.2")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        assert loop.run_until(lambda: established(peer_ab, peer_ba),
                              timeout=60)
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in b.bgp.decision.winners, timeout=30)
        loop.run(duration=30)
        # A's own PeerIn for the peering with B must stay empty.
        assert peer_ab.peer_in.route_count == 0


class TestIbgp:
    def test_ibgp_no_reflection(self):
        """A route learned from one IBGP peer is not sent to another."""
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65001, "1.1.1.1")
        b = Router(loop, "B", 65001, "2.2.2.2")  # same AS: IBGP
        c = Router(loop, "C", 65001, "3.3.3.3")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        peer_bc, peer_cb = connect(b, c, "10.0.1.1", "10.0.1.2")
        assert loop.run_until(
            lambda: established(peer_ab, peer_ba, peer_bc, peer_cb),
            timeout=120)
        b.add_static("10.0.0.0/24", "0.0.0.0")  # resolvability at B
        a.originate("99.0.0.0/8", "10.0.0.1")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in b.bgp.decision.winners, timeout=60)
        loop.run(duration=30)
        assert net("99.0.0.0/8") not in c.bgp.decision.winners

    def test_ibgp_keeps_nexthop_and_localpref(self):
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65001, "1.1.1.1")
        b = Router(loop, "B", 65001, "2.2.2.2")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        assert loop.run_until(lambda: established(peer_ab, peer_ba),
                              timeout=60)
        a.originate("99.0.0.0/8", "10.0.0.5")
        b.add_static("10.0.0.0/24", "0.0.0.0")
        assert loop.run_until(
            lambda: net("99.0.0.0/8") in b.bgp.decision.winners, timeout=30)
        route = b.bgp.decision.winners.get(net("99.0.0.0/8"))
        assert route.nexthop == IPv4("10.0.0.5")  # NOT rewritten on IBGP
        assert route.attributes.as_path.as_list() == []  # no prepend

    def test_removed_peer_takes_its_routes_out_of_the_ibgp_table(self):
        """The RIB files an IBGP peer's winners under ``ibgp``; once the
        peer is removed its deletes must still go to that table."""
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65001, "1.1.1.1")
        b = Router(loop, "B", 65001, "2.2.2.2")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        assert loop.run_until(lambda: established(peer_ab, peer_ba),
                              timeout=60)
        prefixes = [net(f"99.{i}.0.0/16") for i in range(3)]
        for prefix in prefixes:
            a.originate(str(prefix), "10.0.0.5")
        fib, ibgp = b.fea.fib4, b.rib.v4.origins["ibgp"]
        assert loop.run_until(
            lambda: all(fib.exact(prefix) for prefix in prefixes),
            timeout=60)
        assert set(ibgp.routes) == set(prefixes)
        b.bgp.remove_peer(peer_ba.peer_id)
        loop.run(duration=30)
        assert b.bgp.decision.route_count == 0
        assert not ibgp.routes
        assert not any(fib.exact(prefix) for prefix in prefixes)

    def test_peer_readded_as_ibgp_files_old_and_new_routes_apart(self):
        """An operator changes a neighbour's AS so that it turns IBGP: one
        commit removes the peering and adds it again at the same address.
        The old EBGP routes still drain after the re-add; their deletes
        must leave the ``ebgp`` table, and the new peering's routes land
        in ``ibgp``."""
        loop = EventLoop(SimulatedClock())
        a = Router(loop, "A", 65002, "1.1.1.1")
        b = Router(loop, "B", 65001, "2.2.2.2")
        peer_ab, peer_ba = connect(a, b, "10.0.0.1", "10.0.0.2")
        assert loop.run_until(lambda: established(peer_ab, peer_ba),
                              timeout=60)
        old = [net(f"99.{i}.0.0/16") for i in range(3)]
        new = [net(f"99.{i}.0.0/16") for i in range(1, 4)]
        for prefix in old:
            a.originate(str(prefix), "10.0.0.1")
        fib = b.fea.fib4
        ebgp, ibgp = b.rib.v4.origins["ebgp"], b.rib.v4.origins["ibgp"]
        assert loop.run_until(
            lambda: all(fib.exact(prefix) for prefix in old), timeout=60)
        assert set(ebgp.routes) == set(old)

        # The same address is now a router of B's own AS.
        c = Router(loop, "C", 65001, "3.3.3.3")
        b.bgp.remove_peer(peer_ba.peer_id)
        peer_ab.disable()
        peer_bc, peer_cb = connect(b, c, "10.0.0.2", "10.0.0.1")
        assert peer_bc.info.is_ibgp
        for prefix in new:
            c.originate(str(prefix), "10.0.0.5")
        assert loop.run_until(lambda: established(peer_bc, peer_cb),
                              timeout=60)
        loop.run(duration=30)
        assert not ebgp.routes
        assert set(ibgp.routes) == set(new)
        assert {prefix for prefix in old + new if fib.exact(prefix)} == \
            set(new)
