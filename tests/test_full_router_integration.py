"""Whole-router integration: Router-Manager-driven routers running BGP,
OSPF and static routes concurrently over the simulated network."""

from pathlib import Path

import pytest

from repro.analysis import build_protocol_graph, collect_modules
from repro.bgp import BgpState
from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.process import LOCAL_PEER_ID
from repro.bgp.route import BGPRoute
from repro.net import IPNet, IPv4
from repro.obs import Observability
from repro.rtrmgr import Cli, RouterManager
from repro.sanitizer import runtime_xrl_edges, unexplained_edges
from repro.simnet import SimNetwork

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

_PROTOCOL_GRAPH = None


def protocol_graph():
    """The static protocol graph of the shipped tree, built once."""
    global _PROTOCOL_GRAPH
    if _PROTOCOL_GRAPH is None:
        modules, errors = collect_modules([SRC_REPRO])
        assert errors == []
        _PROTOCOL_GRAPH = build_protocol_graph(modules)
    return _PROTOCOL_GRAPH

# Arm the runtime sanitizers (stage-graph consistency + XRL
# dispatch conformance) for every test in this module; the
# conftest fixture asserts zero violations at teardown.  Autouse
# at module level so it arms before class setup_method fixtures.
@pytest.fixture(autouse=True)
def _runtime_sanitizers(runtime_sanitizers):
    yield runtime_sanitizers


def net(text):
    return IPNet.parse(text)


@pytest.fixture
def two_managed_routers():
    network = SimNetwork()
    r1 = network.add_router("r1")
    r2 = network.add_router("r2")
    network.link(r1, "10.0.0.1", r2, "10.0.0.2")
    network.run(duration=1)
    mgr1 = RouterManager(r1.host)
    mgr2 = RouterManager(r2.host)
    return network, r1, r2, mgr1, mgr2


def wire_bgp_sessions(network, mgr1, mgr2):
    """Connect the two managed BGP processes with a session pair."""
    sessions = network.bgp_session(latency=0.002)
    handler1 = mgr1.modules["bgp"].peers["10.0.0.2"]
    handler2 = mgr2.modules["bgp"].peers["10.0.0.1"]
    handler1.attach_session(sessions[0])
    handler2.attach_session(sessions[1])
    handler1.enable()
    handler2.enable()
    return handler1, handler2


class TestManagedBgpPair:
    def test_config_to_established_to_routes(self, two_managed_routers):
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        cli1, cli2 = Cli(mgr1), Cli(mgr2)
        for cli, local_as, peer, bgp_id in (
                (cli1, 65001, "10.0.0.2 as 65002", "1.1.1.1"),
                (cli2, 65002, "10.0.0.1 as 65001", "2.2.2.2")):
            assert cli.execute(f"set protocols bgp local-as {local_as}") == "OK"
            assert cli.execute(f"set protocols bgp bgp-id {bgp_id}") == "OK"
            addr, __, asn = peer.partition(" as ")
            assert cli.execute(
                f"set protocols bgp peer {addr} as {asn.strip()}") == "OK"
            local_ip = "10.0.0.1" if cli is cli1 else "10.0.0.2"
            assert cli.execute(
                f"set protocols bgp peer {addr} local-ip {local_ip}") == "OK"
            assert cli.execute("commit") == "Commit OK"
        handler1, handler2 = wire_bgp_sessions(network, mgr1, mgr2)
        assert network.run_until(
            lambda: handler1.fsm.state == BgpState.ESTABLISHED
            and handler2.fsm.state == BgpState.ESTABLISHED, timeout=60)
        # Originate a route at r1 through the CLI's XRL scripting facility.
        out = cli1.execute(
            'call "finder://bgp/bgp/1.0/originate_route4'
            '?net:ipv4net=99.0.0.0/8&next_hop:ipv4=10.0.0.1&unicast:bool=true"')
        assert not out.startswith("error"), out
        assert network.run_until(
            lambda: r2.fea.fib4.lookup(IPv4("99.1.1.1")) is not None,
            timeout=60)
        # Operator visibility on the receiving side.
        assert "99.0.0.0/8" in cli2.execute("show bgp routes")
        assert "Established" in cli2.execute("show bgp")

    def test_mixed_protocol_router(self, two_managed_routers):
        """BGP + OSPF + static all configured on one router via commit."""
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        cli = Cli(mgr1)
        for line in (
            "set protocols bgp local-as 65001",
            "set protocols ospf router-id 1.1.1.1",
            "set protocols ospf interface eth0 cost 1",
            "set protocols static route 192.168.0.0/16 next-hop 10.0.0.2",
        ):
            assert cli.execute(line) == "OK", line
        assert cli.execute("commit") == "Commit OK"
        modules = cli.execute("show modules").split("\n")
        assert {"bgp", "ospf", "static_routes"} <= set(modules)
        # The static route reaches the FIB; OSPF speaks on eth0.
        assert network.run_until(
            lambda: r1.fea.fib4.lookup(IPv4("192.168.5.5")) is not None,
            timeout=30)
        ospf = mgr1.modules["ospf"]
        assert "eth0" in ospf.interfaces

    def test_second_commit_is_incremental(self, two_managed_routers):
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        cli = Cli(mgr1)
        cli.execute("set protocols static route 192.168.0.0/16 next-hop 10.0.0.2")
        assert cli.execute("commit") == "Commit OK"
        static = mgr1.modules["static_routes"]
        assert len(static.routes) == 1
        cli.execute("set protocols static route 172.16.0.0/12 next-hop 10.0.0.2")
        assert cli.execute("commit") == "Commit OK"
        assert static is mgr1.modules["static_routes"]  # not restarted
        assert len(static.routes) == 2
        assert mgr1.commit_count == 2


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


def establish_bgp_pair(two_managed_routers):
    """Configure and establish the r1<->r2 eBGP session; returns the CLIs."""
    network, r1, r2, mgr1, mgr2 = two_managed_routers
    cli1, cli2 = Cli(mgr1), Cli(mgr2)
    for cli, local_as, peer, bgp_id in (
            (cli1, 65001, "10.0.0.2 as 65002", "1.1.1.1"),
            (cli2, 65002, "10.0.0.1 as 65001", "2.2.2.2")):
        assert cli.execute(f"set protocols bgp local-as {local_as}") == "OK"
        assert cli.execute(f"set protocols bgp bgp-id {bgp_id}") == "OK"
        addr, __, asn = peer.partition(" as ")
        assert cli.execute(
            f"set protocols bgp peer {addr} as {asn.strip()}") == "OK"
        local_ip = "10.0.0.1" if cli is cli1 else "10.0.0.2"
        assert cli.execute(
            f"set protocols bgp peer {addr} local-ip {local_ip}") == "OK"
        assert cli.execute("commit") == "Commit OK"
    handler1, handler2 = wire_bgp_sessions(network, mgr1, mgr2)
    assert network.run_until(
        lambda: handler1.fsm.state == BgpState.ESTABLISHED
        and handler2.fsm.state == BgpState.ESTABLISHED, timeout=60)
    return cli1, cli2


class TestTracedRouteFlow:
    """End-to-end trace assertion: one BGP route from origination on r1
    through the eBGP session to r2's decision process, RIB and FEA FIB,
    reconstructed as a causal span tree (ISSUE tentpole acceptance)."""

    #: the r1-side and r2-side hops every cross-router route must take,
    #: in causal order.  ``decision`` appears twice — once per router —
    #: and the RIB tail (ExtInt -> redist -> FEA transfer -> kernel FIB)
    #: belongs to r2's pipeline.
    EXPECTED_HOPS = [
        "local-origin",                     # r1 BGP origination
        "nexthop-local", "decision", "fanout",   # r1 decision process
        "peer-in-10.0.0.1",                 # arrives at r2 from 10.0.0.1
        "in-filter-10.0.0.1", "nexthop-10.0.0.1",
        "decision", "fanout",               # r2 decision process
        "origin-ebgp4", "extint4",          # r2 RIB merge / ExtInt
        "redist4",                          # r2 redistribution
        "to-fea4",                          # r2 RIB -> FEA transfer
        "fib4",                             # r2 kernel FIB
    ]

    def _traced_flow(self, two_managed_routers, prefix, originate):
        """Originate *prefix* on r1 via *originate*, follow it to r2's
        FIB under an armed tracer; returns the trace context."""
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        # The module fixture armed the sanitizers first; the seam lets
        # the two compose in either order (tests/test_taps.py).
        obs = Observability(clock=network.loop.clock.now)
        obs.trace(prefix)
        host_addr = IPv4(prefix.network.to_int() + 0x00010101)  # x.1.1.1
        with obs:
            originate(prefix)
            assert network.run_until(
                lambda: r2.fea.fib4.lookup(host_addr) is not None,
                timeout=60)
            network.run(duration=1)  # drain in-flight frames before disarm
        ctx = obs.tracer.context_for(prefix)
        assert ctx is not None and ctx.spans
        return obs, ctx

    def _assert_causal_tree(self, obs, ctx):
        hops = obs.tracer.hop_sequence(ctx.trace_id)
        assert _is_subsequence(self.EXPECTED_HOPS, hops), (
            f"expected hop subsequence {self.EXPECTED_HOPS}, got {hops}")
        # Timestamps never decrease along the recorded causal chain, and
        # every parent reference resolves to an earlier span.
        by_id = {s.span_id: s for s in ctx.spans}
        for earlier, later in zip(ctx.spans, ctx.spans[1:]):
            assert later.ts >= earlier.ts, (
                f"span {later.span_id} at t={later.ts} recorded after "
                f"span {earlier.span_id} at t={earlier.ts}")
        for span in ctx.spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.ts <= span.ts, (
                f"span {span.span_id} precedes its parent {parent.span_id}")
        # The tree reconstructs: every span lands at a definite depth.
        tree = obs.tracer.span_tree(ctx.trace_id)
        assert len(tree) == len(ctx.spans)
        # The route crossed both XRL process boundaries: BGP -> RIB and
        # RIB -> FEA each leave an xrl-send/xrl-recv pair in the tree.
        kinds = [s.kind for s in ctx.spans]
        assert kinds.count("xrl-send") >= 2
        assert kinds.count("xrl-recv") >= 2
        return hops

    def test_traced_route_unbatched(self, two_managed_routers):
        cli1, cli2 = establish_bgp_pair(two_managed_routers)
        prefix = net("99.0.0.0/8")

        def originate(prefix):
            out = cli1.execute(
                'call "finder://bgp/bgp/1.0/originate_route4'
                f'?net:ipv4net={prefix}&next_hop:ipv4=10.0.0.1'
                '&unicast:bool=true"')
            assert not out.startswith("error"), out

        obs, ctx = self._traced_flow(two_managed_routers, prefix, originate)
        self._assert_causal_tree(obs, ctx)

    def test_runtime_edges_subset_of_static_graph(self,
                                                  two_managed_routers):
        """Dynamic/static agreement: every XRL edge the tracer observed
        must be explained by the static protocol graph (ISSUE tentpole
        acceptance).  A runtime edge the graph cannot explain means the
        interprocedural analysis has a blind spot."""
        cli1, cli2 = establish_bgp_pair(two_managed_routers)
        prefix = net("97.0.0.0/8")

        def originate(prefix):
            out = cli1.execute(
                'call "finder://bgp/bgp/1.0/originate_route4'
                f'?net:ipv4net={prefix}&next_hop:ipv4=10.0.0.1'
                '&unicast:bool=true"')
            assert not out.startswith("error"), out

        obs, _ctx = self._traced_flow(two_managed_routers, prefix, originate)
        observed = runtime_xrl_edges(obs.tracer)
        assert observed, "the traced flow must cross XRL boundaries"
        pairs = {(send, recv) for send, recv, _method in observed}
        assert ("bgp", "rib") in pairs       # BGP pushed the route down
        assert ("rib", "fea") in pairs       # RIB transferred it to the FIB
        problems = unexplained_edges(obs.tracer, protocol_graph())
        assert problems == [], "\n".join(problems)

    def test_traced_route_batched_matches_unbatched(self,
                                                    two_managed_routers):
        """The batch contract, observed: a route delivered through the
        vectorized surface takes the identical hop sequence."""
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        cli1, cli2 = establish_bgp_pair(two_managed_routers)
        unbatched_net, batched_net = net("99.0.0.0/8"), net("98.0.0.0/8")

        def originate_cli(prefix):
            out = cli1.execute(
                'call "finder://bgp/bgp/1.0/originate_route4'
                f'?net:ipv4net={prefix}&next_hop:ipv4=10.0.0.1'
                '&unicast:bool=true"')
            assert not out.startswith("error"), out

        def originate_batch(prefix):
            attributes = PathAttributeList(
                origin=Origin.IGP, as_path=ASPath(),
                nexthop=IPv4("10.0.0.1"))
            mgr1.modules["bgp"].local_origin.originate_batch(
                [BGPRoute(prefix, attributes, peer_id=LOCAL_PEER_ID)])

        obs1, ctx1 = self._traced_flow(
            two_managed_routers, unbatched_net, originate_cli)
        hops_unbatched = self._assert_causal_tree(obs1, ctx1)
        obs2, ctx2 = self._traced_flow(
            two_managed_routers, batched_net, originate_batch)
        hops_batched = self._assert_causal_tree(obs2, ctx2)
        assert hops_batched == hops_unbatched, (
            f"batched {hops_batched} != unbatched {hops_unbatched}")

    def test_traced_route_inside_a_vector_frame(self, two_managed_routers):
        """One traced prefix among 200 riding a single ``add_routes4``
        and a single ``add_entries4`` still yields the complete causal
        tree, hop for hop what a lone route takes; the module's armed
        sanitizers accept both vector methods from the catalogue and the
        static protocol graph explains every runtime edge."""
        network, r1, r2, mgr1, mgr2 = two_managed_routers
        cli1, cli2 = establish_bgp_pair(two_managed_routers)
        lone_net, traced_net = net("99.0.0.0/8"), net("98.0.0.0/8")

        def originate_cli(prefix):
            out = cli1.execute(
                'call "finder://bgp/bgp/1.0/originate_route4'
                f'?net:ipv4net={prefix}&next_hop:ipv4=10.0.0.1'
                '&unicast:bool=true"')
            assert not out.startswith("error"), out

        def originate_burst(prefix):
            attributes = PathAttributeList(
                origin=Origin.IGP, as_path=ASPath(),
                nexthop=IPv4("10.0.0.1"))
            burst = [IPNet(IPv4(0x61000000 + (i << 8)), 24)
                     for i in range(199)]
            burst.insert(77, prefix)     # somewhere inside the frame
            mgr1.modules["bgp"].local_origin.originate_batch(
                [BGPRoute(n, attributes, peer_id=LOCAL_PEER_ID)
                 for n in burst])

        obs1, ctx1 = self._traced_flow(
            two_managed_routers, lone_net, originate_cli)
        hops_lone = self._assert_causal_tree(obs1, ctx1)
        sent2 = (mgr2.modules["bgp"].txq.sent_count,
                 r2.rib.txq.sent_count)
        obs2, ctx2 = self._traced_flow(
            two_managed_routers, traced_net, originate_burst)
        hops_vector = self._assert_causal_tree(obs2, ctx2)
        assert hops_vector == hops_lone, (
            f"vector {hops_vector} != singular {hops_lone}")
        # On r2 the whole burst crossed each boundary as one XRL ...
        assert (mgr2.modules["bgp"].txq.sent_count - sent2[0],
                r2.rib.txq.sent_count - sent2[1]) == (1, 1)
        assert len(r2.fea.fib4) >= 200
        # ... and the traced route's spans name the vector methods, each
        # send paired with its receive.
        crossings = [(s.kind, s.site, s.op) for s in ctx2.spans
                     if s.kind in ("xrl-send", "xrl-recv")]
        for sender, receiver, method in (("bgp", "rib", "add_routes4"),
                                         ("rib", "fea", "add_entries4")):
            assert crossings.count(("xrl-send", sender, method)) == 2, (
                crossings)  # once per router
            assert crossings.count(("xrl-recv", receiver, method)) == 2, (
                crossings)
        lone_methods = {s.op for s in ctx1.spans if s.kind == "xrl-send"}
        assert lone_methods == {"originate_route4", "add_route4",
                                "add_entry4"}
        assert unexplained_edges(obs2.tracer, protocol_graph()) == []
