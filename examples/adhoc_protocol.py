#!/usr/bin/env python3
"""A third-party routing protocol, built only against the public APIs.

The paper's extensibility test (§8.3): "One university unrelated to our
group used XORP to implement an ad-hoc wireless routing protocol ...
Their implementation required a single change to our internal APIs to
allow a route to be specified by interface rather than by nexthop router,
as there is no IP subnetting in an ad-hoc network."

This example plays that team: a toy distance-vector "ad-hoc" protocol
implemented as a XorpProcess that uses exactly the interfaces BGP and RIP
use — the FEA raw-packet relay for its hello/advert datagrams and the
RIB's ``add_route4`` to contribute routes.  Nothing in the RIB, FEA, or
Router Manager is modified: the protocol is one ``ModuleSpec`` declared to
the Router Manager, which then guards it like a stock module — its Finder
ACL, its restart after the FEA and RIB, and its ``adhoc`` routes flushed
from the RIB if it dies.

Run:  python examples/adhoc_protocol.py
"""

import struct

from repro.core.process import XorpProcess
from repro.interfaces import COMMON_IDL, FEA_RAWPKT_CLIENT4_IDL
from repro.net import IPNet, IPv4
from repro.rtrmgr.modules import ModuleSpec
from repro.simnet import SimNetwork
from repro.xrl import Xrl, XrlArgs

ADHOC_PORT = 8765
HELLO_INTERVAL = 3.0


class AdhocProcess(XorpProcess):
    """A toy ad-hoc protocol: flood host routes for every known node."""

    process_name = "adhoc"

    def __init__(self, host, node_addr: IPv4, ifnames, *,
                 fea_target="fea", rib_target="rib"):
        super().__init__(host)
        self.node_addr = node_addr
        self.ifnames = list(ifnames)
        self.fea_target = fea_target
        self.rib_target = rib_target
        self.xrl = self.create_router("adhoc", singleton=True)
        #: host routes we know: addr -> (metric, via_ifname)
        self.known = {}
        self.xrl.bind(FEA_RAWPKT_CLIENT4_IDL, self)
        self.xrl.bind(COMMON_IDL, self)
        # Everything below uses only public XRL APIs -------------------
        self.xrl.send(Xrl(rib_target, "rib", "1.0", "add_igp_table4",
                          XrlArgs().add_txt("protocol", "adhoc")))
        for ifname in self.ifnames:
            args = (XrlArgs().add_txt("creator", "adhoc")
                    .add_txt("ifname", ifname).add_u32("port", ADHOC_PORT))
            self.xrl.send(Xrl(fea_target, "fea_rawpkt4", "1.0", "open_udp",
                              args))
        self.loop.call_periodic(HELLO_INTERVAL, self._advertise,
                                name="adhoc-hello")

    # -- flooding -------------------------------------------------------
    def _advertise(self) -> None:
        """Broadcast (self + everything we know) on every interface."""
        entries = [(self.node_addr.to_int(), 0)]
        entries.extend((addr, metric) for addr, (metric, __)
                       in self.known.items())
        payload = struct.pack("!H", len(entries)) + b"".join(
            struct.pack("!IH", addr, metric) for addr, metric in entries)
        for ifname in self.ifnames:
            args = (XrlArgs().add_txt("ifname", ifname)
                    .add_ipv4("dst", IPv4("255.255.255.255"))
                    .add_u32("port", ADHOC_PORT)
                    .add_binary("payload", payload))
            self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                              "send_udp", args))

    # -- fea_rawpkt_client4/1.0 -----------------------------------------
    def xrl_recv_udp(self, ifname, src, port, payload) -> None:
        (count,) = struct.unpack_from("!H", payload, 0)
        offset = 2
        for __ in range(count):
            addr, metric = struct.unpack_from("!IH", payload, offset)
            offset += 6
            metric += 1
            if addr == self.node_addr.to_int():
                continue
            current = self.known.get(addr)
            if current is None or metric < current[0]:
                self.known[addr] = (metric, ifname)
                # Paper: "a route ... specified by interface rather than
                # by nexthop router" — we pass the neighbour as nexthop
                # and the interface name rides along in our own state.
                args = (XrlArgs().add_txt("protocol", "adhoc")
                        .add_ipv4net("net", IPNet(IPv4(addr), 32))
                        .add_ipv4("nexthop", src)
                        .add_u32("metric", metric)
                        .add_list("policytags", []))
                method = "add_route4" if current is None else "replace_route4"
                self.xrl.send(Xrl(self.rib_target, "rib", "1.0", method, args))

    # -- common/0.1 -------------------------------------------------------
    def xrl_get_target_name(self):
        return {"name": self.xrl.instance_name}

    def xrl_get_version(self):
        return {"version": "adhoc/0.1"}

    def xrl_get_status(self):
        return {"status": "running"}

    def xrl_shutdown(self):
        self.loop.call_soon(self.shutdown)


def main() -> None:
    network = SimNetwork()
    nodes = {}
    # A chain of four "wireless" nodes.
    previous = None
    for index, name in enumerate(("n1", "n2", "n3", "n4")):
        router = network.add_router(name)
        nodes[name] = router
        if previous is not None:
            network.link(previous, f"10.9.{index}.1", router,
                         f"10.9.{index}.2", prefix_len=24)
        previous = router
    network.run(duration=1)

    print("== starting the third-party ad-hoc protocol on every node ==")
    processes = {}
    for name, router in nodes.items():
        ifnames = router.fea.ifmgr.names()
        node_addr = router.fea.ifmgr.get(ifnames[0]).addr
        router.manager.declare(ModuleSpec(
            "adhoc", "adhoc",
            lambda host=router.host, addr=node_addr, names=ifnames:
            AdhocProcess(host, addr, names), depends_on=("fea", "rib"),
            acl=frozenset({"rib", "fea"}), rib_protocols=("adhoc",)))
        processes[name] = router.manager.start_module("adhoc")
        print(f"  {name}: node address {node_addr}, interfaces {ifnames}")

    print("\n== letting hellos flood ==")
    network.run(duration=20)
    n1, n4 = processes["n1"], processes["n4"]
    print(f"n1 knows {len(n1.known)} other nodes; "
          f"n4 knows {len(n4.known)} other nodes")
    for addr_value, (metric, ifname) in sorted(n1.known.items()):
        print(f"  n1 -> {IPv4(addr_value)} metric {metric} via {ifname}")

    far_addr = n4.node_addr
    entry = nodes["n1"].fea.fib4.lookup(far_addr)
    print(f"\nn1's kernel FIB entry for {far_addr}: {entry}")
    assert entry is not None, "ad-hoc routes must reach the FIB via the RIB"
    print("\nThe protocol used only public XRL APIs: "
          "fea_rawpkt4 for packets, rib/1.0 for routes.")


if __name__ == "__main__":
    main()
