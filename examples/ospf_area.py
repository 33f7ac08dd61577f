#!/usr/bin/env python3
"""OSPF-lite: link-state routing with event-driven SPF.

The paper notes "support for OSPF and IS-IS is under development" for
XORP 1.0; this reproduction ships an OSPF-lite as its extension exercise.
Four routers in a square; costs steer traffic one way around; when the
preferred path's link dies, SPF immediately (event-driven, no scanner)
reconverges the FIBs the other way around.

    r1 ----1---- r2
     |            |
     5            1
     |            |
    r4 ----1---- r3

Run:  python examples/ospf_area.py
"""

from repro.net import IPNet, IPv4
from repro.ospf import OspfProcess
from repro.simnet import SimNetwork

#: each router's OSPF, merged over the interfaces its links committed;
#: the r1-r4 edge is expensive
CONFIGS = {
    "r1": "protocols { ospf { router-id: 1.1.1.1 "
          "interface eth0 { cost: 1 } interface eth1 { cost: 5 } } }",
    "r2": "protocols { ospf { router-id: 2.2.2.2 "
          "interface eth0 { cost: 1 } interface eth1 { cost: 1 } } }",
    "r3": "protocols { ospf { router-id: 3.3.3.3 "
          "interface eth0 { cost: 1 } interface eth1 { cost: 1 } } }",
    "r4": "protocols { ospf { router-id: 4.4.4.4 "
          "interface eth0 { cost: 1 } interface eth1 { cost: 5 } } }",
}


def main() -> None:
    network = SimNetwork()
    r1, r2, r3, r4 = (network.add_router(name) for name in CONFIGS)
    network.link(r1, "10.0.12.1", r2, "10.0.12.2")   # r1 eth0 / r2 eth0
    network.link(r2, "10.0.23.2", r3, "10.0.23.3")   # r2 eth1 / r3 eth0
    network.link(r3, "10.0.34.3", r4, "10.0.34.4")   # r3 eth1 / r4 eth0
    network.link(r4, "10.0.14.4", r1, "10.0.14.1")   # r4 eth1 / r1 eth1
    network.run(duration=0.5)

    for router in (r1, r2, r3, r4):
        # Demo timers: hellos every second, a neighbour dead after four.
        router.manager.register_module_factory(
            "ospf", lambda host=router.host, **params: OspfProcess(
                host, hello_interval=1.0, dead_interval=4.0, **params))
        router.manager.config.load(CONFIGS[router.name])
        router.manager.commit()
    ospf1 = r1.manager.modules["ospf"]

    print("== waiting for the area to converge ==")
    target = IPNet.parse("10.0.34.0/24")  # the r3-r4 subnet, seen from r1
    assert network.run_until(
        lambda: (r1.fea.fib4.exact(target) is not None
                 and r1.fea.fib4.exact(target).nexthop == IPv4("10.0.12.2")),
        timeout=60)
    entry = r1.fea.fib4.exact(target)
    print(f"r1 -> {target}: via {entry.nexthop} "
          f"(the cheap way, around through r2/r3)")
    print(f"r1 LSDB: {ospf1.xrl_get_lsdb()['lsdb']}")
    print(f"r1 SPF runs so far: {ospf1.spf_runs}")

    print("\n== the r2-r3 link fails ==")
    network.links[1].set_up(False)
    assert network.run_until(
        lambda: (r1.fea.fib4.exact(target) is not None
                 and r1.fea.fib4.exact(target).nexthop == IPv4("10.0.14.4")),
        timeout=60)
    entry = r1.fea.fib4.exact(target)
    print(f"r1 -> {target}: via {entry.nexthop} "
          f"(rerouted over the expensive r1-r4 edge)")
    print(f"reconverged at t={network.loop.now():.1f}s "
          f"(dead interval 4s; no 30-second scanner in sight)")

    print("\n== data plane check: r1 sends a packet to 10.0.34.3 ==")
    network.send_packet(r1, IPv4("10.0.12.1"), IPv4("10.0.34.3"), 7, b"ping")
    assert network.run_until(lambda: bool(network.delivered), timeout=10)
    name, dst, port, payload = network.delivered[0]
    print(f"delivered at {name}: {payload!r}")


if __name__ == "__main__":
    main()
