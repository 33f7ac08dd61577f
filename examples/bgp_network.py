#!/usr/bin/env python3
"""A three-AS BGP network: propagation, best-path selection, peer failure.

Topology (each router is a full stack: BGP + RIB + FEA processes, built
by its Router Manager from the configuration below)::

    AS65001 (r1) ---- AS65002 (r2) ---- AS65003 (r3)
        \\_________________________________/
                 (backup path)

r1 originates a prefix; r3 receives it over both paths and picks the
shorter AS path.  When the operator disables the direct r1-r3 peering,
r3 reconverges on the transit path through r2 — the deletion of the
failed peering's routes happens in a dynamic background deletion stage
(paper §5.1.2).

Run:  python examples/bgp_network.py
"""

from repro.bgp import BgpState
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import wire

R1_CONFIG = """
interfaces { interface eth0 { address: 10.0.12.1 } interface eth1 { address: 10.0.13.1 } }
protocols { bgp {
    local-as: 65001 bgp-id: 1.1.1.1
    peer 10.0.12.2 { as: 65002 local-ip: 10.0.12.1 enabled: true }
    peer 10.0.13.3 { as: 65003 local-ip: 10.0.13.1 enabled: true }
    network 99.0.0.0/8 { next-hop: 10.0.12.1 }
} }
"""

R2_CONFIG = """
interfaces { interface eth0 { address: 10.0.12.2 } interface eth1 { address: 10.0.23.2 } }
protocols { bgp {
    local-as: 65002 bgp-id: 2.2.2.2
    peer 10.0.12.1 { as: 65001 local-ip: 10.0.12.2 enabled: true }
    peer 10.0.23.3 { as: 65003 local-ip: 10.0.23.2 enabled: true }
} }
"""

R3_CONFIG = """
interfaces { interface eth0 { address: 10.0.23.3 } interface eth1 { address: 10.0.13.3 } }
protocols { bgp {
    local-as: 65003 bgp-id: 3.3.3.3
    peer 10.0.23.2 { as: 65002 local-ip: 10.0.23.3 enabled: true }
    peer 10.0.13.1 { as: 65001 local-ip: 10.0.13.3 enabled: true }
} }
"""

PREFIX = IPNet.parse("99.0.0.0/8")


def build(loop, config):
    manager = RouterManager(Host(loop=loop))
    manager.load(config)
    manager.commit()
    return manager


def as_path(manager):
    route = manager.modules["bgp"].decision.winners.get(PREFIX)
    return None if route is None else route.attributes.as_path.as_list()


def show_bgp_route(name, manager):
    route = manager.modules["bgp"].decision.winners.get(PREFIX)
    if route is None:
        return f"{name}: {PREFIX}: no route"
    return (f"{name}: {PREFIX} via {route.nexthop} "
            f"as-path [{route.attributes.as_path}]")


def main() -> None:
    loop = EventLoop(SimulatedClock())
    r1, r2, r3 = (build(loop, config)
                  for config in (R1_CONFIG, R2_CONFIG, R3_CONFIG))

    print("== establishing peerings ==")
    peers = []
    for a, addr_a, b, addr_b in ((r1, "10.0.12.1", r2, "10.0.12.2"),
                                 (r2, "10.0.23.2", r3, "10.0.23.3"),
                                 (r1, "10.0.13.1", r3, "10.0.13.3")):
        peers += [a.modules["bgp"].peers[addr_b], b.modules["bgp"].peers[addr_a]]
        wire(loop, peers[-2], peers[-1], 0.002)
    ok = loop.run_until(
        lambda: all(p.fsm.state == BgpState.ESTABLISHED for p in peers),
        timeout=120)
    print(f"all sessions established: {ok}")

    print(f"\n== r1's configuration originates {PREFIX} ==")
    loop.run_until(lambda: as_path(r3) is not None, timeout=60)
    loop.run(duration=10)  # let both paths arrive
    print(show_bgp_route("r2", r2))
    print(show_bgp_route("r3", r3))
    assert as_path(r3) == [65001], "r3 must prefer the direct (shorter) path"
    print("r3 prefers the direct path, as-path length 1")

    print("\n== the operator disables the direct r1-r3 peering ==")
    r1.set("protocols bgp peer 10.0.13.3 enabled", False)
    r1.commit()
    loop.run_until(lambda: as_path(r3) == [65002, 65001], timeout=120)
    print(show_bgp_route("r3", r3))
    print(f"r3 reconverged on the transit path; deletion stages created at "
          f"r3: {r3.modules['bgp'].peers['10.0.13.1'].deletion_stages_created}")

    print("\n== peering restored ==")
    r1.set("protocols bgp peer 10.0.13.3 enabled", True)
    r1.commit()
    loop.run_until(lambda: as_path(r3) == [65001], timeout=180)
    print(show_bgp_route("r3", r3))
    print("r3 back on the direct path")

    print("\n== forwarding state at r3 ==")
    loop.run(duration=5)  # let the RIB/FEA streams drain
    entry = r3.modules["fea"].fib4.lookup(IPv4("99.1.2.3"))
    print(f"FIB: 99.1.2.3 -> {entry}")


if __name__ == "__main__":
    main()
