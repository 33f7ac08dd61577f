#!/usr/bin/env python3
"""Multicast: IGMP membership driving PIM-SM-lite (paper Figure 1).

A receiver joins a group via IGMP; PIM resolves the reverse path to the
rendezvous point through the RIB's interest registration and installs a
multicast forwarding entry directly in the FEA.  When unicast routing
towards the RP changes, the RIB invalidates PIM's registration and the
tree's incoming interface moves — the exact coupling Figure 1 draws.

Run:  python examples/multicast_pim.py
"""

from repro.net import IPv4
from repro.simnet import SimNetwork

#: The RP for 239.0.0.0/8 and a static route towards it via eth0, merged
#: over the interfaces the router's links committed.  PIM brings IGMP
#: (mld6igmp) up with it.
CONFIG = """
protocols {
    static { route 77.0.0.0/8 { next-hop: 10.1.0.2 } }
    pim { rp 239.0.0.0/8 { address: 77.0.0.1 } }
}
"""

#: the unicast routing change: a more specific route to the RP, via eth1
REROUTE = "protocols { static { route 77.0.0.0/16 { next-hop: 10.2.0.2 } } }"


def show_mfib(router) -> None:
    if not router.fea.mfib:
        print("  (empty)")
    for (source, group), entry in sorted(router.fea.mfib.items()):
        print(f"  ({IPv4(source)}, {IPv4(group)}) iif={entry.iif} "
              f"oifs={','.join(entry.oifs)}")


def main() -> None:
    network = SimNetwork()
    router = network.add_router("router")
    rp_near = network.add_router("rp-near")     # eth0 side
    rp_far = network.add_router("rp-far")       # eth1 side
    receivers = network.add_router("receivers")  # eth2 side
    network.link(router, "10.1.0.1", rp_near, "10.1.0.2")
    network.link(router, "10.2.0.1", rp_far, "10.2.0.2")
    network.link(router, "10.3.0.1", receivers, "10.3.0.2")
    network.run(duration=1)

    print("== configure the RP (77.0.0.1, reachable via eth0) ==")
    router.manager.config.load(CONFIG)
    router.manager.commit()
    igmp = router.manager.modules["mld6igmp"]
    network.run(duration=1)

    print("\n== a receiver on eth2 joins 239.1.1.1 (IGMP report) ==")
    igmp.xrl_add_membership4("eth2", IPv4("239.1.1.1"))
    network.run_until(lambda: bool(router.fea.mfib), timeout=20)
    print("multicast FIB:")
    show_mfib(router)
    entry = next(iter(router.fea.mfib.values()))
    assert entry.iif == "eth0"

    print("\n== unicast routing to the RP moves to eth1 ==")
    router.manager.config.load(REROUTE)
    router.manager.commit()
    network.run_until(
        lambda: next(iter(router.fea.mfib.values())).iif == "eth1",
        timeout=20)
    print("multicast FIB after the routing change:")
    show_mfib(router)

    print("\n== a second receiver joins on eth0; the first one leaves ==")
    igmp.xrl_add_membership4("eth0", IPv4("239.1.1.1"))
    network.run(duration=1)
    igmp.xrl_delete_membership4("eth2", IPv4("239.1.1.1"))
    network.run(duration=1)
    show_mfib(router)

    print("\n== the last receiver leaves: the tree is torn down ==")
    igmp.xrl_delete_membership4("eth0", IPv4("239.1.1.1"))
    network.run_until(lambda: not router.fea.mfib, timeout=20)
    show_mfib(router)
    print("done")


if __name__ == "__main__":
    main()
