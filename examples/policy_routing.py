#!/usr/bin/env python3
"""Routing policy: the stack language in action (paper §8.3).

Two scenarios:

1. **BGP import policy** — r2 prefers routes from its "customer" peer by
   raising localpref, tags them with a community, and rejects a
   documentation prefix outright.  Installing the policy while routes are
   already present exercises the background re-filtering path ("when
   routing policy filters are changed by the operator and many routes
   need to be refiltered and reevaluated").
2. **RIB redistribution policy** — static routes are redistributed into
   RIP only if they match a filter, with the metric rewritten.

Run:  python examples/policy_routing.py
"""

from repro.bgp import BgpState
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.policy import PolicyResult, PolicyVM, RibVarRW, compile_source
from repro.rib.route import RibRoute
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import wire

R1_CONFIG = """
interfaces { interface eth0 { address: 10.0.0.1 } }
protocols { bgp {
    local-as: 65001 bgp-id: 1.1.1.1
    peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 enabled: true }
    network 99.1.0.0/16 { next-hop: 10.0.0.1 }
    network 99.2.0.0/16 { next-hop: 10.0.0.1 }
    network 203.0.113.0/24 { next-hop: 10.0.0.1 }
} }
"""

R2_CONFIG = """
interfaces { interface eth0 { address: 10.0.0.2 } }
protocols { bgp {
    local-as: 65002 bgp-id: 2.2.2.2
    peer 10.0.0.1 { as: 65001 local-ip: 10.0.0.2 enabled: true }
} }
"""

IMPORT_POLICY = """
# Prefer customer routes; drop the documentation prefix.
policy-statement customer-in {
    term drop-doc {
        from { network4 orlonger 203.0.113.0/24; }
        then { reject; }
    }
    term customer {
        from { neighbor: 10.0.0.1; }
        then { localpref: 200; community: 65002; accept; }
    }
}
"""


def build(loop, config):
    manager = RouterManager(Host(loop=loop))
    manager.load(config)
    manager.commit()
    return manager


def show_routes(bgp) -> None:
    for net, route in sorted(bgp.decision.winners.items(),
                             key=lambda kv: str(kv[0])):
        print(f"  r2: {net} localpref={route.attributes.local_pref} "
              f"communities={route.attributes.communities}")


def main() -> None:
    loop = EventLoop(SimulatedClock())
    r1, r2 = build(loop, R1_CONFIG), build(loop, R2_CONFIG)
    bgp2 = r2.modules["bgp"]
    p12 = r1.modules["bgp"].peers["10.0.0.2"]
    p21 = bgp2.peers["10.0.0.1"]
    wire(loop, p12, p21, 0.002)
    loop.run_until(lambda: p21.fsm.state == BgpState.ESTABLISHED, timeout=60)

    print("== r1 announces three prefixes (no policy installed yet) ==")
    loop.run_until(lambda: bgp2.decision.route_count >= 3, timeout=60)
    show_routes(bgp2)

    print("\n== operator installs the import policy on r2 (live) ==")
    # The commit sends BGP one configure_filter XRL carrying the source.
    r2.set("policy statement customer-in source", IMPORT_POLICY)
    r2.set("protocols bgp import-policy", "customer-in")
    r2.commit()
    print("configure_filter: OK")
    # Background re-filtering removes 203.0.113.0/24 and retags the rest.
    loop.run_until(
        lambda: IPNet.parse("203.0.113.0/24") not in bgp2.decision.winners,
        timeout=60)
    loop.run(duration=5)
    show_routes(bgp2)
    assert IPNet.parse("203.0.113.0/24") not in bgp2.decision.winners

    print("\n== RIB redistribution policy (standalone VM demo) ==")
    redist_policy = compile_source("""
        policy-statement redist-static {
            term lab-routes {
                from { protocol: "static"; network4 orlonger 172.16.0.0/12; }
                then { metric: 5; tag: 42; accept; }
            }
            term everything-else { then { reject; } }
        }
    """)
    vm = PolicyVM()
    for net_text in ("172.16.1.0/24", "192.168.1.0/24"):
        route = RibRoute(IPNet.parse(net_text), IPv4("10.0.0.2"), 1, "static")
        varrw = RibVarRW(route)
        verdict = vm.run(redist_policy, varrw)
        if verdict == PolicyResult.ACCEPT:
            rewritten = varrw.result()
            print(f"  {net_text}: ACCEPT metric={rewritten.metric} "
                  f"tags={rewritten.policytags}")
        else:
            print(f"  {net_text}: {verdict.value.upper()}")


if __name__ == "__main__":
    main()
