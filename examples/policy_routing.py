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

from repro.bgp import BgpProcess, BgpState
from repro.bgp.peer import PeerConfig
from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.fea import FeaProcess
from repro.net import IPNet, IPv4
from repro.policy import PolicyResult, PolicyVM, RibVarRW, compile_source
from repro.rib import RibProcess
from repro.rib.route import RibRoute
from repro.xrl import Xrl, XrlArgs

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


def build_router(loop, name, local_as, router_id):
    host = Host(loop=loop)
    fea = FeaProcess(host)
    rib = RibProcess(host)
    bgp = BgpProcess(host, local_as=local_as, bgp_id=IPv4(router_id))
    return host, fea, rib, bgp


def main() -> None:
    loop = EventLoop(SimulatedClock())
    host1, fea1, rib1, bgp1 = build_router(loop, "r1", 65001, "1.1.1.1")
    host2, fea2, rib2, bgp2 = build_router(loop, "r2", 65002, "2.2.2.2")

    # Peering r1 <-> r2.
    s1, s2 = session_pair(loop, 0.002)
    p12 = bgp1.add_peer(PeerConfig(IPv4("10.0.0.2"), 65002, 65001,
                                   IPv4("10.0.0.1")))
    p21 = bgp2.add_peer(PeerConfig(IPv4("10.0.0.1"), 65001, 65002,
                                   IPv4("10.0.0.2")))
    p12.attach_session(s1)
    p21.attach_session(s2)
    for bgp in (bgp1, bgp2):
        args = (XrlArgs().add_txt("protocol", "static")
                .add_ipv4net("net", "10.0.0.0/24").add_ipv4("nexthop", "0.0.0.0")
                .add_u32("metric", 1).add_list("policytags", []))
        bgp.xrl.send_sync(Xrl("rib", "rib", "1.0", "add_route4", args),
                          deadline=10)
    p12.enable()
    p21.enable()
    loop.run_until(lambda: p21.fsm.state == BgpState.ESTABLISHED, timeout=60)

    print("== r1 announces three prefixes (no policy installed yet) ==")
    for prefix in ("99.1.0.0/16", "99.2.0.0/16", "203.0.113.0/24"):
        bgp1.xrl_originate_route4(IPNet.parse(prefix), IPv4("10.0.0.1"), True)
    loop.run_until(lambda: bgp2.decision.route_count >= 3, timeout=60)
    for net, route in sorted(bgp2.decision.winners.items(),
                             key=lambda kv: str(kv[0])):
        print(f"  r2: {net} localpref={route.attributes.local_pref} "
              f"communities={route.attributes.communities}")

    print("\n== operator installs the import policy on r2 (live) ==")
    args = (XrlArgs().add_u32("filter_id", 1)
            .add_txt("policy_source", IMPORT_POLICY))
    error, __ = bgp2.xrl.send_sync(
        Xrl("bgp", "policy", "0.1", "configure_filter", args), deadline=10)
    print(f"configure_filter: {'OK' if error.is_okay else error}")
    # Background re-filtering removes 203.0.113.0/24 and retags the rest.
    loop.run_until(
        lambda: IPNet.parse("203.0.113.0/24") not in bgp2.decision.winners,
        timeout=60)
    loop.run(duration=5)
    for net, route in sorted(bgp2.decision.winners.items(),
                             key=lambda kv: str(kv[0])):
        print(f"  r2: {net} localpref={route.attributes.local_pref} "
              f"communities={route.attributes.communities}")
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
