#!/usr/bin/env python3
"""Route flap damping as a pluggable stage (paper §8.3).

    "Route flap damping was also not a part of our original BGP design.
    We are currently adding this functionality ... by adding another
    stage to the BGP pipeline.  The code does not impact other stages,
    which need not be aware that damping is occurring."

A flapping neighbour announces two prefixes into a router whose BGP
module puts the damping stage on every peering.  The flapping prefix
accumulates penalty, gets suppressed, and is only reused once its penalty
decays — while the stable prefix is completely unaffected.

Run:  python examples/flap_damping.py
"""

from repro.bgp import BgpProcess, BgpState
from repro.bgp.attributes import ASPath, PathAttributeList
from repro.bgp.messages import UpdateMessage
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.net import IPNet, IPv4
from repro.rtrmgr import RouterManager
from repro.simnet.baselines import Speaker, wire

CONFIG = """
interfaces { interface eth0 { address: 10.0.0.1 } }
protocols { bgp {
    local-as: 65000 bgp-id: 9.9.9.9
    peer 10.0.0.2 { as: 65001 local-ip: 10.0.0.1 enabled: true }
} }
"""


class DampedBgp(BgpProcess):
    """BGP with the damping stage on every peering, tuned for a fast
    demo: half-life 30 s."""

    def add_peer(self, config):
        config.enable_damping = True
        handler = super().add_peer(config)
        handler.damping.half_life = 30.0
        handler.damping.suppress_threshold = 2500.0
        handler.damping.reuse_threshold = 750.0
        return handler


def main() -> None:
    loop = EventLoop(SimulatedClock())
    host = Host(loop=loop)
    manager = RouterManager(host)
    manager.register_module_factory(
        "bgp", lambda **params: DampedBgp(host, **params))
    manager.load(CONFIG)
    manager.commit()
    bgp = manager.modules["bgp"]
    handler = bgp.peers["10.0.0.2"]

    # The flapping neighbour.
    flapper = Speaker(loop, "flapper", 65001, "1.1.1.1")
    flapper.add_peer("router", 65000)
    flapper.start()
    wire(loop, handler, flapper.peers["router"], 0.001)
    loop.run_until(lambda: handler.fsm.state == BgpState.ESTABLISHED,
                   timeout=60)

    stable = IPNet.parse("99.1.0.0/16")
    flappy = IPNet.parse("99.2.0.0/16")
    attributes = PathAttributeList(as_path=ASPath.from_sequence(65001),
                                   nexthop=IPv4("10.0.0.2"))
    flapper.inject(UpdateMessage(attributes=attributes, nlri=[stable, flappy]))
    loop.run_until(lambda: bgp.decision.route_count == 2, timeout=60)
    print(f"t={loop.now():6.0f}s  both prefixes installed")

    print("\n== the 99.2.0.0/16 origin starts flapping ==")
    for flap in range(4):
        flapper.inject(UpdateMessage(withdrawn=[flappy]))
        loop.run(duration=1.5)
        flapper.inject(UpdateMessage(attributes=attributes, nlri=[flappy]))
        loop.run(duration=1.5)
        penalty = handler.damping.penalty_of(flappy)
        present = flappy in bgp.decision.winners
        print(f"t={loop.now():6.0f}s  flap {flap + 1}: penalty={penalty:6.0f} "
              f"route present: {present}")

    assert flappy not in bgp.decision.winners, "expected suppression"
    assert stable in bgp.decision.winners, "stable prefix must be unaffected"
    print(f"\nt={loop.now():6.0f}s  99.2.0.0/16 is SUPPRESSED "
          f"(suppress_count={handler.damping.suppress_count}); "
          "99.1.0.0/16 untouched")

    print("\n== waiting for the penalty to decay below reuse threshold ==")
    loop.run_until(lambda: flappy in bgp.decision.winners, timeout=600)
    penalty = handler.damping.penalty_of(flappy)
    print(f"t={loop.now():6.0f}s  99.2.0.0/16 REUSED at penalty={penalty:.0f}")
    print(f"route: {bgp.decision.winners.exact(flappy)}")


if __name__ == "__main__":
    main()
