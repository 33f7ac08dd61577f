#!/usr/bin/env python3
"""Quickstart: build a router, configure it through the CLI, watch routes.

Two routers on a link.  Router r1 is managed through the Router Manager's
CLI exactly as an operator would drive XORP: edit the candidate
configuration, commit, inspect state.  RIP converges between the routers
and a packet is forwarded end-to-end through the simulated FIBs.

Run:  python examples/quickstart.py
"""

from repro.net import IPv4
from repro.rip import RipProcess
from repro.rtrmgr import Cli
from repro.simnet import SimNetwork

#: r2 runs RIP on both its links and advertises its connected subnets
R2_CONFIG = """
protocols { rip { interface eth0 { } interface eth1 { } redistribute connected { } } }
"""

#: what the operator types on r1
R1_SESSION = [
    "set protocols rip interface eth0 cost 1",
    "create protocols rip redistribute connected",
    "set protocols static route 192.168.50.0/24 next-hop 10.0.0.2",
]


def main() -> None:
    network = SimNetwork()
    r1 = network.add_router("r1")
    r2 = network.add_router("r2")
    network.link(r1, "10.0.0.1", r2, "10.0.0.2", prefix_len=24)
    network.link(r2, "10.0.1.1", network.add_router("r3"), "10.0.1.2",
                 prefix_len=24)
    network.run(duration=1)

    # r2's RIP runs demo timers; its configuration is merged over the
    # interfaces its links committed.  r1 is driven through the CLI.
    r2.manager.register_module_factory(
        "rip", lambda: RipProcess(r2.host, update_interval=5.0,
                                  triggered_delay=0.5))
    r2.manager.config.load(R2_CONFIG)
    r2.manager.commit()

    cli = Cli(r1.manager)
    print("== operator session on r1 ==")
    for line in [*R1_SESSION, "show candidate", "commit", "show modules"]:
        print(f"r1> {line}")
        output = cli.execute(line)
        if output:
            print(output)

    print("\n== waiting for RIP convergence ==")
    converged = network.run_until(
        lambda: r1.fea.fib4.lookup(IPv4("10.0.1.2")) is not None, timeout=120)
    print(f"converged: {converged}")

    print("\n== r1 forwarding table ==")
    print(cli.execute("show route"))

    print("\n== r1 RIP status ==")
    print(cli.execute("show rip"))

    print("\n== forwarding a packet r1 -> 10.0.1.2 (r3) ==")
    network.send_packet(r1, IPv4("10.0.0.1"), IPv4("10.0.1.2"), 7, b"hello")
    delivered = network.run_until(lambda: bool(network.delivered), timeout=10)
    if delivered:
        name, dst, port, payload = network.delivered[0]
        print(f"delivered at {name}: dst={dst} payload={payload!r}")
    else:
        print("packet was not delivered!")

    print("\n== scripting an XRL, as call_xrl would ==")
    print(cli.execute('call "finder://rib/rib/1.0/lookup_route_by_dest4'
                      '?addr:ipv4=10.0.1.2"'))


if __name__ == "__main__":
    main()
