#!/usr/bin/env python3
"""A router as real OS processes, from one configuration text.

The Router Manager here is the same one ``quickstart.py`` uses; the only
difference is its launcher.  Handed a configuration, it works out that
it needs an FEA, a RIB and BGP, runs each as ``python -m repro.<module>``
(paper §6.1), waits for them to register with its Finder over TCP, and
configures them over XRLs: an interface into the FEA, its connected
route into the RIB, a ``network`` statement into BGP — which announces
the prefix to the RIB, which installs it in the FEA child's FIB.

Run:  python examples/multiprocess.py
"""

from repro.rtrmgr.spawn import SpawnManager
from repro.xrl import XrlArgs
from repro.xrl.xrl import Xrl

CONFIG = """
interfaces {
    interface eth0 { address: 10.0.0.1 prefix-length: 24 }
}
protocols {
    bgp {
        local-as: 65001
        bgp-id: 10.0.0.1
        network 203.0.113.0/24 { next-hop: 10.0.0.1 }
    }
}
"""


def fib_lookup(manager: SpawnManager, addr: str):
    """Ask the FEA child what its FIB holds for *addr*."""
    error, reply = manager.xrl.send_sync(
        Xrl("fea", "fea_fib", "1.0", "lookup_entry4",
            XrlArgs().add_ipv4("addr", addr)), deadline=5)
    if not error.is_okay or not reply.get_bool("resolves"):
        return None
    return f"{reply.get_ipv4net('net')} via {reply.get_ipv4('nexthop')}"


def main() -> None:
    manager = SpawnManager()
    try:
        manager.load(CONFIG)
        manager.commit()
        print("== modules the configuration called for ==")
        for name, child in manager.modules.items():
            print(f"{name}: pid {child.pid}")

        print("\n== waiting for the network to reach the FEA child's FIB ==")
        reached = manager.loop.run_until(
            lambda: fib_lookup(manager, "203.0.113.7") is not None,
            timeout=30)
        print(f"203.0.113.7 -> {fib_lookup(manager, '203.0.113.7')}")
        print(f"10.0.0.200  -> {fib_lookup(manager, '10.0.0.200')}")
        if not reached:
            raise SystemExit("the network never reached the FIB")
    finally:
        manager.shutdown()
    print("\nall children stopped")


if __name__ == "__main__":
    main()
