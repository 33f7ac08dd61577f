"""The Forwarding Engine Abstraction (paper §3, §7).

    "The FEA provides a stable API for communicating with a forwarding
    engine or engines."

The forwarding engine is pluggable: the FEA keeps *shadow tables*
(:class:`Fib`) holding the control plane's intended state and drives one
of the :mod:`~repro.fea.backends` — an in-memory table, or a
fault-injecting "netlink-like" channel in front of one — through a
:class:`~repro.fea.driver.BackendDriver` that owns retries, ack
timeouts, backpressure and failure-driven reconciliation.  The FEA also
plays its paper §7 security role: it relays raw network access on behalf
of sandboxed routing processes ("rather than sending UDP packets
directly, RIP sends and receives packets using XRL calls to the FEA"),
so no protocol process ever needs privileged socket access.
"""

from repro.fea.backends import (
    BACKENDS,
    BackendFaultPlan,
    FibBackend,
    FibOp,
    NetlinkFibBackend,
    TrieFibBackend,
    make_backend,
)
from repro.fea.driver import BackendDriver
from repro.fea.fib import Fib, FibEntry
from repro.fea.ifmgr import Interface, InterfaceManager
from repro.fea.fea import FeaProcess
from repro.fea.rawsock import LoopbackPacketIO, PacketIO

__all__ = [
    "BACKENDS",
    "BackendDriver",
    "BackendFaultPlan",
    "FeaProcess",
    "Fib",
    "FibBackend",
    "FibEntry",
    "FibOp",
    "Interface",
    "InterfaceManager",
    "LoopbackPacketIO",
    "NetlinkFibBackend",
    "PacketIO",
    "TrieFibBackend",
    "make_backend",
]
