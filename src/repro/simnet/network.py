"""Hosts, links, datagram delivery and packet forwarding."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp.session import session_pair
from repro.core.process import Host
from repro.eventloop import EventLoop, SimulatedClock
from repro.fea import FeaProcess
from repro.fea.rawsock import DeliveryCallback, PacketIO
from repro.net import IPv4
from repro.rtrmgr import RouterManager

RIP_MCAST = IPv4("224.0.0.9")


class _LinkEnd:
    __slots__ = ("router", "ifname", "addr")

    def __init__(self, router: "SimRouter", ifname: str, addr: IPv4):
        self.router = router
        self.ifname = ifname
        self.addr = addr


class Link:
    """A point-to-point link with one-way latency."""

    def __init__(self, network: "SimNetwork", end_a: _LinkEnd, end_b: _LinkEnd,
                 delay: float = 0.001):
        self.network = network
        self.ends = (end_a, end_b)
        self.delay = delay
        self.up = True
        self.packets_carried = 0

    def other_end(self, end: _LinkEnd) -> _LinkEnd:
        return self.ends[1] if end is self.ends[0] else self.ends[0]

    def transmit(self, from_end: _LinkEnd, src: IPv4, dst: IPv4, port: int,
                 payload: bytes) -> None:
        if not self.up:
            return
        to_end = self.other_end(from_end)
        self.packets_carried += 1

        def deliver() -> None:
            if not self.up:
                return
            # Deliver if addressed to the far end, multicast, or broadcast.
            if (dst == to_end.addr or dst.is_multicast()
                    or dst == IPv4.all_ones()):
                to_end.router.packet_io.deliver(
                    to_end.ifname, src, port, payload)
            else:
                # Not for the far interface itself: hand to forwarding.
                self.network.forward(to_end.router, src, dst, port, payload)

        self.network.loop.call_later(self.delay, deliver, name="link")

    def set_up(self, up: bool) -> None:
        self.up = up


class SimPacketIO(PacketIO):
    """Per-router datagram backend, wired to that router's links."""

    def __init__(self) -> None:
        self._deliver: Optional[DeliveryCallback] = None
        self._ends: Dict[str, Tuple[Link, _LinkEnd]] = {}

    def attach(self, ifname: str, link: Link, end: _LinkEnd) -> None:
        self._ends[ifname] = (link, end)

    def bind(self, deliver: DeliveryCallback) -> None:
        self._deliver = deliver

    def send(self, ifname: str, src: IPv4, dst: IPv4, port: int,
             payload: bytes) -> None:
        entry = self._ends.get(ifname)
        if entry is None:
            return  # interface exists but is not linked: drop
        link, end = entry
        link.transmit(end, src, dst, port, payload)

    def deliver(self, ifname: str, src: IPv4, port: int,
                payload: bytes) -> None:
        if self._deliver is not None:
            self._deliver(ifname, src, port, payload)


class SimRouter:
    """One router: its own Host (Finder, process isolation) and Router
    Manager, whose FEA sends and receives datagrams over this router's
    links.  Protocols are configured through ``manager``; its links are
    ``interfaces`` in the same configuration."""

    def __init__(self, network: "SimNetwork", name: str):
        self.network = network
        self.name = name
        self.loop = network.loop
        self.host = Host(loop=network.loop)
        self.packet_io = SimPacketIO()
        self.manager = RouterManager(self.host)
        self.manager.register_module_factory(
            "fea", lambda: FeaProcess(self.host, packet_io=self.packet_io))
        self.manager.commit()    # every router has an FEA and a RIB

    @property
    def fea(self) -> FeaProcess:
        return self.manager.modules["fea"]

    @property
    def rib(self):
        return self.manager.modules["rib"]


class SimNetwork:
    """The simulation: routers, links, and hop-by-hop forwarding."""

    def __init__(self, loop: Optional[EventLoop] = None):
        self.loop = loop if loop is not None else EventLoop(SimulatedClock())
        self.routers: Dict[str, SimRouter] = {}
        self.links: List[Link] = []
        #: delivered end-to-end payloads: (router, dst, port, payload)
        self.delivered: List[Tuple[str, IPv4, int, bytes]] = []
        self.dropped = 0

    def add_router(self, name: str) -> SimRouter:
        if name in self.routers:
            raise ValueError(f"router {name!r} already exists")
        router = SimRouter(self, name)
        self.routers[name] = router
        return router

    def link(self, router_a: SimRouter, addr_a: str,
             router_b: SimRouter, addr_b: str, *,
             prefix_len: int = 24, delay: float = 0.001) -> Link:
        """Connect two routers with a point-to-point link.

        Each end is the router's next ``eth<n>`` interface, which its
        manager commits — filing the connected route in that router's RIB.
        """
        ends = []
        for router, addr in ((router_a, addr_a), (router_b, addr_b)):
            ifname = f"eth{len(router.fea.ifmgr)}"
            router.manager.set(f"interfaces interface {ifname} address", addr)
            router.manager.set(f"interfaces interface {ifname} prefix-length",
                               prefix_len)
            ends.append(_LinkEnd(router, ifname, IPv4(addr)))
        link = Link(self, *ends, delay)
        for end in ends:
            end.router.packet_io.attach(end.ifname, link, end)
            end.router.manager.commit()
        self.links.append(link)
        return link

    # -- BGP session plumbing --------------------------------------------------
    def bgp_session(self, latency: float = 0.001):
        """A connected byte-stream pair for a BGP peering."""
        return session_pair(self.loop, latency)

    # -- data-plane forwarding -------------------------------------------------
    def send_packet(self, from_router: SimRouter, src: IPv4, dst: IPv4,
                    port: int, payload: bytes, ttl: int = 64) -> None:
        """Inject a packet at *from_router* and let the FIBs carry it."""
        self.forward(from_router, src, dst, port, payload, ttl)

    def forward(self, router: SimRouter, src: IPv4, dst: IPv4, port: int,
                payload: bytes, ttl: int = 64) -> None:
        """One forwarding step through *router*'s simulated kernel FIB."""
        # Destined to one of this router's own addresses?
        for interface in router.fea.ifmgr:
            if interface.addr == dst:
                self.delivered.append((router.name, dst, port, payload))
                return
        if ttl <= 0:
            self.dropped += 1
            return
        ifname = router.fea.xrl_lookup_entry4(dst)["ifname"]
        linked = router.packet_io._ends.get(ifname)
        if linked is None:
            self.dropped += 1
            return
        link, end = linked
        to_end = link.other_end(end)
        hop_dst = dst

        def deliver() -> None:
            if not link.up:
                self.dropped += 1
                return
            self.forward(to_end.router, src, hop_dst, port, payload, ttl - 1)

        self.loop.call_later(link.delay, deliver, name="forward")

    def run(self, duration: float) -> None:
        self.loop.run(duration=duration)

    def run_until(self, predicate: Callable[[], bool],
                  timeout: float = 60.0) -> bool:
        return self.loop.run_until(predicate, timeout=timeout)
