"""The OSPF-lite process: adjacencies, flooding, SPF, RIB feed."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.process import Host, XorpProcess
from repro.interfaces import COMMON_IDL, FEA_RAWPKT_CLIENT4_IDL, OSPF_IDL
from repro.net import IPNet, IPv4
from repro.ospf.packets import (
    ALL_SPF_ROUTERS,
    HelloPacket,
    LsUpdatePacket,
    OspfDecodeError,
    RouterLSA,
    decode_packet,
)
from repro.ospf.spf import shortest_path_routes
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl

#: stand-in UDP port for IP protocol 89 over the FEA relay (see DESIGN.md)
OSPF_PORT = 89

NEIGHBOR_DOWN = "Down"
NEIGHBOR_INIT = "Init"
NEIGHBOR_FULL = "Full"


class OspfInterface:
    __slots__ = ("ifname", "addr", "prefix_len", "cost", "hello_timer",
                 "neighbors")

    def __init__(self, ifname: str, addr: IPv4, prefix_len: int, cost: int):
        self.ifname = ifname
        self.addr = addr
        self.prefix_len = prefix_len
        self.cost = cost
        self.hello_timer = None
        #: router_id int -> Neighbor
        self.neighbors: Dict[int, "Neighbor"] = {}

    @property
    def subnet(self) -> IPNet:
        return IPNet(self.addr, self.prefix_len)


class Neighbor:
    __slots__ = ("router_id", "state", "dead_timer", "addr")

    def __init__(self, router_id: IPv4):
        self.router_id = router_id
        self.state = NEIGHBOR_INIT
        self.dead_timer = None
        self.addr: Optional[IPv4] = None


class OspfProcess(XorpProcess):
    """OSPF-lite as a XORP process."""

    process_name = "ospf"
    version = "repro-ospf/0.1"

    def __init__(self, host: Host, router_id: IPv4, *,
                 fea_target: str = "fea", rib_target: Optional[str] = "rib",
                 hello_interval: float = 10.0,
                 dead_interval: float = 40.0,
                 refresh_interval: float = 1800.0):
        super().__init__(host)
        self.router_id = router_id
        self.fea_target = fea_target
        self.rib_target = rib_target
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self.xrl = self.create_router("ospf", singleton=True)
        self.interfaces: Dict[str, OspfInterface] = {}
        #: router_id int -> RouterLSA
        self.lsdb: Dict[int, RouterLSA] = {}
        self._my_seq = 0
        self._spf_scheduled = False
        self.spf_runs = 0
        #: routes currently installed in the RIB: prefix -> (metric, nexthop)
        self._installed: Dict[IPNet, Tuple[int, IPv4]] = {}
        self.metrics.gauge("routes", lambda: len(self._installed))
        self.metrics.gauge("lsdb.entries", lambda: len(self.lsdb))
        self.metrics.gauge("spf.runs", lambda: self.spf_runs)
        self.xrl.bind(OSPF_IDL, self)
        self.xrl.bind(FEA_RAWPKT_CLIENT4_IDL, self)
        self.xrl.bind(COMMON_IDL, self)
        if rib_target is not None:
            self.xrl.send(Xrl(rib_target, "rib", "1.0", "add_igp_table4",
                              XrlArgs().add_txt("protocol", "ospf")))
        self.loop.call_periodic(refresh_interval, self._refresh_lsa,
                                name="ospf-refresh")

    # -- ospf/0.1 -------------------------------------------------------------
    def xrl_add_ospf_interface(self, ifname, addr, prefix_len, cost) -> None:
        if ifname in self.interfaces:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"OSPF already on {ifname!r}"
            )
        interface = OspfInterface(ifname, addr, int(prefix_len),
                                  max(1, int(cost)))
        self.interfaces[ifname] = interface
        args = (XrlArgs().add_txt("creator", self.xrl.class_name)
                .add_txt("ifname", ifname).add_u32("port", OSPF_PORT))
        self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                          "open_udp", args))
        self._send_hello(interface)
        interface.hello_timer = self.loop.call_periodic(
            self.hello_interval, lambda: self._send_hello(interface),
            name=f"ospf-hello-{ifname}")
        self._originate_lsa()

    def xrl_get_neighbors(self) -> dict:
        lines = []
        for interface in self.interfaces.values():
            for neighbor in interface.neighbors.values():
                lines.append(f"{neighbor.router_id}@{interface.ifname}:"
                             f"{neighbor.state}")
        return {"neighbors": ",".join(sorted(lines))}

    def xrl_get_lsdb(self) -> dict:
        lines = [f"{IPv4(rid)}:seq={lsa.seq}:links={len(lsa.links)}"
                 for rid, lsa in sorted(self.lsdb.items())]
        return {"lsdb": ",".join(lines)}

    def xrl_get_router_id(self) -> dict:
        return {"id": self.router_id}

    # -- hello protocol -----------------------------------------------------
    def _send_hello(self, interface: OspfInterface) -> None:
        heard = [IPv4(rid) for rid in interface.neighbors]
        hello = HelloPacket(self.router_id, int(self.hello_interval),
                            int(self.dead_interval), heard)
        self._send_packet(interface, hello.encode())

    def _on_hello(self, interface: OspfInterface, src: IPv4,
                  hello: HelloPacket) -> None:
        rid = hello.router_id.to_int()
        if rid == self.router_id.to_int():
            return
        neighbor = interface.neighbors.get(rid)
        if neighbor is None:
            neighbor = Neighbor(hello.router_id)
            interface.neighbors[rid] = neighbor
            # Answer immediately so the two-way check converges fast.
            self._send_hello(interface)
        neighbor.addr = src
        if neighbor.dead_timer is None:
            neighbor.dead_timer = self.loop.call_later(
                self.dead_interval,
                lambda: self._neighbor_dead(interface, rid),
                name="ospf-dead")
        else:
            neighbor.dead_timer.reschedule_after(self.dead_interval)
        two_way = any(n == self.router_id for n in hello.neighbors)
        if two_way and neighbor.state != NEIGHBOR_FULL:
            neighbor.state = NEIGHBOR_FULL
            self._originate_lsa()
            self._flood_lsdb_to(interface)
        elif not two_way and neighbor.state == NEIGHBOR_FULL:
            neighbor.state = NEIGHBOR_INIT
            self._originate_lsa()

    def _neighbor_dead(self, interface: OspfInterface, rid: int) -> None:
        neighbor = interface.neighbors.pop(rid, None)
        if neighbor is None:
            return
        # The failed router's LSA will age out; our own changes now.
        self._originate_lsa()
        self.lsdb.pop(rid, None)
        self._schedule_spf()

    # -- LSA origination and flooding ------------------------------------------
    def _originate_lsa(self) -> None:
        self._my_seq += 1
        lsa = RouterLSA(self.router_id, self._my_seq, [])
        for interface in self.interfaces.values():
            lsa.add_stub(interface.subnet, interface.cost)
            for neighbor in interface.neighbors.values():
                if neighbor.state == NEIGHBOR_FULL:
                    lsa.add_ptp(neighbor.router_id, interface.addr,
                                interface.cost)
        self.lsdb[self.router_id.to_int()] = lsa
        self._flood(lsa, exclude_ifname=None)
        self._schedule_spf()

    def _refresh_lsa(self) -> None:
        if self.interfaces:
            self._originate_lsa()

    def _flood(self, lsa: RouterLSA, exclude_ifname: Optional[str]) -> None:
        packet = LsUpdatePacket(self.router_id, [lsa]).encode()
        for interface in self.interfaces.values():
            if interface.ifname == exclude_ifname:
                continue
            if any(n.state == NEIGHBOR_FULL
                   for n in interface.neighbors.values()):
                self._send_packet(interface, packet)

    def _flood_lsdb_to(self, interface: OspfInterface) -> None:
        """A new adjacency formed: synchronise the whole database."""
        if not self.lsdb:
            return
        packet = LsUpdatePacket(self.router_id,
                                list(self.lsdb.values())).encode()
        self._send_packet(interface, packet)

    def _on_ls_update(self, interface: OspfInterface,
                      update: LsUpdatePacket) -> None:
        changed = False
        for lsa in update.lsas:
            rid = lsa.router_id.to_int()
            if rid == self.router_id.to_int():
                continue  # we are authoritative for our own LSA
            current = self.lsdb.get(rid)
            if current is not None and current.seq >= lsa.seq:
                continue
            self.lsdb[rid] = lsa
            self._flood(lsa, exclude_ifname=interface.ifname)
            changed = True
        if changed:
            self._schedule_spf()

    # -- packet I/O through the FEA relay -----------------------------------
    def _send_packet(self, interface: OspfInterface, payload: bytes) -> None:
        args = (XrlArgs().add_txt("ifname", interface.ifname)
                .add_ipv4("dst", ALL_SPF_ROUTERS).add_u32("port", OSPF_PORT)
                .add_binary("payload", payload))
        self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                          "send_udp", args))

    def xrl_recv_udp(self, ifname, src, port, payload) -> None:
        interface = self.interfaces.get(ifname)
        if interface is None or src == interface.addr:
            return
        try:
            packet = decode_packet(payload)
        except OspfDecodeError:
            return
        if isinstance(packet, HelloPacket):
            self._on_hello(interface, src, packet)
        elif isinstance(packet, LsUpdatePacket):
            self._on_ls_update(interface, packet)

    # -- SPF and the RIB ----------------------------------------------------
    def _schedule_spf(self) -> None:
        """Event-driven, debounced SPF — never a periodic scanner."""
        if self._spf_scheduled:
            return
        self._spf_scheduled = True
        self.loop.call_soon(self._run_spf)

    def _run_spf(self) -> None:
        self._spf_scheduled = False
        self.spf_runs += 1
        routes = shortest_path_routes(self.router_id, self.lsdb)
        # Our own connected subnets never go to the RIB from OSPF.
        own_subnets = {i.subnet for i in self.interfaces.values()}
        desired: Dict[IPNet, Tuple[int, IPv4]] = {
            prefix: (metric, nexthop)
            for prefix, (metric, nexthop, __) in routes.items()
            if prefix not in own_subnets
        }
        if self.rib_target is None:
            self._installed = desired
            return
        gone = [prefix for prefix in self._installed
                if prefix not in desired]
        if gone:
            # Everything one SPF run retires leaves as one XRL.
            for prefix in gone:
                del self._installed[prefix]
            args = (XrlArgs().add_txt("protocol", "ospf")
                    .add_list("nets", [XrlAtom("net", XrlAtomType.IPV4NET,
                                               prefix) for prefix in gone]))
            self.xrl.send(Xrl(self.rib_target, "rib", "1.0",
                              "delete_routes4", args), batch=True)
        for prefix, (metric, nexthop) in desired.items():
            current = self._installed.get(prefix)
            if current == (metric, nexthop):
                continue
            args = (XrlArgs().add_txt("protocol", "ospf")
                    .add_ipv4net("net", prefix).add_ipv4("nexthop", nexthop)
                    .add_u32("metric", metric).add_list("policytags", []))
            method = "add_route4" if current is None else "replace_route4"
            # A whole SPF install runs in one turn: coalesce on the wire.
            self.xrl.send(Xrl(self.rib_target, "rib", "1.0", method, args),
                          batch=True)
            self._installed[prefix] = (metric, nexthop)

    def shutdown(self) -> None:
        for interface in self.interfaces.values():
            if interface.hello_timer is not None:
                interface.hello_timer.cancel()
            for neighbor in interface.neighbors.values():
                if neighbor.dead_timer is not None:
                    neighbor.dead_timer.cancel()
        super().shutdown()
