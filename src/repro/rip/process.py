"""The RIP process: route database, timers, and FEA-relayed packet I/O."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.process import Host, XorpProcess
from repro.interfaces import (
    COMMON_IDL,
    FEA_RAWPKT_CLIENT4_IDL,
    REDIST4_IDL,
    RIP_IDL,
)
from repro.net import IPNet, IPv4
from repro.rip.packets import (
    RIP_COMMAND_REQUEST,
    RIP_COMMAND_RESPONSE,
    RIP_INFINITY,
    RIP_MAX_ENTRIES,
    RIP_MCAST_GROUP,
    RIP_PORT,
    RipEntry,
    RipPacket,
    RipPacketError,
)
from repro.trie import RouteTrie
from repro.xrl import XrlArgs, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl


class RipPort:
    """One RIP-enabled interface."""

    __slots__ = ("ifname", "addr", "cost", "enabled", "update_timer",
                 "packets_in", "packets_out", "bad_packets", "password")

    def __init__(self, ifname: str, addr: IPv4, cost: int = 1):
        self.ifname = ifname
        self.addr = addr
        self.cost = cost
        self.enabled = True
        self.update_timer = None
        self.packets_in = 0
        self.packets_out = 0
        self.bad_packets = 0
        self.password: Optional[str] = None  # simple-password auth


class RipRouteEntry:
    __slots__ = ("net", "nexthop", "metric", "tag", "ifname", "origin",
                 "timeout_timer", "gc_timer", "changed", "is_local")

    def __init__(self, net: IPNet, nexthop: IPv4, metric: int, *,
                 tag: int = 0, ifname: str = "",
                 origin: Optional[IPv4] = None, is_local: bool = False):
        self.net = net
        self.nexthop = nexthop
        self.metric = metric
        self.tag = tag
        self.ifname = ifname
        self.origin = origin  # the advertising neighbour (None for local)
        self.timeout_timer = None
        self.gc_timer = None
        self.changed = False
        self.is_local = is_local

    def __repr__(self) -> str:
        return (f"RipRouteEntry({self.net} via {self.nexthop} "
                f"metric={self.metric})")


class RipProcess(XorpProcess):
    """RIP as a XORP process, sandboxed behind the FEA relay."""

    process_name = "rip"
    version = "repro-rip/1.0"

    def __init__(self, host: Host, *, fea_target: str = "fea",
                 rib_target: Optional[str] = "rib",
                 update_interval: float = 30.0,
                 route_timeout: float = 180.0,
                 gc_timeout: float = 120.0,
                 triggered_delay: float = 2.0,
                 poisoned_reverse: bool = True):
        super().__init__(host)
        self.fea_target = fea_target
        self.rib_target = rib_target
        self.update_interval = update_interval
        self.route_timeout = route_timeout
        self.gc_timeout = gc_timeout
        self.triggered_delay = triggered_delay
        self.poisoned_reverse = poisoned_reverse
        self.xrl = self.create_router("rip", singleton=True)
        self.ports: Dict[str, RipPort] = {}
        self.routes = RouteTrie(32)
        self._triggered_pending = False
        self.metrics.gauge("routes", lambda: len(self.routes))
        self.metrics.gauge("ports", lambda: len(self.ports))
        self.xrl.bind(RIP_IDL, self)
        self.xrl.bind(FEA_RAWPKT_CLIENT4_IDL, self)
        self.xrl.bind(REDIST4_IDL, self)
        self.xrl.bind(COMMON_IDL, self)
        if rib_target is not None:
            self.xrl.send(Xrl(rib_target, "rib", "1.0", "add_igp_table4",
                              XrlArgs().add_txt("protocol", "rip")))

    # -- rip/1.0 -----------------------------------------------------------
    def xrl_add_rip_address(self, ifname: str, addr) -> None:
        if ifname in self.ports:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"RIP already on {ifname!r}"
            )
        port = RipPort(ifname, addr)
        self.ports[ifname] = port
        # Open UDP 520 through the FEA relay (paper §7) and solicit the
        # neighbours' tables.
        args = (XrlArgs().add_txt("creator", self.xrl.class_name)
                .add_txt("ifname", ifname).add_u32("port", RIP_PORT))
        self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                          "open_udp", args))
        self._send_packet(port, RipPacket.whole_table_request(),
                          RIP_MCAST_GROUP)
        port.update_timer = self.loop.call_periodic(
            self.update_interval, lambda: self._periodic_update(port),
            name=f"rip-update-{ifname}")

    def xrl_remove_rip_address(self, ifname: str, addr) -> None:
        port = self.ports.pop(ifname, None)
        if port is None:
            return
        if port.update_timer is not None:
            port.update_timer.cancel()
        args = (XrlArgs().add_txt("creator", self.xrl.class_name)
                .add_txt("ifname", ifname).add_u32("port", RIP_PORT))
        self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                          "close_udp", args))

    def xrl_set_cost(self, ifname: str, cost: int) -> None:
        port = self.ports.get(ifname)
        if port is None:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, f"no RIP on {ifname!r}")
        if not 1 <= cost < RIP_INFINITY:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, f"bad cost {cost}")
        port.cost = cost

    def xrl_set_authentication(self, ifname: str, password: str) -> None:
        """Enable RFC 2453 simple-password authentication on a port."""
        port = self.ports.get(ifname)
        if port is None:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, f"no RIP on {ifname!r}")
        port.password = password or None

    def xrl_get_counters(self, ifname: str) -> dict:
        port = self.ports.get(ifname)
        if port is None:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, f"no RIP on {ifname!r}")
        return {"packets_in": port.packets_in, "packets_out": port.packets_out,
                "bad_packets": port.bad_packets}

    def xrl_add_static_route(self, net, nexthop, cost) -> None:
        entry = RipRouteEntry(net, nexthop, min(cost, RIP_INFINITY),
                              is_local=True)
        self._install(entry)

    # -- redist4/0.1: routes redistributed from the RIB ----------------------
    def xrl_redist_add_route4(self, net, nexthop, metric, admin_distance,
                              protocol, policytags) -> None:
        tag = policytags[0].value if policytags else 0
        entry = RipRouteEntry(net, nexthop, min(max(int(metric), 1),
                                                RIP_INFINITY),
                              tag=tag, is_local=True)
        self._install(entry)

    def xrl_redist_delete_route4(self, net, protocol) -> None:
        entry = self.routes.exact(net)
        if entry is not None and entry.is_local:
            self._start_deletion(entry)

    # -- fea_rawpkt_client4/1.0: inbound packets -----------------------------
    def xrl_recv_udp(self, ifname: str, src, port: int, payload: bytes) -> None:
        rip_port = self.ports.get(ifname)
        if rip_port is None or not rip_port.enabled:
            return
        if src == rip_port.addr:
            return  # our own multicast echoed back
        rip_port.packets_in += 1
        try:
            packet = RipPacket.decode(payload)
        except RipPacketError:
            rip_port.bad_packets += 1
            return
        if rip_port.password is not None and \
                packet.auth_password != rip_port.password:
            rip_port.bad_packets += 1
            return  # authentication failure: drop silently (RFC 2453)
        if packet.command == RIP_COMMAND_REQUEST:
            self._handle_request(rip_port, src, packet)
        else:
            self._handle_response(rip_port, src, packet)

    # -- request/response processing -------------------------------------------
    def _handle_request(self, port: RipPort, src: IPv4,
                        packet: RipPacket) -> None:
        if len(packet.entries) == 1 and packet.entries[0].is_whole_table_request():
            self._send_full_table(port, dst=src)
            return
        # Specific-prefix request: answer each entry from the table.
        entries = []
        for asked in packet.entries:
            entry = self.routes.exact(asked.net)
            metric = entry.metric if entry is not None else RIP_INFINITY
            entries.append(RipEntry(asked.net, metric, tag=asked.tag))
        self._send_packet(port, RipPacket(RIP_COMMAND_RESPONSE, entries), src)

    def _handle_response(self, port: RipPort, src: IPv4,
                         packet: RipPacket) -> None:
        for rte in packet.entries:
            metric = min(rte.metric + port.cost, RIP_INFINITY)
            nexthop = rte.nexthop if not rte.nexthop.is_zero() else src
            self._process_rte(port, src, rte.net, nexthop, metric, rte.tag)

    def _process_rte(self, port: RipPort, src: IPv4, net: IPNet,
                     nexthop: IPv4, metric: int, tag: int) -> None:
        entry: Optional[RipRouteEntry] = self.routes.exact(net)
        if entry is None:
            if metric >= RIP_INFINITY:
                return  # poison for a route we never had
            entry = RipRouteEntry(net, nexthop, metric, tag=tag,
                                  ifname=port.ifname, origin=src)
            self._install(entry)
            return
        if entry.is_local:
            return  # our own routes always win
        same_origin = entry.origin == src
        if same_origin:
            self._refresh_timeout(entry)
            if metric != entry.metric or nexthop != entry.nexthop:
                self._update_entry(entry, nexthop, metric, port, src, tag)
        elif metric < entry.metric:
            self._update_entry(entry, nexthop, metric, port, src, tag)

    def _update_entry(self, entry: RipRouteEntry, nexthop: IPv4, metric: int,
                      port: RipPort, src: IPv4, tag: int) -> None:
        if metric >= RIP_INFINITY:
            if entry.metric < RIP_INFINITY:
                self._start_deletion(entry)
            return
        was_deleted = entry.metric >= RIP_INFINITY
        entry.nexthop = nexthop
        entry.metric = metric
        entry.tag = tag
        entry.ifname = port.ifname
        entry.origin = src
        entry.changed = True
        if entry.gc_timer is not None:
            entry.gc_timer.cancel()
            entry.gc_timer = None
        self._refresh_timeout(entry)
        self._rib_update(entry, "add" if was_deleted else "replace")
        self._schedule_triggered()

    # -- route table maintenance ---------------------------------------------
    def _install(self, entry: RipRouteEntry) -> None:
        previous = self.routes.insert(entry.net, entry)
        if previous is not None and previous.timeout_timer is not None:
            previous.timeout_timer.cancel()
        if previous is not None and previous.gc_timer is not None:
            previous.gc_timer.cancel()
        entry.changed = True
        if not entry.is_local:
            self._refresh_timeout(entry)
        self._rib_update(entry, "add" if previous is None else "replace")
        self._schedule_triggered()

    def _refresh_timeout(self, entry: RipRouteEntry) -> None:
        if entry.timeout_timer is not None:
            entry.timeout_timer.reschedule_after(self.route_timeout)
        else:
            entry.timeout_timer = self.loop.call_later(
                self.route_timeout, lambda: self._on_timeout(entry),
                name=f"rip-timeout")

    def _on_timeout(self, entry: RipRouteEntry) -> None:
        if self.routes.exact(entry.net) is entry:
            self._start_deletion(entry)

    def _start_deletion(self, entry: RipRouteEntry) -> None:
        """RFC 2453 deletion process: poison, hold for GC, then remove."""
        entry.metric = RIP_INFINITY
        entry.changed = True
        if entry.timeout_timer is not None:
            entry.timeout_timer.cancel()
            entry.timeout_timer = None
        entry.gc_timer = self.loop.call_later(
            self.gc_timeout, lambda: self._on_gc(entry), name="rip-gc")
        self._rib_update(entry, "delete")
        self._schedule_triggered()

    def _on_gc(self, entry: RipRouteEntry) -> None:
        if self.routes.exact(entry.net) is entry:
            self.routes.discard(entry.net)

    # -- RIB interaction ---------------------------------------------------
    def _rib_update(self, entry: RipRouteEntry, op: str) -> None:
        if self.rib_target is None:
            return
        if op == "delete":
            args = (XrlArgs().add_txt("protocol", "rip")
                    .add_ipv4net("net", entry.net))
            method = "delete_route4"
        else:
            args = (XrlArgs().add_txt("protocol", "rip")
                    .add_ipv4net("net", entry.net)
                    .add_ipv4("nexthop", entry.nexthop)
                    .add_u32("metric", entry.metric)
                    .add_list("policytags", []))
            method = "add_route4" if op == "add" else "replace_route4"
        # Triggered updates and full-table processing arrive in bursts
        # within one turn; let the wire coalesce them.
        self.xrl.send(Xrl(self.rib_target, "rib", "1.0", method, args),
                      batch=True)

    # -- update generation --------------------------------------------------
    def _advertised_entries(self, port: RipPort,
                            changed_only: bool) -> List[RipEntry]:
        entries = []
        for net, entry in self.routes.items():
            if changed_only and not entry.changed:
                continue
            metric = entry.metric
            if entry.ifname == port.ifname and not entry.is_local:
                if not self.poisoned_reverse:
                    continue  # simple split horizon
                metric = RIP_INFINITY  # poisoned reverse
            entries.append(RipEntry(net, metric, tag=entry.tag))
        return entries

    def _send_entries(self, port: RipPort, entries: List[RipEntry],
                      dst: IPv4) -> None:
        room = RIP_MAX_ENTRIES - (1 if port.password is not None else 0)
        for start in range(0, len(entries), room):
            chunk = entries[start : start + room]
            self._send_packet(
                port,
                RipPacket(RIP_COMMAND_RESPONSE, chunk,
                          auth_password=port.password),
                dst)

    def _send_full_table(self, port: RipPort, dst: IPv4) -> None:
        entries = self._advertised_entries(port, changed_only=False)
        if entries:
            self._send_entries(port, entries, dst)

    def _periodic_update(self, port: RipPort) -> None:
        if port.enabled:
            self._send_full_table(port, RIP_MCAST_GROUP)
            if port.ifname == sorted(self.ports)[0]:
                # Changed flags reset once per cycle, after all ports sent.
                self.loop.call_soon(self._clear_changed)

    def _schedule_triggered(self) -> None:
        """Triggered updates with suppression (RFC 2453 §3.10.1)."""
        if self._triggered_pending:
            return
        self._triggered_pending = True
        self.loop.call_later(self.triggered_delay, self._send_triggered,
                             name="rip-triggered")

    def _send_triggered(self) -> None:
        self._triggered_pending = False
        for port in self.ports.values():
            if not port.enabled:
                continue
            entries = self._advertised_entries(port, changed_only=True)
            if entries:
                self._send_entries(port, entries, RIP_MCAST_GROUP)
        self._clear_changed()

    def _clear_changed(self) -> None:
        if not self.running:  # deferred past shutdown: nothing to clear
            return
        for __, entry in self.routes.items():
            entry.changed = False

    def _send_packet(self, port: RipPort, packet: RipPacket,
                     dst: IPv4) -> None:
        port.packets_out += 1
        args = (XrlArgs().add_txt("ifname", port.ifname)
                .add_ipv4("dst", dst).add_u32("port", RIP_PORT)
                .add_binary("payload", packet.encode()))
        self.xrl.send(Xrl(self.fea_target, "fea_rawpkt4", "1.0",
                          "send_udp", args))

    def shutdown(self) -> None:
        for port in self.ports.values():
            if port.update_timer is not None:
                port.update_timer.cancel()
        super().shutdown()
