"""The FEA process: FIB, interfaces, raw sockets, multicast FIB — as XRLs."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.core.process import Host, XorpProcess
from repro.fea.backends import FibBackend, make_backend
from repro.fea.driver import BackendDriver
from repro.fea.fib import Fib, FibEntry
from repro.fea.ifmgr import InterfaceManager
from repro.fea.rawsock import PacketIO, RawSocketRelay
from repro.interfaces import (
    COMMON_IDL,
    FEA_FIB_IDL,
    FEA_IFMGR_IDL,
    FEA_MFIB_IDL,
    FEA_RAWPKT4_IDL,
    parallel_values,
)
from repro.net import IPNet, IPv4
from repro.profiler import PROFILER_IDL, Profiler
from repro.xrl import XrlArgs, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl


class MfcEntry:
    """One multicast forwarding cache entry: (S, G) -> iif, oifs."""

    __slots__ = ("source", "group", "iif", "oifs")

    def __init__(self, source: IPv4, group: IPv4, iif: str, oifs: Tuple[str, ...]):
        self.source = source
        self.group = group
        self.iif = iif
        self.oifs = tuple(oifs)

    def __repr__(self) -> str:
        return f"MfcEntry(({self.source},{self.group}) iif={self.iif} oifs={self.oifs})"


class FeaProcess(XorpProcess):
    """Forwarding Engine Abstraction as a XORP process."""

    process_name = "fea"
    version = "repro-fea/1.0"

    def __init__(self, host: Host, *, packet_io: Optional[PacketIO] = None,
                 backend: Union[str, FibBackend] = "trie",
                 backend_options: Optional[dict] = None,
                 driver_options: Optional[dict] = None):
        super().__init__(host)
        self.xrl = self.create_router("fea", singleton=True)
        #: shadow tables: the control plane's *intended* forwarding state.
        #: Lookups are always served from here, so the FEA keeps answering
        #: even while the dataplane backend is down (graceful degradation).
        self.fib4 = Fib(32)
        self.fib6 = Fib(128)
        if isinstance(backend, str):
            backend = make_backend(backend, **(backend_options or {}))
        self.backend = backend
        self.driver = BackendDriver(backend, self.loop,
                                    fib4=self.fib4, fib6=self.fib6,
                                    **(driver_options or {}))
        self.driver.register_metrics(self.metrics)
        self.metrics.gauge("backend.healthy", lambda: self.backend.healthy)
        self.ifmgr = InterfaceManager()
        self.mfib: Dict[Tuple[int, int], MfcEntry] = {}
        self.relay: Optional[RawSocketRelay] = None
        if packet_io is not None:
            self.attach_packet_io(packet_io)
        self.profiler = Profiler(self.loop.clock)
        self._prof_arrive = self.profiler.create("route_arrive_fea")
        self._prof_kernel = self.profiler.create("route_kernel")
        self.metrics.gauge("fib4.routes", lambda: len(self.fib4))
        self.metrics.gauge("fib6.routes", lambda: len(self.fib6))
        self.metrics.gauge("mfib.entries", lambda: len(self.mfib))
        self.xrl.bind(FEA_FIB_IDL, self)
        self.xrl.bind(FEA_IFMGR_IDL, self)
        self.xrl.bind(FEA_RAWPKT4_IDL, self)
        self.xrl.bind(FEA_MFIB_IDL, self)
        self.xrl.bind(PROFILER_IDL, self.profiler)
        self.xrl.bind(COMMON_IDL, self)
        #: raw-socket creator classes whose lifetime we watch
        self._socket_creators: set = set()

    def attach_packet_io(self, packet_io: PacketIO) -> None:
        self.relay = RawSocketRelay(packet_io)
        self.relay.set_notifier(self._notify_recv_udp)

    # -- fea_fib/1.0 -----------------------------------------------------
    # One family-agnostic helper per arity: v4 and v6 share segmenting,
    # profiling, and the backpressure reply (queued / congested).
    def _fib_status(self) -> dict:
        return {"queued": self.driver.queued,
                "congested": self.driver.congested}

    def _fib_add(self, net, nexthop, ifname) -> dict:
        self._prof_arrive.log_op("add", net)
        # "the FEA will unconditionally install the route in the kernel or
        # the forwarding engine." — the shadow records the intent now; the
        # driver converges the backend to it.
        self.driver.add(FibEntry(net, nexthop, ifname))
        self._prof_kernel.log_op("add", net)
        return self._fib_status()

    def _fib_delete(self, net) -> dict:
        self._prof_arrive.log_op("delete", net)
        self.driver.delete(net)
        self._prof_kernel.log_op("delete", net)
        return self._fib_status()

    #: family suffix -> (net atom type, nexthop atom type)
    _FIB_FAMILY = {
        "4": (XrlAtomType.IPV4NET, XrlAtomType.IPV4),
        "6": (XrlAtomType.IPV6NET, XrlAtomType.IPV6),
    }

    def _fib_add_vector(self, family, nets, nexthops, ifnames) -> dict:
        net_type, nexthop_type = self._FIB_FAMILY[family]
        nets, nexthops, ifnames = parallel_values(
            "add_entries" + family, (nets, net_type),
            (nexthops, nexthop_type), (ifnames, XrlAtomType.TXT))
        entries = [FibEntry(net, nexthop, ifname)
                   for net, nexthop, ifname
                   in zip(nets, nexthops, ifnames)]
        prof_arrive = self._prof_arrive
        if prof_arrive.enabled:
            for entry in entries:
                prof_arrive.log_op("add", entry.net)
        # The vectorized segment reaches the backend as one apply() batch.
        self.driver.add_batch(entries)
        prof_kernel = self._prof_kernel
        if prof_kernel.enabled:
            for entry in entries:
                prof_kernel.log_op("add", entry.net)
        return self._fib_status()

    def _fib_delete_vector(self, family, nets) -> dict:
        (nets,) = parallel_values("delete_entries" + family,
                                  (nets, self._FIB_FAMILY[family][0]))
        prof_arrive = self._prof_arrive
        if prof_arrive.enabled:
            for net in nets:
                prof_arrive.log_op("delete", net)
        self.driver.delete_batch(nets)
        prof_kernel = self._prof_kernel
        if prof_kernel.enabled:
            for net in nets:
                prof_kernel.log_op("delete", net)
        return self._fib_status()

    def xrl_add_entry4(self, net, nexthop, ifname) -> dict:
        return self._fib_add(net, nexthop, ifname)

    def xrl_delete_entry4(self, net) -> dict:
        return self._fib_delete(net)

    def xrl_add_entries4(self, nets, nexthops, ifnames) -> dict:
        return self._fib_add_vector("4", nets, nexthops, ifnames)

    def xrl_delete_entries4(self, nets) -> dict:
        return self._fib_delete_vector("4", nets)

    def xrl_lookup_entry4(self, addr) -> dict:
        entry = self.fib4.lookup(addr)
        if entry is None:
            return {"resolves": False, "net": IPNet(IPv4(0), 0),
                    "nexthop": IPv4(0), "ifname": ""}
        ifname = entry.ifname
        if not ifname and not entry.nexthop.is_zero():
            # Recursive route: resolve the gateway to its interface.
            via = self.fib4.lookup(entry.nexthop)
            if via is not None:
                ifname = via.ifname
        return {"resolves": True, "net": entry.net,
                "nexthop": entry.nexthop, "ifname": ifname}

    def xrl_add_entries6(self, nets, nexthops, ifnames) -> dict:
        return self._fib_add_vector("6", nets, nexthops, ifnames)

    def xrl_delete_entries6(self, nets) -> dict:
        return self._fib_delete_vector("6", nets)

    def xrl_add_entry6(self, net, nexthop, ifname) -> dict:
        return self._fib_add(net, nexthop, ifname)

    def xrl_delete_entry6(self, net) -> dict:
        return self._fib_delete(net)

    # -- dataplane management -------------------------------------------
    def xrl_get_backend_status(self) -> dict:
        return {"backend": self.backend.name,
                "healthy": self.backend.healthy,
                "state": self.driver.status()}

    def xrl_get_queue_status(self) -> dict:
        return self._fib_status()

    def xrl_reconcile(self) -> dict:
        adds, deletes = self.driver.reconcile()
        return {"adds": adds, "deletes": deletes}

    # -- fea_ifmgr/1.0 ---------------------------------------------------
    def xrl_create_interface(self, ifname, addr, prefix_len) -> None:
        existing = self.ifmgr.find(ifname)
        if existing is None:
            self.ifmgr.create(ifname, addr, prefix_len)
        elif (existing.addr, existing.prefix_len) != (addr, prefix_len):
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"interface {ifname!r} exists as "
                f"{existing.addr}/{existing.prefix_len}")

    def xrl_get_interfaces(self) -> dict:
        return {"ifnames": ",".join(self.ifmgr.names())}

    def xrl_get_interface_addr4(self, ifname) -> dict:
        try:
            interface = self.ifmgr.get(ifname)
        except KeyError as exc:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, str(exc)) from exc
        return {"addr": interface.addr, "prefix_len": interface.prefix_len}

    def xrl_set_interface_enabled(self, ifname, enabled) -> None:
        try:
            self.ifmgr.get(ifname).enabled = enabled
        except KeyError as exc:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, str(exc)) from exc

    def xrl_get_interface_enabled(self, ifname) -> dict:
        try:
            return {"enabled": self.ifmgr.get(ifname).enabled}
        except KeyError as exc:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, str(exc)) from exc

    # -- fea_rawpkt4/1.0 (the §7 relay) -------------------------------------
    def _require_relay(self) -> RawSocketRelay:
        if self.relay is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                "this FEA has no packet I/O backend attached",
            )
        return self.relay

    def xrl_open_udp(self, creator, ifname, port) -> None:
        try:
            self._require_relay().open_udp(creator, ifname, port)
        except ValueError as exc:
            raise XrlError(XrlErrorCode.COMMAND_FAILED, str(exc)) from exc
        self._watch_socket_creator(str(creator))

    def _watch_socket_creator(self, creator: str) -> None:
        """Close a creator's sockets when its last instance dies.

        Without this, a crashed protocol's sockets would keep swallowing
        packets — and its restarted incarnation could not re-open them.
        """
        if creator in self._socket_creators:
            return
        self._socket_creators.add(creator)
        self.host.finder.watch(
            self._socket_watcher_name(), creator,
            lambda event, cls, instance, c=creator:
                self._creator_lifetime(c, event))

    def _socket_watcher_name(self) -> str:
        return f"fea-sock:{self.xrl.instance_name}"

    def _creator_lifetime(self, creator: str, event: str) -> None:
        from repro.xrl.finder import DEATH

        if (event == DEATH and self.running and self.relay is not None
                and not self.host.finder.class_instances(creator)):
            self.relay.close_all(creator)

    def shutdown(self) -> None:
        if self.running:
            unwatch = self.host.finder.unwatch
            watcher = self._socket_watcher_name()
            for creator in self._socket_creators:
                unwatch(watcher, creator)
            self.driver.close()
        super().shutdown()

    def xrl_close_udp(self, creator, ifname, port) -> None:
        self._require_relay().close_udp(creator, ifname, port)

    def xrl_send_udp(self, ifname, dst, port, payload) -> None:
        relay = self._require_relay()
        interface = self.ifmgr.find(ifname)
        if interface is None or not interface.enabled:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"interface {ifname!r} is missing or down",
            )
        relay.send_udp(ifname, interface.addr, dst, port, payload)

    def _notify_recv_udp(self, creator: str, ifname: str, src: IPv4,
                         port: int, payload: bytes) -> None:
        args = (XrlArgs().add_txt("ifname", ifname).add_ipv4("src", src)
                .add_u32("port", port).add_binary("payload", payload))
        xrl = Xrl(creator, "fea_rawpkt_client4", "1.0", "recv_udp", args)
        self.xrl.send(xrl)

    # -- fea_mfib/1.0 (PIM installs multicast routes directly, Figure 1) -----
    def xrl_add_mfc4(self, source, group, iif, oifs) -> None:
        key = (source.to_int(), group.to_int())
        oif_tuple = tuple(o for o in oifs.split(",") if o)
        self.mfib[key] = MfcEntry(source, group, iif, oif_tuple)

    def xrl_delete_mfc4(self, source, group) -> None:
        self.mfib.pop((source.to_int(), group.to_int()), None)
