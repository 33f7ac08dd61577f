"""The BGP process: pipeline assembly, XRL target, RIB interaction.

This is the composition root for paper Figure 5: per-peer input branches
(built in :mod:`repro.bgp.peer`) feed the shared decision process, whose
winners flow into the fanout queue with one reader per peer plus one
reader streaming best routes to the RIB over pipelined XRLs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.decision import DecisionStage, PeerInfo
from repro.bgp.fanout import FanoutQueue
from repro.bgp.nexthop import NexthopResolver, NexthopResolverStage
from repro.bgp.peer import PeerConfig, PeerHandler
from repro.bgp.route import BGPRoute
from repro.core.process import Host, XorpProcess
from repro.core.stages import OriginStage, RouteTableStage
from repro.core.txqueue import XrlTransmitQueue
from repro.interfaces import BGP_IDL, COMMON_IDL, POLICY_IDL, RIB_CLIENT_IDL
from repro.net import IPNet, IPv4
from repro.profiler import PROFILER_IDL, Profiler
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl

#: policy hook signature: (route, peer_handler) -> route | None
PolicyHook = Callable[[BGPRoute, Any], Optional[BGPRoute]]

LOCAL_PEER_ID = "local"

_IPV4NET, _IPV4, _U32 = (XrlAtomType.IPV4NET, XrlAtomType.IPV4,
                         XrlAtomType.U32)


class BgpProcess(XorpProcess):
    """BGP as a XORP process."""

    process_name = "bgp"
    version = "repro-bgp/1.0"

    def __init__(self, host: Host, *, local_as: int = 65000,
                 bgp_id: Optional[IPv4] = None,
                 rib_target: Optional[str] = "rib",
                 window: int = 100,
                 retry_policy=None):
        super().__init__(host)
        self.local_as = local_as
        self.bgp_id = bgp_id if bgp_id is not None else IPv4("127.0.0.1")
        self.rib_target = rib_target
        self.xrl = self.create_router("bgp", singleton=True)
        self.profiler = Profiler(self.loop.clock)
        self.prof_ribin = self.profiler.create("route_ribin")
        self._prof_queued_rib = self.profiler.create("route_queued_rib")
        self._prof_sent_rib = self.profiler.create("route_sent_rib")
        #: opt-in retry for the idempotent RIB route stream / queries
        self.retry_policy = retry_policy
        self.txq = XrlTransmitQueue(self.xrl, window=window,
                                    retry=retry_policy)
        self.peers: Dict[str, PeerHandler] = {}

        # Policy hooks; the policy process installs compiled filters here.
        self.import_policy: Optional[PolicyHook] = None
        self.export_policy: Optional[PolicyHook] = None

        # Shared pipeline pieces.
        self.resolver = NexthopResolver(self._query_rib_nexthop)
        self.decision = DecisionStage("decision", self.peer_info)
        self.fanout = FanoutQueue("fanout", self.loop)
        self.decision.set_next(self.fanout)
        self.fanout.add_reader("__rib__", self._rib_deliver, dump=False)
        #: protocol name the RIB currently files each prefix under
        self._rib_protocol: Dict[IPNet, str] = {}

        # Local route origination branch.
        self._local_info = PeerInfo(LOCAL_PEER_ID, is_ibgp=False,
                                    bgp_id=self.bgp_id, peer_addr=IPv4(0))
        self.local_origin = OriginStage("local-origin")
        self._local_resolver_stage = NexthopResolverStage(
            "nexthop-local", self.resolver)
        RouteTableStage.plumb(self.local_origin, self._local_resolver_stage)
        self.decision.add_branch(self._local_resolver_stage)

        self.txq.register_metrics(self.metrics)
        self.metrics.gauge("decision.routes", lambda: self.decision.route_count)
        self.metrics.gauge("fanout.depth", lambda: self.fanout.queue_length)
        self.metrics.gauge("peers", lambda: len(self.peers))

        self.xrl.bind(BGP_IDL, self)
        self.xrl.bind(POLICY_IDL, self)
        self.xrl.bind(RIB_CLIENT_IDL, self)
        self.xrl.bind(PROFILER_IDL, self.profiler)
        self.xrl.bind(COMMON_IDL, self)
        if rib_target is not None:
            self._register_rib_tables()
            # Watch the RIB's lifetime: when it dies and comes back we
            # must re-seed it (tables, interest, and every best route).
            self.watch_rebirth(rib_target, self.resync_rib)

    # -- peer info for the decision process ------------------------------------
    def peer_info(self, peer_id: str) -> PeerInfo:
        if peer_id == LOCAL_PEER_ID:
            return self._local_info
        handler = self.peers.get(peer_id)
        if handler is None:
            # A withdrawn peering's routes may still be draining; treat as
            # a worst-preference EBGP peer.
            return PeerInfo(peer_id, is_ibgp=False, bgp_id=IPv4.all_ones(),
                            peer_addr=IPv4.all_ones())
        return handler.info

    # -- policy hooks ------------------------------------------------------------
    def apply_import_policy(self, route: BGPRoute,
                            peer: PeerHandler) -> Optional[BGPRoute]:
        if self.import_policy is None:
            return route
        return self.import_policy(route, peer)

    def apply_export_policy(self, route: BGPRoute,
                            peer: PeerHandler) -> Optional[BGPRoute]:
        if self.export_policy is None:
            return route
        return self.export_policy(route, peer)

    # -- RIB interaction ------------------------------------------------------
    def _register_rib_tables(self) -> None:
        send = self.xrl.send
        for protocol in ("ebgp", "ibgp"):
            args = XrlArgs().add_txt("protocol", protocol)
            send(Xrl(self.rib_target, "rib", "1.0",
                     "add_egp_table4", args),
                 retry=self.retry_policy)

    def resync_rib(self) -> None:
        """Re-seed a restarted RIB (the resync contract in DESIGN.md).

        The new RIB has no ebgp/ibgp tables, no interest registrations,
        and none of our routes: re-create the tables, re-query every
        cached nexthop (which re-registers interest), and replay every
        winner through a fresh dumping fanout reader.
        """
        if self.rib_target is None or not self.running:
            return
        self._rib_protocol.clear()
        self._register_rib_tables()
        self.resolver.requery_all()
        self.fanout.remove_reader("__rib__")
        self.fanout.add_reader("__rib__", self._rib_deliver, dump=True)

    def _query_rib_nexthop(self, nexthop: IPv4, reply_cb) -> None:
        """register_interest4 with the RIB; synthetic answer without one."""
        if self.rib_target is None:
            self.loop.call_soon(
                reply_cb, IPNet(nexthop, 32), True, 0)
            return
        args = (XrlArgs().add_txt("target", self.xrl.class_name)
                .add_ipv4("addr", nexthop))
        xrl = Xrl(self.rib_target, "rib", "1.0", "register_interest4", args)

        def completion(error: XrlError, response: XrlArgs) -> None:
            if not error.is_okay:
                reply_cb(IPNet(nexthop, 32), False, 0)
                return
            reply_cb(response.get_ipv4net("subnet"),
                     response.get_bool("resolves"),
                     response.get_u32("metric"))

        self.xrl.send(xrl, completion, retry=self.retry_policy)

    def _route_protocol(self, route: Any) -> str:
        return "ibgp" if self.peer_info(route.peer_id).is_ibgp else "ebgp"

    def _rib_deliver(self, op: str, routes: List[Any],
                     old_route: Any) -> None:
        """Fanout reader: stream a run of best routes to the RIB, one
        pipelined XRL per stretch the RIB files under one protocol."""
        if self.rib_target is None:
            return
        rib_protocol = self._rib_protocol
        if op == "replace":
            route = routes[0]
            old_protocol = rib_protocol.get(route.net)
            new_protocol = self._route_protocol(route)
            if old_protocol is not None and old_protocol != new_protocol:
                # The winner moved between the RIB's ebgp/ibgp origin
                # tables; replace decomposes into delete + add.
                self._rib_send("delete", old_protocol, [old_route])
                op = "add"
            rib_protocol[route.net] = new_protocol
            self._rib_send(op, new_protocol, routes)
            return
        deleting = op == "delete"
        stretch: List[Any] = []
        current = None
        for route in routes:
            protocol = self._route_protocol(route)
            if deleting:
                protocol = rib_protocol.pop(route.net, protocol)
            else:
                rib_protocol[route.net] = protocol
            if protocol != current:
                if stretch:
                    self._rib_send(op, current, stretch)
                    stretch = []
                current = protocol
            stretch.append(route)
        self._rib_send(op, current, stretch)

    def _rib_send(self, op: str, protocol: str, routes: List[Any]) -> None:
        """The one BGP→RIB emit: a same-(op, protocol) stretch as one XRL.

        Two or more routes leave as one vectorized ``add_routes4`` /
        ``delete_routes4`` (parallel lists, like ``fea_fib/1.0``'s
        ``add_entries4``), hinted so the stretches of one pump turn share
        a wire flush.  A lone route keeps the singular wire shape and
        leaves at once — the rule ``FeaFlowController.submit_batch``
        applies on the RIB→FEA hop.  Method names stay literal so the
        XRL001/XRL002 checks and the protocol graph resolve them.
        """
        target = self.rib_target
        if len(routes) == 1:
            route = routes[0]
            args = (XrlArgs().add_txt("protocol", protocol)
                    .add_ipv4net("net", route.net))
            if op == "delete":
                xrl = Xrl(target, "rib", "1.0", "delete_route4", args)
            else:
                args = (args.add_ipv4("nexthop", route.nexthop)
                        .add_u32("metric", route.igp_metric or 0)
                        .add_list("policytags", []))
                method = "add_route4" if op == "add" else "replace_route4"
                xrl = Xrl(target, "rib", "1.0", method, args)
        else:
            args = (XrlArgs().add_txt("protocol", protocol)
                    .add_list("nets", [XrlAtom("net", _IPV4NET, route.net)
                                       for route in routes]))
            if op == "delete":
                xrl = Xrl(target, "rib", "1.0", "delete_routes4", args)
            else:
                args = (args
                        .add_list("nexthops",
                                  [XrlAtom("nexthop", _IPV4, route.nexthop)
                                   for route in routes])
                        .add_list("metrics",
                                  [XrlAtom("metric", _U32,
                                           route.igp_metric or 0)
                                   for route in routes]))
                xrl = Xrl(target, "rib", "1.0", "add_routes4", args)
        prof = self._prof_queued_rib
        if prof.enabled:
            for route in routes:
                prof.log_op(op, route.net)
        if self._prof_sent_rib.enabled:
            # The paper's profile points keep one record per route; the
            # strings (and the closure holding them) exist only while the
            # point is collecting.
            lines = [f"{op} {route.net}" for route in routes]
            on_sent = lambda sent=lines: \
                self._prof_sent_rib.log_each(sent)  # noqa: E731
        else:
            on_sent = None
        self.txq.enqueue(xrl, on_sent=on_sent, batch=len(routes) > 1)

    # -- policy/0.1: the policy process pushes compiled-from-source filters --
    #: XORP's filter ids: 1 = import, 2 = source-match export, 4 = export
    FILTER_IMPORT = 1
    FILTER_SOURCEMATCH = 2
    FILTER_EXPORT = 4

    def xrl_configure_filter(self, filter_id: int, policy_source: str) -> None:
        """Install a policy filter from source text (paper §8.3).

        The source compiles to the shared stack language and runs in the
        appropriate filter-bank stage.  Installing re-uses the existing
        hook points; no other stage is aware policy is active.
        """
        from repro.policy import PolicyResult, PolicyVM, compile_source
        from repro.policy.varrw import BgpVarRW

        program = compile_source(policy_source)
        vm = PolicyVM()

        def hook(route, peer):
            varrw = BgpVarRW(route, neighbor=(
                peer.config.peer_addr if hasattr(peer, "config") else None))
            result = vm.run(program, varrw)
            if result == PolicyResult.REJECT:
                return None
            return varrw.result()

        if filter_id == self.FILTER_IMPORT:
            old_policy, self.import_policy = self.import_policy, hook
            for handler in self.peers.values():
                handler.refilter_imports(old_policy)
        elif filter_id in (self.FILTER_EXPORT, self.FILTER_SOURCEMATCH):
            old_policy, self.export_policy = self.export_policy, hook
            for handler in self.peers.values():
                handler.refilter_exports(old_policy)
        else:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"unknown filter id {filter_id}"
            )

    def xrl_reset_filter(self, filter_id: int) -> None:
        if filter_id == self.FILTER_IMPORT:
            self.import_policy = None
        elif filter_id in (self.FILTER_EXPORT, self.FILTER_SOURCEMATCH):
            self.export_policy = None

    # -- rib_client/0.1 ------------------------------------------------------
    def xrl_route_info_invalid4(self, subnet) -> None:
        """The RIB invalidated part of our nexthop cache (§5.2.1)."""
        self.resolver.invalidate(subnet)

    # -- peer management ---------------------------------------------------------
    def add_peer(self, config: PeerConfig) -> PeerHandler:
        if config.peer_id in self.peers:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"peer {config.peer_id} already configured",
            )
        handler = PeerHandler(self, config)
        self.peers[config.peer_id] = handler
        return handler

    def remove_peer(self, peer_id: str) -> None:
        handler = self.peers.pop(peer_id, None)
        if handler is not None:
            handler.tear_down()

    def peer(self, peer_id: str) -> PeerHandler:
        handler = self.peers.get(peer_id)
        if handler is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"no peer {peer_id}"
            )
        return handler

    # -- bgp/1.0 handlers ----------------------------------------------------
    def xrl_set_local_as(self, **kwargs) -> None:
        self.local_as = kwargs["as"]

    def xrl_get_local_as(self) -> dict:
        return {"as": self.local_as}

    def xrl_set_bgp_id(self, id) -> None:
        self.bgp_id = id
        self._local_info.bgp_id = id

    def xrl_add_peer(self, peer, next_hop, holdtime, **kwargs) -> None:
        config = PeerConfig(peer, kwargs["as"], self.local_as, next_hop,
                            holdtime=holdtime)
        self.add_peer(config)

    def xrl_delete_peer(self, peer) -> None:
        self.remove_peer(str(peer))

    def xrl_enable_peer(self, peer) -> None:
        self.peer(str(peer)).enable()

    def xrl_disable_peer(self, peer) -> None:
        self.peer(str(peer)).disable()

    def xrl_originate_route4(self, net, next_hop, unicast) -> None:
        attributes = PathAttributeList(
            origin=Origin.IGP, as_path=ASPath(), nexthop=next_hop)
        route = BGPRoute(net, attributes, peer_id=LOCAL_PEER_ID)
        self.local_origin.originate(route)

    def xrl_withdraw_route4(self, net) -> None:
        if self.local_origin.withdraw_if_present(net) is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"no local route for {net}"
            )

    def xrl_get_peer_list(self) -> dict:
        return {"peers": ",".join(sorted(self.peers))}

    def xrl_get_route_count(self) -> dict:
        return {"count": self.decision.route_count}

    def shutdown(self) -> None:
        for handler in list(self.peers.values()):
            handler.tear_down()
        super().shutdown()
