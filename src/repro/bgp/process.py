"""The BGP process: pipeline assembly, XRL target, RIB interaction.

This is the composition root for paper Figure 5: per-peer input branches
(built in :mod:`repro.bgp.peer`) feed the shared decision process, whose
winners flow into the fanout queue with one reader per peer plus one
reader streaming best routes to the RIB over pipelined XRLs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.bgp.decision import DecisionStage, PeerInfo
from repro.bgp.fanout import FanoutQueue
from repro.bgp.nexthop import NexthopResolver, NexthopResolverStage
from repro.bgp.peer import PeerConfig, PeerHandler
from repro.bgp.route import BGPRoute
from repro.core.process import Host, XorpProcess
from repro.core.stages import OriginStage, RouteTableStage
from repro.core.txqueue import RouteStream
from repro.interfaces import (
    BGP_IDL,
    COMMON_IDL,
    POLICY_IDL,
    RIB_CLIENT_IDL,
    RIB_IDL,
)
from repro.net import IPNet, IPv4
from repro.profiler import PROFILER_IDL, Profiler
from repro.xrl import Xrl, XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode

#: policy hook signature: (route, peer_handler) -> route | None
PolicyHook = Callable[[BGPRoute, Any], Optional[BGPRoute]]

LOCAL_PEER_ID = "local"

_IPV4NET, _IPV4, _U32 = (XrlAtomType.IPV4NET, XrlAtomType.IPV4,
                         XrlAtomType.U32)

_ADD_EGP_TABLE4 = RIB_IDL.sender("add_egp_table4", "protocol")
_REGISTER_INTEREST4 = RIB_IDL.sender("register_interest4", "target", "addr")
_ADD_ROUTE4 = RIB_IDL.sender("add_route4", "protocol", "net", "nexthop",
                             "metric", "policytags")
_REPLACE_ROUTE4 = RIB_IDL.sender("replace_route4", "protocol", "net",
                                 "nexthop", "metric", "policytags")
_DELETE_ROUTE4 = RIB_IDL.sender("delete_route4", "protocol", "net")
_ADD_ROUTES4 = RIB_IDL.sender("add_routes4", "protocol", "nets", "nexthops",
                              "metrics")
_DELETE_ROUTES4 = RIB_IDL.sender("delete_routes4", "protocol", "nets")


class BgpProcess(XorpProcess):
    """BGP as a XORP process."""

    process_name = "bgp"
    version = "repro-bgp/1.0"

    def __init__(self, host: Host, *, local_as: int = 65000,
                 bgp_id: Optional[IPv4] = None,
                 rib_target: Optional[str] = "rib",
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
        #: the RIB-bound route stream, keyed by (RIB protocol, net)
        self.txq = RouteStream(self.xrl, self._rib_segment,
                               batch_limit=lambda: self.fanout.RUN_LIMIT,
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
        # The RIB's reader pulls through the stream's window: it takes at
        # most the room left, waits in the fanout queue while there is
        # none, and a reply resumes it.
        self.fanout.add_reader("__rib__", self._rib_deliver,
                               dump=False).room = self.txq.room
        self.txq.on_room = partial(self.fanout.set_reader_busy, "__rib__",
                                   False)
        self._tables_unanswered = 0

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
            # must re-seed it (tables, interest, and every best route);
            # the stream's backlog is superseded by that replay.
            self.watch_rebirth(rib_target, self.resync_rib,
                               at_birth=self.txq.reset)

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

    # -- RIB interaction ------------------------------------------------------
    def _register_rib_tables(self) -> None:
        """Create the RIB's ebgp/ibgp tables.  The route stream waits until
        every table request is answered: a route must not overtake a
        re-sent request and fail for want of its table."""
        send = self.xrl.send
        self.txq.pause()
        for protocol in ("ebgp", "ibgp"):
            self._tables_unanswered += 1
            send(_ADD_EGP_TABLE4(self.rib_target, protocol),
                 self._rib_table_answered, retry=self.retry_policy)

    def _rib_table_answered(self, error: XrlError, args: XrlArgs) -> None:
        self._tables_unanswered -= 1
        if not self._tables_unanswered:
            self.txq.pause(False)

    def resync_rib(self) -> None:
        """Re-seed a restarted RIB (the resync contract in DESIGN.md).

        The new RIB has no ebgp/ibgp tables, no interest registrations,
        and none of our routes: re-create the tables, re-query every
        cached nexthop (which re-registers interest), and replay every
        winner through a fresh dumping fanout reader.
        """
        if self.rib_target is None or not self.running:
            return
        self._register_rib_tables()
        self.resolver.requery_all()
        self.fanout.remove_reader("__rib__")
        self.fanout.add_reader("__rib__", self._rib_deliver,
                               dump=True).room = self.txq.room

    def _query_rib_nexthop(self, nexthop: IPv4, reply_cb) -> None:
        """register_interest4 with the RIB; synthetic answer without one."""
        if self.rib_target is None:
            self.loop.call_soon(
                reply_cb, IPNet(nexthop, 32), True, 0)
            return
        xrl = _REGISTER_INTEREST4(self.rib_target, self.xrl.class_name,
                                  nexthop)

        def completion(error: XrlError, response: XrlArgs) -> None:
            if not error.is_okay:
                reply_cb(IPNet(nexthop, 32), False, 0)
                return
            reply_cb(response.get_ipv4net("subnet"),
                     response.get_bool("resolves"),
                     response.get_u32("metric"))

        self.xrl.send(xrl, completion, retry=self.retry_policy)

    def _route_protocol(self, route: Any) -> str:
        # the kind of the peering that sent it, which may be gone
        return "ibgp" if getattr(route.peer_id, "is_ibgp", False) else "ebgp"

    def _rib_deliver(self, op: str, routes: List[Any],
                     old_route: Any) -> None:
        """Fanout reader: stream a run of best routes to the RIB, one
        pipelined XRL per stretch the RIB files under one protocol."""
        if self.rib_target is None:
            return
        if op == "replace":
            old_protocol = self._route_protocol(old_route)
            if old_protocol != self._route_protocol(routes[0]):
                # The winner moved between the RIB's ebgp/ibgp origin
                # tables; replace decomposes into delete + add.
                self._rib_send("delete", old_protocol, [old_route])
                op = "add"
        stretch: List[Any] = []
        current = None
        for route in routes:
            protocol = self._route_protocol(route)
            if protocol != current:
                if stretch:
                    self._rib_send(op, current, stretch)
                    stretch = []
                current = protocol
            stretch.append(route)
        self._rib_send(op, current, stretch)

    def _rib_send(self, op: str, protocol: str, routes: List[Any]) -> None:
        """A same-(op, protocol) stretch into the RIB-bound stream."""
        prof = self._prof_queued_rib
        if prof.enabled:
            for route in routes:
                prof.log_op(op, route.net)
        self.txq.submit(protocol, op, routes)

    def _rib_segment(self, protocol: str, op: str, routes: List[Any]) -> Xrl:
        """The one BGP→RIB wire form: a same-(protocol, op) run as one XRL.

        Two or more routes leave as one vectorized ``add_routes4`` /
        ``delete_routes4`` (parallel lists, like ``fea_fib/1.0``'s
        ``add_entries4``); a lone route keeps the singular wire shape —
        the rule the RIB→FEA hop applies too.
        """
        target = self.rib_target
        if len(routes) == 1:
            route = routes[0]
            if op == "delete":
                xrl = _DELETE_ROUTE4(target, protocol, route.net)
            else:
                xrl = (_ADD_ROUTE4 if op == "add" else _REPLACE_ROUTE4)(
                    target, protocol, route.net, route.nexthop,
                    route.igp_metric or 0, [])
        else:
            nets = [XrlAtom("net", _IPV4NET, route.net) for route in routes]
            if op == "delete":
                xrl = _DELETE_ROUTES4(target, protocol, nets)
            else:
                xrl = _ADD_ROUTES4(
                    target, protocol, nets,
                    [XrlAtom("nexthop", _IPV4, route.nexthop)
                     for route in routes],
                    [XrlAtom("metric", _U32, route.igp_metric or 0)
                     for route in routes])
        if self._prof_sent_rib.enabled:
            self._prof_sent_rib.log_each(
                [f"{op} {route.net}" for route in routes])
        return xrl

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

        self._install_filter(filter_id, hook)

    def xrl_reset_filter(self, filter_id: int) -> None:
        self._install_filter(filter_id, None)

    def _install_filter(self, filter_id: int,
                        hook: Optional[PolicyHook]) -> None:
        """Swap one policy hook and re-filter every peering against it."""
        if filter_id == self.FILTER_IMPORT:
            self.import_policy = hook
            export = False
        elif filter_id in (self.FILTER_EXPORT, self.FILTER_SOURCEMATCH):
            self.export_policy = hook
            export = True
        else:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"unknown filter id {filter_id}"
            )
        for handler in self.peers.values():
            handler.set_policy(hook, export=export)

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
