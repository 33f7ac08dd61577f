"""The RIB process: stages wired together plus the ``rib/1.0`` XRL target.

Figure 7 of the paper, as code: origin tables feed a chain of pairwise
merge stages, then the ExtInt stage, then redistribution and registration
watchers, and finally a distributor that streams winning routes to the FEA
over pipelined XRLs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from repro.core.process import Host, XorpProcess
from repro.core.stages import OriginStage, RouteTableStage
from repro.core.txqueue import RouteStream
from repro.interfaces import (
    COMMON_IDL,
    REDIST4_IDL,
    RIB_CLIENT_IDL,
    RIB_IDL,
    parallel_values,
)
from repro.net import IPNet, IPv4, IPv6
from repro.profiler import PROFILER_IDL, Profiler
from repro.rib.extint import ExtIntStage
from repro.rib.merge import MergeStage
from repro.rib.redist import RedistStage
from repro.rib.register import RegisterStage
from repro.rib.route import ADMIN_DISTANCES, RibRoute
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl


class _FeaDistributorStage(RouteTableStage):
    """Terminal stage: pushes winning routes towards the forwarding engine."""

    def __init__(self, name: str, emit_batch):
        super().__init__(name)
        #: emit_batch(op, routes) — the whole stage batch, in order
        self._emit_batch = emit_batch

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        self._emit_batch("add", routes)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._emit_batch("delete", routes)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        # A FIB insert overwrites, so a replace is a single add entry.
        self._emit_batch("add", [new_route])


class _Pipeline:
    """One address family's stage network inside the RIB."""

    def __init__(self, bits: int, tag: str, emit_fea, invalidate_cb):
        self.bits = bits
        self.tag = tag
        self.origins: Dict[str, OriginStage] = {}
        self.external_protocols: Dict[str, bool] = {}
        #: two upstream sides, as in paper Figure 7: IGP and EGP folds
        self.head_int: Optional[RouteTableStage] = None
        self.head_ext: Optional[RouteTableStage] = None
        self.extint = ExtIntStage(f"extint{tag}", bits)
        self.redist = RedistStage(f"redist{tag}")
        self.register = RegisterStage(f"register{tag}", bits,
                                      invalidate_cb=invalidate_cb)
        self.fea_sink = _FeaDistributorStage(f"to-fea{tag}", emit_fea)
        RouteTableStage.plumb(self.extint, self.redist, self.register,
                              self.fea_sink)
        self._merge_count = 0

    def add_origin(self, protocol: str, external: bool) -> OriginStage:
        existing = self.origins.get(protocol)
        if existing is not None:
            return existing
        origin = OriginStage(f"origin-{protocol}{self.tag}")
        self.origins[protocol] = origin
        self.external_protocols[protocol] = external
        side = "head_ext" if external else "head_int"
        head = getattr(self, side)
        if head is None:
            origin.next_table = self.extint
            setattr(self, side, origin)
            return origin
        # Dynamically splice a new pairwise merge stage above the ExtInt
        # stage — existing flows are untouched because the new branch is
        # empty (paper: dynamic stages, §5.1.2 / §5.2).  External and
        # internal protocols fold on separate sides (Figure 7), so the
        # ExtInt stage always sees both alternatives.
        self._merge_count += 1
        merge = MergeStage(f"merge-{self._merge_count}{self.tag}")
        merge.set_parents(head, origin)
        merge.next_table = self.extint
        setattr(self, side, merge)
        return origin

    def origin(self, protocol: str) -> OriginStage:
        origin = self.origins.get(protocol)
        if origin is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"protocol {protocol!r} has no {self.tag} table in the RIB",
            )
        return origin


class RibProcess(XorpProcess):
    """The RIB as a XORP process."""

    process_name = "rib"
    version = "repro-rib/1.0"

    #: protocols given tables automatically (always present on a router)
    BUILTIN_IGP_TABLES = ("connected", "static")

    def __init__(self, host: Host, *, fea_target: str = "fea",
                 window: int = 512, retry_policy=None):
        super().__init__(host)
        self.fea_target = fea_target
        self.xrl = self.create_router("rib", singleton=True)
        self.profiler = Profiler(self.loop.clock)
        self._prof_arrive = self.profiler.create("route_arrive_rib")
        self._prof_queued_fea = self.profiler.create("route_queued_fea")
        self._prof_sent_fea = self.profiler.create("route_sent_fea")
        #: opt-in retry for the idempotent FEA/redist route streams
        self.retry_policy = retry_policy
        #: the FEA-bound stream, keyed by (family, net): the FEA answers
        #: a FIB XRL once its dataplane has settled it, so the *window*
        #: (in routes) bounds the backend's queue.
        self.txq = RouteStream(self.xrl, self._fea_segment, window=window,
                               batch_limit=lambda: self.FEA_BATCH_LIMIT,
                               retry=retry_policy)
        self.txq.register_metrics(self.metrics)
        #: one stream per redistribution target (redist4/0.1 has no
        #: vector form, so a segment is one route)
        self._redist_streams: Dict[str, RouteStream] = {}
        self.v4 = _Pipeline(32, "4", partial(self._emit_fea, 32),
                            self._notify_invalid4)
        self.v6 = _Pipeline(128, "6", partial(self._emit_fea, 128),
                            lambda *a: None)
        self.metrics.gauge("tables4", lambda: len(self.v4.origins))
        self.metrics.gauge("tables6", lambda: len(self.v6.origins))
        add_origin4 = self.v4.add_origin
        add_origin6 = self.v6.add_origin
        for protocol in self.BUILTIN_IGP_TABLES:
            add_origin4(protocol, external=False)
            add_origin6(protocol, external=False)
        self.xrl.bind(RIB_IDL, self)
        self.xrl.bind(PROFILER_IDL, self.profiler)
        self.xrl.bind(COMMON_IDL, self)
        self._redist_targets: Dict[str, str] = {}
        #: each redistribution key's latest dump walk, closed on disable
        self._redist_walks: Dict[str, Any] = {}
        # Watch the FEA's lifetime so a reborn (empty) FIB is re-seeded.
        # It starts from an empty FIB: the backlog is superseded by the
        # full-table resync, so the stream is reset at BIRTH itself.
        self.watch_rebirth(fea_target, self.resync_fea,
                           at_birth=self.txq.reset)

    # -- FEA distribution ----------------------------------------------------
    # Both families flow through one emit helper into the route stream,
    # which pumps same-(family, op) runs back out through _fea_segment —
    # so v4 and v6 share segmenting, profiling, and the window.

    #: family bits -> (method suffix, net atom type, nexthop atom type)
    _FEA_FAMILY = {
        32: ("4", XrlAtomType.IPV4NET, XrlAtomType.IPV4),
        128: ("6", XrlAtomType.IPV6NET, XrlAtomType.IPV6),
    }

    #: one vectorized XRL carries at most this many routes; larger stage
    #: batches are segmented so a single frame stays bounded.
    FEA_BATCH_LIMIT = 256

    def _emit_fea(self, family: int, op: str, routes: List[Any]) -> None:
        """A stage batch toward the FEA, in order: the stream sends one
        vectorized XRL per segment (a lone route goes singular),
        amortizing the XRL header, dispatch and reply over the segment."""
        prof = self._prof_queued_fea
        if prof.enabled:
            for route in routes:
                prof.log_op(op, route.net)
        self.txq.submit(family, op, routes)

    def _fea_segment(self, family: int, op: str, routes: List[Any]) -> Xrl:
        """One same-op run as a singular or vectorized FIB XRL."""
        __, net_type, nexthop_type = self._FEA_FAMILY[family]
        # Method names stay literal (per family, via the conditional) so
        # the XRL001/XRL002 static conformance checks can resolve them.
        if len(routes) == 1:
            route = routes[0]
            args = XrlArgs().add(XrlAtom("net", net_type, route.net))
            if op == "add":
                args.add(XrlAtom("nexthop", nexthop_type, route.nexthop))
                args.add_txt("ifname", route.ifname)
            method = (("add_entry4" if family == 32 else "add_entry6")
                      if op == "add" else
                      ("delete_entry4" if family == 32 else "delete_entry6"))
            xrl = Xrl(self.fea_target, "fea_fib", "1.0", method, args)
        else:
            nets = [XrlAtom("net", net_type, route.net) for route in routes]
            if op == "add":
                args = (XrlArgs()
                        .add_list("nets", nets)
                        .add_list("nexthops",
                                  [XrlAtom("nexthop", nexthop_type,
                                           route.nexthop)
                                   for route in routes])
                        .add_list("ifnames",
                                  [XrlAtom("ifname", XrlAtomType.TXT,
                                           route.ifname)
                                   for route in routes]))
            else:
                args = XrlArgs().add_list("nets", nets)
            method = (("add_entries4" if family == 32 else "add_entries6")
                      if op == "add" else
                      ("delete_entries4" if family == 32
                       else "delete_entries6"))
            xrl = Xrl(self.fea_target, "fea_fib", "1.0", method, args)
        if self._prof_sent_fea.enabled:
            self._prof_sent_fea.log_each(
                [f"{op} {route.net}" for route in routes])
        return xrl

    # -- resync after consumer restarts (the DESIGN.md failure model) --------
    def resync_fea(self) -> None:
        """Dump every winning route to a restarted FEA: the route stream
        walks the register stage's tries, paced by its window."""
        if not self.running:
            return
        for family, pipeline in ((32, self.v4), (128, self.v6)):
            self.txq.dump(family, pipeline.register.winners.iterator(),
                          lambda route: True)

    def _dump_redist(self, key: str) -> None:
        """Dump the matching winners to redistribution *key* (new, or its
        consumer was reborn empty); a live change reaches it meanwhile."""
        walk = self._redist_walks[key] = self.v4.register.winners.iterator()
        self._redist_streams[self._redist_targets[key]].dump(
            None, walk, self.v4.redist.dump_keep(key))

    def _resync_redist(self, target: str) -> None:
        """Dump redistribution again to a reborn consumer process."""
        if not self.running:
            return
        for key, key_target in self._redist_targets.items():
            if key_target == target:
                self._dump_redist(key)

    # -- invalidation notifications (paper §5.2.1) ----------------------------
    def _notify_invalid4(self, client: str, subnet: IPNet) -> None:
        args = XrlArgs().add_ipv4net("subnet", subnet)
        xrl = Xrl(client, "rib_client", "0.1", "route_info_invalid4", args)
        self.xrl.send(xrl)

    # -- rib/1.0 handlers ---------------------------------------------------
    def xrl_add_igp_table4(self, protocol: str) -> None:
        self.v4.add_origin(protocol, external=False)

    def xrl_add_egp_table4(self, protocol: str) -> None:
        self.v4.add_origin(protocol, external=True)

    def xrl_add_igp_table6(self, protocol: str) -> None:
        self.v6.add_origin(protocol, external=False)

    def xrl_add_egp_table6(self, protocol: str) -> None:
        self.v6.add_origin(protocol, external=True)

    def _make_route(self, pipeline: _Pipeline, protocol: str, net: IPNet,
                    nexthop, metric: int, policytags) -> RibRoute:
        tags = [atom.value for atom in policytags] if policytags else ()
        return RibRoute(
            net, nexthop, metric, protocol,
            is_external=pipeline.external_protocols.get(protocol, False),
            policytags=tags,
        )

    def xrl_flush_table4(self, protocol: str) -> None:
        """Withdraw every route a (dead) protocol left behind.

        The supervisor calls this on module death so stale routes do not
        outlive their owner (§3: "the FEA will know precisely which
        routes ... need to be removed").  Unknown protocols are a no-op —
        the module may have died before creating its tables.
        """
        origin = self.v4.origins.get(protocol)
        if origin is None:
            return
        origin.withdraw_batch([net for net, __ in origin.routes.items()])

    def xrl_add_route4(self, protocol, net, nexthop, metric, policytags) -> None:
        self._prof_arrive.log_op("add", net)
        origin = self.v4.origin(protocol)
        route = self._make_route(self.v4, protocol, net, nexthop, metric,
                                 policytags)
        origin.originate(route)

    def xrl_replace_route4(self, protocol, net, nexthop, metric,
                           policytags) -> None:
        self._prof_arrive.log_op("replace", net)
        self.xrl_add_route4(protocol, net, nexthop, metric, policytags)

    def xrl_delete_route4(self, protocol, net) -> None:
        self._prof_arrive.log_op("delete", net)
        origin = self.v4.origin(protocol)
        if origin.withdraw_if_present(net) is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"no {protocol} route for {net}",
            )

    def xrl_add_routes4(self, protocol, nets, nexthops, metrics) -> None:
        """A burst of one protocol's routes as one origin-table batch.

        An upsert, like ``replace_route4``: a prefix already filed under
        *protocol* is replaced in place, so a retried frame is harmless.
        """
        origin = self.v4.origin(protocol)
        columns = parallel_values("add_routes4",
                                  (nets, XrlAtomType.IPV4NET),
                                  (nexthops, XrlAtomType.IPV4),
                                  (metrics, XrlAtomType.U32))
        prof = self._prof_arrive
        if prof.enabled:
            for net in columns[0]:
                prof.log_op("add", net)
        external = self.v4.external_protocols.get(protocol, False)
        origin.originate_batch(
            [RibRoute(net, nexthop, metric, protocol, is_external=external)
             for net, nexthop, metric in zip(*columns)])

    def xrl_delete_routes4(self, protocol, nets) -> None:
        """Withdraw a burst of *protocol*'s prefixes as one batch; absent
        prefixes are skipped (``withdraw_batch``), so a retried frame
        whose first reply was lost is not an error."""
        origin = self.v4.origin(protocol)
        (nets,) = parallel_values("delete_routes4",
                                  (nets, XrlAtomType.IPV4NET))
        prof = self._prof_arrive
        if prof.enabled:
            for net in nets:
                prof.log_op("delete", net)
        origin.withdraw_batch(nets)

    def xrl_add_route6(self, protocol, net, nexthop, metric, policytags) -> None:
        origin = self.v6.origin(protocol)
        route = self._make_route(self.v6, protocol, net, nexthop, metric,
                                 policytags)
        origin.originate(route)

    def xrl_replace_route6(self, protocol, net, nexthop, metric,
                           policytags) -> None:
        self.xrl_add_route6(protocol, net, nexthop, metric, policytags)

    def xrl_delete_route6(self, protocol, net) -> None:
        origin = self.v6.origin(protocol)
        if origin.withdraw_if_present(net) is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"no {protocol} route for {net}",
            )

    def xrl_lookup_route_by_dest4(self, addr) -> dict:
        route = self.v4.register.lookup_by_dest(addr)
        if route is None:
            return {"resolves": False, "net": IPNet(IPv4(0), 0),
                    "nexthop": IPv4(0), "metric": 0, "admin_distance": 255,
                    "protocol": ""}
        return {"resolves": True, "net": route.net, "nexthop": route.nexthop,
                "metric": route.metric,
                "admin_distance": route.admin_distance,
                "protocol": route.protocol}

    def xrl_register_interest4(self, target, addr) -> dict:
        subnet, route = self.v4.register.register_interest(target, addr)
        if route is None:
            return {"resolves": False, "net": IPNet(IPv4(0), 0),
                    "subnet": subnet, "nexthop": IPv4(0), "metric": 0,
                    "admin_distance": 255}
        return {"resolves": True, "net": route.net, "subnet": subnet,
                "nexthop": route.nexthop, "metric": route.metric,
                "admin_distance": route.admin_distance}

    def xrl_deregister_interest4(self, target, subnet) -> None:
        self.v4.register.deregister_interest(target, subnet)

    def xrl_redist_enable4(self, target: str, from_protocol: str) -> None:
        key = f"{target}:{from_protocol}"
        if key in self._redist_targets:
            return
        self._redist_targets[key] = target
        stream = self._redist_streams.get(target)
        if stream is None:
            stream = self._redist_streams[target] = RouteStream(
                self.xrl, partial(self._redist_segment4, target),
                batch_limit=lambda: 1, retry=self.retry_policy)
        self.watch_rebirth(target, partial(self._resync_redist, target),
                           at_birth=stream.reset)
        self.v4.redist.add_target(
            key,
            predicate=lambda route: route.protocol == from_protocol,
            callback=lambda op, route: stream.submit(None, op, [route]),
        )
        self._dump_redist(key)

    def xrl_redist_disable4(self, target: str, from_protocol: str) -> None:
        key = f"{target}:{from_protocol}"
        self.v4.redist.remove_target(key)
        self._redist_targets.pop(key, None)
        walk = self._redist_walks.pop(key, None)
        if walk is not None:
            walk.close()  # the stream drops it at its next pull

    def _redist_segment4(self, target: str, group, op: str,
                         routes: List[Any]) -> Xrl:
        (route,) = routes
        if op == "add":
            args = (XrlArgs().add_ipv4net("net", route.net)
                    .add_ipv4("nexthop", route.nexthop)
                    .add_u32("metric", route.metric)
                    .add_u32("admin_distance", route.admin_distance)
                    .add_txt("protocol", route.protocol)
                    .add_list("policytags",
                              [XrlAtom(f"tag{i}", XrlAtomType.U32, tag)
                               for i, tag in enumerate(route.policytags)]))
            return Xrl(target, "redist4", "0.1", "redist_add_route4", args)
        args = (XrlArgs().add_ipv4net("net", route.net)
                .add_txt("protocol", route.protocol))
        return Xrl(target, "redist4", "0.1", "redist_delete_route4", args)

    def xrl_get_protocol_admin_distance(self, protocol: str) -> dict:
        return {"admin_distance":
                ADMIN_DISTANCES.get(protocol, ADMIN_DISTANCES["unknown"])}
