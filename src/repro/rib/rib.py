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
from repro.core.stages import BatchStage, OriginStage, RouteTableStage
from repro.core.txqueue import XrlTransmitQueue
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
from repro.rib.flow import FeaFlowController
from repro.rib.merge import MergeStage
from repro.rib.redist import RedistStage
from repro.rib.register import RegisterStage
from repro.rib.route import ADMIN_DISTANCES, RibRoute
from repro.xrl import XrlArgs, XrlAtom, XrlAtomType, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl


class _FeaDistributorStage(BatchStage):
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
        origin = OriginStage(f"origin-{protocol}{self.tag}", self.bits)
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
                 window: int = 100, retry_policy=None, flow_options=None):
        super().__init__(host)
        self.fea_target = fea_target
        self.xrl = self.create_router("rib", singleton=True)
        self.profiler = Profiler(self.loop.clock)
        self._prof_arrive = self.profiler.create("route_arrive_rib")
        self._prof_queued_fea = self.profiler.create("route_queued_fea")
        self._prof_sent_fea = self.profiler.create("route_sent_fea")
        #: opt-in retry for the idempotent FEA/redist route streams
        self.retry_policy = retry_policy
        self.txq = XrlTransmitQueue(self.xrl, window=window,
                                    retry=retry_policy)
        self.txq.register_metrics(self.metrics)
        #: pacing for the FEA-bound stream: reads the queued/congested
        #: pressure signal off every FIB reply and pauses when the
        #: dataplane backend falls behind.
        self.flow = FeaFlowController(
            self.loop,
            send_segment=self._send_fea_segment,
            poll_status=self._poll_fea_status,
            batch_limit=lambda: self.FEA_BATCH_LIMIT,
            **(flow_options or {}))
        self.flow.register_metrics(self.metrics)
        self.v4 = _Pipeline(32, "4", self._emit_fea4, self._notify_invalid4)
        self.v6 = _Pipeline(128, "6", self._emit_fea6, lambda *a: None)
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
        # Watch the FEA's lifetime so a reborn (empty) FIB is re-seeded.
        # It starts from an empty FIB: the backlog (and any congestion
        # pause against the dead incarnation) is superseded by the
        # full-table resync, so the flow queue is reset at BIRTH itself.
        self.watch_rebirth(fea_target, self.resync_fea,
                           at_birth=self.flow.reset)

    # -- FEA distribution ----------------------------------------------------
    # Both families flow through one emit helper into the flow controller,
    # which pumps same-(family, op) runs back out through
    # _send_fea_segment — so v4 and v6 share segmenting, profiling, and
    # the backpressure pacing.

    #: family bits -> (method suffix, net atom type, nexthop atom type)
    _FEA_FAMILY = {
        32: ("4", XrlAtomType.IPV4NET, XrlAtomType.IPV4),
        128: ("6", XrlAtomType.IPV6NET, XrlAtomType.IPV6),
    }

    #: one vectorized XRL carries at most this many routes; larger stage
    #: batches are segmented so a single frame stays bounded.
    FEA_BATCH_LIMIT = 256

    def _emit_fea4(self, op: str, routes: List[Any]) -> None:
        self._emit_fea(32, op, routes)

    def _emit_fea6(self, op: str, routes: List[Any]) -> None:
        self._emit_fea(128, op, routes)

    def _emit_fea(self, family: int, op: str, routes: List[Any]) -> None:
        """A stage batch toward the FEA, in order: the flow controller
        sends one vectorized XRL per segment (a lone route goes singular),
        amortizing the XRL header, dispatch and reply over the segment."""
        prof = self._prof_queued_fea
        if prof.enabled:
            for route in routes:
                prof.log_op(op, route.net)
        self.flow.submit_batch(family, op, routes)

    def _send_fea_segment(self, family: int, op: str, routes: List[Any],
                          batching: bool, on_reply) -> None:
        """Transmit one same-op run as a singular or vectorized FIB XRL."""
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
            batch = batching
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
            batch = True
        if self._prof_sent_fea.enabled:
            # The sent-record strings (and the closure holding them) are
            # only built when the profiling point is collecting.
            lines = [f"{op} {route.net}" for route in routes]
            on_sent = lambda batch_lines=lines: \
                self._prof_sent_fea.log_each(batch_lines)  # noqa: E731
        else:
            on_sent = None
        self.txq.enqueue(xrl, on_sent=on_sent, on_reply=on_reply,
                         batch=batch)

    def _poll_fea_status(self, on_reply) -> None:
        xrl = Xrl(self.fea_target, "fea_fib", "1.0", "get_queue_status",
                  XrlArgs())
        self.txq.enqueue(xrl, on_reply=on_reply)

    # -- resync after consumer restarts (the DESIGN.md failure model) --------
    def resync_fea(self) -> None:
        """Replay every winning route at a restarted FEA.

        A full-table replay is the canonical burst: the batch hint lets
        the XRL layer coalesce the whole resync into a few wire flushes.
        """
        if not self.running:
            return
        self._emit_fea4("add", list(self.v4.redist.winners.values()))
        self._emit_fea6("add", list(self.v6.redist.winners.values()))

    def _resync_redist(self, target: str) -> None:
        """Replay redistribution to a reborn consumer process."""
        if not self.running:
            return
        resync = self.v4.redist.resync_target
        for key, key_target in self._redist_targets.items():
            if key_target == target:
                resync(key)

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
        if self.v4.redist.has_target(key):
            return
        self._redist_targets[key] = target
        self.watch_rebirth(target, partial(self._resync_redist, target))
        self.v4.redist.add_target(
            key,
            predicate=lambda route: route.protocol == from_protocol,
            callback=lambda op, route: self._emit_redist4(target, op, route),
        )

    def xrl_redist_disable4(self, target: str, from_protocol: str) -> None:
        key = f"{target}:{from_protocol}"
        self.v4.redist.remove_target(key)
        self._redist_targets.pop(key, None)

    def _emit_redist4(self, target: str, op: str, route: Any) -> None:
        if op == "add":
            args = (XrlArgs().add_ipv4net("net", route.net)
                    .add_ipv4("nexthop", route.nexthop)
                    .add_u32("metric", route.metric)
                    .add_u32("admin_distance", route.admin_distance)
                    .add_txt("protocol", route.protocol)
                    .add_list("policytags", _tag_atoms(route.policytags)))
            xrl = Xrl(target, "redist4", "0.1", "redist_add_route4", args)
        else:
            args = (XrlArgs().add_ipv4net("net", route.net)
                    .add_txt("protocol", route.protocol))
            xrl = Xrl(target, "redist4", "0.1", "redist_delete_route4", args)
        self.txq.enqueue(xrl)

    def xrl_get_protocol_admin_distance(self, protocol: str) -> dict:
        return {"admin_distance":
                ADMIN_DISTANCES.get(protocol, ADMIN_DISTANCES["unknown"])}


def _tag_atoms(tags):
    from repro.xrl.types import XrlAtom, XrlAtomType

    return [XrlAtom(f"tag{i}", XrlAtomType.U32, tag)
            for i, tag in enumerate(tags)]
