"""Per-peer machinery: config, FSM wiring, input branch, output branch.

Each peering owns (paper Figures 4-6):

* an input branch — PeerIn (stores the *original* routes), an optional
  damping stage, the import filter bank, and a nexthop resolver stage —
  feeding the shared decision process;
* an output branch — export filter bank and the PeerOut which packs
  route changes into UPDATE messages — fed from the shared fanout queue;
* dynamic deletion stages spliced in after PeerIn when the session drops.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.bgp.attributes import PathAttributeList
from repro.bgp.damping import DampingStage
from repro.bgp.decision import PeerInfo
from repro.bgp.fsm import FsmActions, PeerFSM
from repro.bgp.messages import (
    BGPDecodeError,
    MessageReader,
    UpdateMessage,
)
from repro.bgp.route import BGPRoute
from repro.bgp.session import BgpSession
from repro.core.stages import (
    BatchStage,
    DeletionStage,
    FilterStage,
    OriginStage,
    RouteTableStage,
    stream_reset,
)
from repro.net import IPNet, IPv4
from repro.trie import RouteTrie


_AttrMemo = Tuple[Optional[PathAttributeList], Optional[PathAttributeList]]


class PeerConfig:
    """Static configuration of one peering."""

    __slots__ = ("peer_addr", "peer_as", "local_as", "local_addr",
                 "holdtime", "enable_damping")

    def __init__(self, peer_addr: IPv4, peer_as: int, local_as: int,
                 local_addr: IPv4, *, holdtime: int = 90,
                 enable_damping: bool = False):
        self.peer_addr = peer_addr
        self.peer_as = peer_as
        self.local_as = local_as
        self.local_addr = local_addr
        self.holdtime = holdtime
        self.enable_damping = enable_damping

    @property
    def is_ibgp(self) -> bool:
        return self.peer_as == self.local_as

    @property
    def peer_id(self) -> str:
        return str(self.peer_addr)


class PeerOutStage(BatchStage):
    """Terminal output stage: packs changes into UPDATE messages.

    Changes arriving within one event-loop turn are coalesced into the
    fewest UPDATEs (withdrawals batched; announcements grouped by shared
    attribute list), then handed to the session.
    """

    def __init__(self, name: str, loop, send_update: Callable[[UpdateMessage], None]):
        super().__init__(name)
        self.loop = loop
        self._send_update = send_update
        self._pending: List = []  # (op, route, old_route)
        self._flush_scheduled = False
        self.updates_sent = 0

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        self._pending.extend(("add", route, None) for route in routes)
        self._schedule_flush()

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._pending.extend(("delete", route, None) for route in routes)
        self._schedule_flush()

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        # A BGP announcement for a prefix implicitly replaces the previous
        # one, so a replace is just a fresh announcement.
        self._pending.append(("add", new_route, old_route))
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.call_soon(self.flush)

    #: worst-case encoded prefix size (1 length byte + 4 address bytes)
    _PREFIX_WIRE_SIZE = 5
    #: header + withdrawn-len + attr-len fields
    _UPDATE_OVERHEAD = 23

    def flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        withdrawals: List[IPNet] = []
        announce_groups = {}  # attributes -> [nets]
        for op, route, __ in pending:
            if op == "delete":
                withdrawals.append(route.net)
            else:
                announce_groups.setdefault(route.attributes, []).append(route.net)
        from repro.bgp.messages import MAX_MESSAGE_LEN

        if withdrawals:
            per_update = (MAX_MESSAGE_LEN - self._UPDATE_OVERHEAD) \
                // self._PREFIX_WIRE_SIZE
            for start in range(0, len(withdrawals), per_update):
                self.updates_sent += 1
                self._send_update(UpdateMessage(
                    withdrawn=withdrawals[start : start + per_update]))
        for attributes, nets in announce_groups.items():
            room = (MAX_MESSAGE_LEN - self._UPDATE_OVERHEAD
                    - len(attributes.encode()))
            per_update = max(1, room // self._PREFIX_WIRE_SIZE)
            for start in range(0, len(nets), per_update):
                self.updates_sent += 1
                self._send_update(UpdateMessage(
                    attributes=attributes, nlri=nets[start : start + per_update]))


class PeerHandler(FsmActions):
    """Everything belonging to one peering."""

    def __init__(self, process, config: PeerConfig):
        self.process = process
        self.config = config
        self.loop = process.loop
        self.peer_id = config.peer_id
        self.fsm = PeerFSM(
            self.loop, self,
            local_as=config.local_as,
            bgp_id=process.bgp_id,
            peer_as=config.peer_as,
            holdtime=config.holdtime,
            name=f"bgp-{self.peer_id}",
        )
        self.session: Optional[BgpSession] = None
        self._reader = MessageReader()
        self.info = PeerInfo(self.peer_id, config.is_ibgp,
                             bgp_id=IPv4(0), peer_addr=config.peer_addr)
        #: one-entry identity memos, (attribute list in, rewritten list
        #: out): the routes of one UPDATE share one immutable attribute
        #: list, so the import default and the eBGP export rewrite build
        #: one new list per UPDATE instead of one per route
        self._import_memo: _AttrMemo = (None, None)
        self._export_memo: _AttrMemo = (None, None)
        self._build_input_branch()
        self._build_output_branch()
        self.enabled = False
        self.updates_received = 0
        self.deletion_stages_created = 0

    # -- pipeline construction ----------------------------------------------
    def _build_input_branch(self) -> None:
        from repro.bgp.nexthop import NexthopResolverStage

        self.peer_in = OriginStage(f"peer-in-{self.peer_id}")
        chain: List[RouteTableStage] = [self.peer_in]
        self.damping: Optional[DampingStage] = None
        if self.config.enable_damping:
            self.damping = DampingStage(f"damping-{self.peer_id}", self.loop)
            chain.append(self.damping)
        self.in_filter = FilterStage(f"in-filter-{self.peer_id}",
                                     self._import_filter)
        chain.append(self.in_filter)
        self.resolver_stage = NexthopResolverStage(
            f"nexthop-{self.peer_id}", self.process.resolver)
        chain.append(self.resolver_stage)
        RouteTableStage.plumb(*chain)
        self.process.decision.add_branch(self.resolver_stage)

    def _build_output_branch(self) -> None:
        self.out_filter = FilterStage(f"out-filter-{self.peer_id}",
                                      self._export_filter)
        self.peer_out = PeerOutStage(f"peer-out-{self.peer_id}", self.loop,
                                     self._send_update)
        RouteTableStage.plumb(self.out_filter, self.peer_out)

    # -- policy filters (the built-in BGP propagation rules) -------------------
    def _import_filter(self, route: BGPRoute) -> Optional[BGPRoute]:
        return self._import_with(route, self.process.import_policy)

    def _import_with(self, route: BGPRoute,
                     policy) -> Optional[BGPRoute]:
        attrs = route.attributes
        if not self.config.is_ibgp and attrs.as_path.contains(self.config.local_as):
            return None  # AS path loop
        if policy is not None:
            route = policy(route, self)
            if route is None:
                return None
        attrs = route.attributes
        if attrs.local_pref is None:
            # Default applied only where policy did not set one.
            seen, defaulted = self._import_memo
            if seen is not attrs:
                defaulted = attrs.replace(local_pref=100)
                self._import_memo = (attrs, defaulted)
            route = route.with_attributes(defaulted)
        return route

    def _export_filter(self, route: BGPRoute) -> Optional[BGPRoute]:
        return self._export_with(route, self.process.export_policy)

    def _export_with(self, route: BGPRoute,
                     policy) -> Optional[BGPRoute]:
        if route.peer_id == self.peer_id:
            return None  # never send a route back to its origin
        origin_info = self.process.peer_info(route.peer_id)
        if self.config.is_ibgp and origin_info.is_ibgp:
            return None  # no IBGP reflection
        if policy is not None:
            route = policy(route, self)
            if route is None:
                return None
        if not self.config.is_ibgp:
            attrs = route.attributes
            seen, rewritten = self._export_memo
            if seen is not attrs:
                rewritten = attrs.replace(
                    as_path=attrs.as_path.prepend(self.config.local_as),
                    nexthop=self.config.local_addr,
                    local_pref=None,
                )
                self._export_memo = (attrs, rewritten)
            route = route.with_attributes(rewritten)
        return route

    # -- dynamic policy re-filtering (paper §5.1.2) ---------------------------
    def refilter_imports(self, old_policy) -> None:
        """Policy changed: re-run the import path over stored routes.

        "We use the ability to add dynamic stages for many background
        tasks, such as when routing policy filters are changed by the
        operator and many routes need to be refiltered and reevaluated."
        A background task walks the PeerIn table with a safe iterator and
        reconciles the old filter's output with the new filter's.
        """
        from repro.eventloop.tasks import TaskPriority

        iterator = self.peer_in.routes.iterator()
        downstream = self.in_filter.next_table

        def run_slice() -> bool:
            deleted: list = []
            added: list = []
            done = False
            new_policy = self.process.import_policy
            for __ in range(64):
                if iterator.exhausted:
                    iterator.close()
                    done = True
                    break
                if not iterator.valid:
                    iterator.advance()
                    continue
                route = iterator.payload
                iterator.advance()
                old_out = self._import_with(route, old_policy)
                new_out = self._import_with(route, new_policy)
                if downstream is None:
                    continue
                if old_out is not None and new_out is not None:
                    if old_out != new_out:
                        downstream.replace_route(old_out, new_out,
                                                 caller=self.in_filter)
                elif old_out is not None:
                    deleted.append(old_out)
                elif new_out is not None:
                    added.append(new_out)
            if downstream is not None:
                if deleted:
                    downstream.delete_routes(deleted, caller=self.in_filter)
                if added:
                    downstream.add_routes(added, caller=self.in_filter)
            return not done

        self.loop.spawn_task(run_slice, priority=TaskPriority.BACKGROUND,
                             name=f"refilter-{self.peer_id}")

    def refilter_exports(self, old_policy) -> None:
        """Export policy changed: reconcile this peer's announced routes."""
        from repro.bgp.fsm import BgpState
        from repro.eventloop.tasks import TaskPriority

        if self.fsm.state != BgpState.ESTABLISHED:
            return
        iterator = self.process.fanout.winners.iterator()
        downstream = self.out_filter.next_table

        def run_slice() -> bool:
            deleted: list = []
            added: list = []
            done = False
            new_policy = self.process.export_policy
            for __ in range(64):
                if iterator.exhausted:
                    iterator.close()
                    done = True
                    break
                if not iterator.valid:
                    iterator.advance()
                    continue
                route = iterator.payload
                iterator.advance()
                old_out = self._export_with(route, old_policy)
                new_out = self._export_with(route, new_policy)
                if downstream is None:
                    continue
                if old_out is not None and new_out is not None:
                    if old_out != new_out:
                        downstream.replace_route(old_out, new_out,
                                                 caller=self.out_filter)
                elif old_out is not None:
                    deleted.append(old_out)
                elif new_out is not None:
                    added.append(new_out)
            if downstream is not None:
                if deleted:
                    downstream.delete_routes(deleted, caller=self.out_filter)
                if added:
                    downstream.add_routes(added, caller=self.out_filter)
            return not done

        self.loop.spawn_task(run_slice, priority=TaskPriority.BACKGROUND,
                             name=f"refilter-out-{self.peer_id}")

    # -- fanout plumbing -------------------------------------------------------
    def _fanout_deliver(self, op: str, routes: List[Any],
                        old_route: Any) -> None:
        """Fanout reader: a run of same-op changes enters the output
        branch as one stage batch."""
        if op == "add":
            self.out_filter.add_routes(routes)
        elif op == "delete":
            self.out_filter.delete_routes(routes)
        else:
            self.out_filter.replace_route(old_route, routes[0])

    # -- FSM actions ------------------------------------------------------------
    def attach_session(self, session: BgpSession) -> None:
        self.session = session
        session.on_connected = self._on_session_connected
        session.on_data = self._on_session_data
        session.on_closed = self.fsm.connection_failed

    def _on_session_connected(self) -> None:
        # A fresh connection starts a fresh byte stream: any leftover
        # (possibly desynchronised) reassembly state must go.
        self._reader = MessageReader()
        self.fsm.connection_opened()

    def start_connect(self) -> None:
        if self.session is not None:
            self.session.connect()

    def send_message(self, message) -> None:
        if self.session is not None and self.session.connected:
            self.session.send(message.encode())

    def drop_connection(self) -> None:
        if self.session is not None and self.session.connected:
            self.session.close()

    def session_established(self, peer_open) -> None:
        self.info.bgp_id = peer_open.bgp_id
        self.process.fanout.add_reader(self.peer_id, self._fanout_deliver,
                                       dump=True)

    def session_down(self, reason: str) -> None:
        """Peering went down: spin up a dynamic deletion stage (§5.1.2)."""
        self.process.fanout.remove_reader(self.peer_id)
        # Reset the output branch: its state described the dead session.
        # The fresh dump at the next establishment repopulates it.
        self.peer_out._pending.clear()
        # Tell any armed sanitizer the output branch's streams restarted:
        # the wipe above is a legitimate reset, not missed deletes.
        stream_reset(self.out_filter, self.peer_out)
        if self.peer_in.route_count == 0:
            return
        old_routes = self.peer_in.routes
        self.peer_in.routes = RouteTrie(old_routes.bits)
        deletion = DeletionStage(
            f"deletion-{self.peer_id}-{self.deletion_stages_created}",
            self.loop, old_routes,
        )
        self.deletion_stages_created += 1
        self.peer_in.insert_downstream(deletion)
        deletion.start()

    # -- inbound data ------------------------------------------------------------
    def _on_session_data(self, data: bytes) -> None:
        try:
            messages = self._reader.feed(data)
        except BGPDecodeError as error:
            self.fsm.decode_error(error)
            return
        for message in messages:
            self.fsm.message_received(message)

    def update_received(self, update: UpdateMessage) -> None:
        """FSM callback: apply one UPDATE to the PeerIn stage.

        The UPDATE's prefixes enter the pipeline as batches (a peering
        burst is the paper's hot path): one ``withdraw_batch`` and one
        ``originate_batch`` instead of a pipeline traversal per prefix.
        """
        self.updates_received += 1
        prof = self.process.prof_ribin
        if update.withdrawn:
            if prof.enabled:
                for net in update.withdrawn:
                    prof.log_op("delete", net)
            self.peer_in.withdraw_batch(update.withdrawn)
        if update.nlri:
            if prof.enabled:
                for net in update.nlri:
                    prof.log_op("add", net)
            attributes = update.attributes
            peer_id = self.peer_id
            self.peer_in.originate_batch(
                [BGPRoute(net, attributes, peer_id=peer_id)
                 for net in update.nlri])

    # -- outbound updates -----------------------------------------------------
    def _send_update(self, update: UpdateMessage) -> None:
        from repro.bgp.fsm import BgpState

        if self.fsm.state == BgpState.ESTABLISHED:
            self.send_message(update)

    # -- admin ---------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        self.fsm.manual_start()

    def disable(self) -> None:
        self.enabled = False
        self.fsm.manual_stop()

    def tear_down(self) -> None:
        """Remove this peering entirely."""
        self.disable()
        self.process.decision.remove_branch(self.resolver_stage)
        if self.damping is not None:
            self.damping.stop()
