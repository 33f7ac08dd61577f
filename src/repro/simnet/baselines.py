"""Baseline router models for the Figure 13 comparison.

    "The experiment was performed on XORP, Cisco-4500 (IOS Version 12.1),
    Quagga-0.96.5, and MRTD-2.2.2a routers. ... The Cisco and Quagga
    routers exhibit the obvious symptoms of a 30-second route scanner,
    where all the routes received in the previous 30 seconds are processed
    in one batch.  Fast convergence is simply not possible with such a
    scanner-based approach."

Both models are *real BGP speakers*: they run the same peer FSM and
exchange the same encoded messages as our XORP-style stack.  They differ
only in the property under test:

* :class:`ScannerRouterModel` (Cisco IOS / Quagga / Zebra): received
  updates land in a staging table; a periodic route scanner — default 30 s
  — processes the batch and propagates it;
* :class:`EventDrivenRouterModel` (MRTD / BIRD): a single-process
  event-driven router that propagates each update as it arrives, after a
  small per-update processing cost.

:class:`Speaker` is the test equipment on the same shell: the BGP
speaker every experiment and example injects routes with and receives
them on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.fsm import PeerFSM
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, session_pair
from repro.net import IPNet, IPv4


def wire(loop, end_a, end_b, latency: float = 0.0) -> None:
    """Plug two started peerings — a router's enabled ``PeerHandler`` or
    a started model's peer — into a fresh in-memory session pair, and
    connect it from *end_a*'s side."""
    session_a, session_b = session_pair(loop, latency)
    end_a.attach_session(session_a)
    end_b.attach_session(session_b)
    session_a.connect()


class _ModelPeer:
    """FSM + session wiring for one peering of a baseline router."""

    def __init__(self, model: "_BaselineRouter", name: str, peer_as: int):
        self.model = model
        self.name = name
        self.fsm = PeerFSM(
            model.loop, self,
            local_as=model.local_as,
            bgp_id=model.bgp_id,
            peer_as=peer_as,
            holdtime=90,
            name=f"{model.name}-{name}",
        )
        self.session: Optional[BgpSession] = None

    def attach_session(self, session: BgpSession) -> None:
        self.session = session
        session.on_connected = self._on_connected
        session.on_data = self._on_data
        session.on_closed = self.fsm.connection_failed

    def _on_connected(self) -> None:
        from repro.bgp.messages import MessageReader

        self._reader = MessageReader()  # fresh stream, fresh reassembly
        self.fsm.connection_opened()

    def _on_data(self, data: bytes) -> None:
        from repro.bgp.messages import BGPDecodeError, MessageReader

        if not hasattr(self, "_reader"):
            self._reader = MessageReader()
        try:
            messages = self._reader.feed(data)
        except BGPDecodeError as error:
            self.fsm.decode_error(error)
            return
        for message in messages:
            self.fsm.message_received(message)

    # FSM actions ------------------------------------------------------------
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
        pass

    def session_down(self, reason: str) -> None:
        pass

    def update_received(self, update: UpdateMessage) -> None:
        self.model.update_from_peer(self, update)


class _BaselineRouter:
    """Common shell: peers, adj-RIB-in, propagation hook."""

    def __init__(self, loop, name: str, local_as: int, bgp_id: str):
        self.loop = loop
        self.name = name
        self.local_as = local_as
        self.bgp_id = IPv4(bgp_id)
        self.peers: Dict[str, _ModelPeer] = {}
        #: net -> (attributes, from_peer_name)
        self.rib_in: Dict[IPNet, Tuple] = {}
        self.updates_propagated = 0

    def add_peer(self, name: str, peer_as: int) -> _ModelPeer:
        peer = _ModelPeer(self, name, peer_as)
        self.peers[name] = peer
        return peer

    def start(self) -> None:
        for peer in self.peers.values():
            peer.fsm.manual_start()

    def update_from_peer(self, peer: _ModelPeer, update: UpdateMessage) -> None:
        raise NotImplementedError

    def _propagate(self, from_peer: _ModelPeer, update: UpdateMessage) -> None:
        """Send *update* (rewritten) to every other peer."""
        if update.nlri:
            attributes = update.attributes.replace(
                as_path=update.attributes.as_path.prepend(self.local_as))
            forwarded = UpdateMessage(withdrawn=update.withdrawn,
                                      attributes=attributes, nlri=update.nlri)
        else:
            forwarded = update
        for peer in self.peers.values():
            if peer is from_peer:
                continue
            from repro.bgp.fsm import BgpState

            if peer.fsm.state == BgpState.ESTABLISHED:
                self.updates_propagated += 1
                peer.send_message(forwarded)


class Speaker(_BaselineRouter):
    """A BGP speaker that injects UPDATEs and records what it is sent.

    It never propagates: the injectors, sinks and flapping neighbours of
    the experiments and examples, attached to a configured router's peer
    with :func:`wire`.
    """

    def __init__(self, loop, name: str, local_as: int, bgp_id: str):
        super().__init__(loop, name, local_as, bgp_id)
        #: ``(arrival time, prefix)`` for every prefix announced to us
        self.arrivals: List[Tuple[float, IPNet]] = []

    def update_from_peer(self, peer: _ModelPeer, update: UpdateMessage) -> None:
        now = self.loop.now()
        self.arrivals.extend((now, net) for net in update.nlri)

    def inject(self, update: UpdateMessage) -> None:
        for peer in self.peers.values():
            peer.send_message(update)


class EventDrivenRouterModel(_BaselineRouter):
    """MRTD/BIRD model: process-to-completion per update.

    A single monolithic event-driven process: no IPC hops, just a small
    per-update processing delay before propagation.
    """

    def __init__(self, loop, name: str, local_as: int, bgp_id: str, *,
                 processing_delay: float = 0.002):
        super().__init__(loop, name, local_as, bgp_id)
        self.processing_delay = processing_delay

    def update_from_peer(self, peer: _ModelPeer, update: UpdateMessage) -> None:
        for net in update.withdrawn:
            self.rib_in.pop(net, None)
        for net in update.nlri:
            self.rib_in[net] = (update.attributes,
                                peer.name if peer is not None else "inject")
        self.loop.call_later(self.processing_delay,
                             lambda: self._propagate(peer, update),
                             name=f"{self.name}-process")


class ScannerRouterModel(_BaselineRouter):
    """Cisco IOS / Quagga / Zebra model: periodic route scanner.

    Updates accumulate in a staging buffer; every *scan_interval* seconds
    the scanner wakes, resolves the batch, and propagates it — the source
    of "all the routes received in the previous 30 seconds are processed
    in one batch" in Figure 13.
    """

    def __init__(self, loop, name: str, local_as: int, bgp_id: str, *,
                 scan_interval: float = 30.0,
                 per_route_scan_cost: float = 0.0005):
        super().__init__(loop, name, local_as, bgp_id)
        self.scan_interval = scan_interval
        self.per_route_scan_cost = per_route_scan_cost
        self._staged: List[Tuple[_ModelPeer, UpdateMessage]] = []
        self.scans_run = 0
        self._scan_timer = loop.call_periodic(
            scan_interval, self._scan, name=f"{name}-scanner")

    def stop(self) -> None:
        self._scan_timer.cancel()

    def update_from_peer(self, peer: _ModelPeer, update: UpdateMessage) -> None:
        for net in update.withdrawn:
            self.rib_in.pop(net, None)
        for net in update.nlri:
            self.rib_in[net] = (update.attributes,
                                peer.name if peer is not None else "inject")
        self._staged.append((peer, update))

    def _scan(self) -> None:
        """The periodic route scanner: drain the whole staged batch."""
        self.scans_run += 1
        if not self._staged:
            return
        staged, self._staged = self._staged, []
        batch_cost = self.per_route_scan_cost * len(staged)
        for index, (peer, update) in enumerate(staged):
            delay = batch_cost * (index + 1) / max(1, len(staged))
            self.loop.call_later(
                delay,
                lambda p=peer, u=update: self._propagate(p, u),
                name=f"{self.name}-scan-out")
