"""BGP session transports.

The peer handler talks to an abstract byte stream: the in-memory pair
below (tests, one-host experiments), :mod:`repro.simnet`'s channel
adapter or :class:`TcpSession` (separate processes), all carrying the
*real* encoded BGP messages.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.eventloop.stream import StreamChannel, StreamListener


class BgpSession:
    """Abstract reliable, in-order byte stream between two BGP speakers."""

    def __init__(self) -> None:
        self.on_connected: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_closed: Optional[Callable[[], None]] = None

    def connect(self) -> None:
        """Initiate the transport (idempotent)."""
        raise NotImplementedError

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def connected(self) -> bool:
        raise NotImplementedError


class LoopbackSession(BgpSession):
    """One endpoint of an in-memory session pair."""

    def __init__(self, loop, latency: float = 0.0):
        super().__init__()
        self._loop = loop
        self._latency = latency
        self._peer: Optional["LoopbackSession"] = None
        self._connected = False

    @property
    def connected(self) -> bool:
        return self._connected

    def connect(self) -> None:
        if self._connected or self._peer is None:
            return
        self._connected = True
        self._peer._connected = True
        self._loop.call_soon(self._notify_connected)
        self._loop.call_soon(self._peer._notify_connected)

    def _notify_connected(self) -> None:
        if self._connected and self.on_connected is not None:
            self.on_connected()

    def send(self, data: bytes) -> None:
        if not self._connected or self._peer is None:
            return
        peer = self._peer

        def deliver() -> None:
            if peer._connected and peer.on_data is not None:
                peer.on_data(data)

        if self._latency > 0:
            self._loop.call_later(self._latency, deliver, name="bgp-session")
        else:
            self._loop.call_soon(deliver)

    def close(self) -> None:
        if not self._connected:
            return
        self._connected = False
        peer = self._peer
        if peer is not None and peer._connected:
            peer._connected = False
            if peer.on_closed is not None:
                self._loop.call_soon(peer.on_closed)


def session_pair(loop, latency: float = 0.0):
    """A connected pair of loopback sessions (caller wires them to peers)."""
    a, b = LoopbackSession(loop, latency), LoopbackSession(loop, latency)
    a._peer = b
    b._peer = a
    return a, b


class TcpSession(StreamChannel, BgpSession):
    """A BGP session over TCP: an accepted socket, or one :meth:`connect`
    dials (again after each close).  ``on_closed`` reports a lost
    connection or a refused dial, not our own :meth:`close`."""

    #: Never pauses reading: a paused peer's KEEPALIVEs would sit unread
    #: until its hold timer fired.  Slow peers are the fanout queue's job.
    serving = False
    writes = 0  # this session's send() calls, not the XRL family's

    def __init__(self, loop, *, sock=None, remote=None):
        BgpSession.__init__(self)
        self._stats = self
        self._remote = remote  # (host, port) for the active side
        StreamChannel.__init__(self, loop, sock)
        if sock is not None:
            loop.call_soon(self._on_connected)

    @property
    def connected(self) -> bool:
        return self._reading  # never paused: reading exactly while up

    def connect(self) -> None:
        if self._sock is None and self._remote is not None:
            self._dial(self._remote)

    def _on_connected(self) -> None:
        if self._reading and self.on_connected is not None:
            self.on_connected()

    def _on_chunk(self, chunk: bytes) -> None:
        on_data = self.on_data  # an instance attribute observers rebind
        if on_data is not None:
            on_data(chunk)

    def _on_closed(self) -> None:
        if self.on_closed is not None:
            self.on_closed()

    def send(self, data: bytes) -> None:
        if self._reading:
            self._out += data
            self._flush()

    def close(self) -> None:
        self._release()


class TcpSessionListener(StreamListener):
    """Accepts inbound BGP TCP connections and hands off TcpSessions."""

    def __init__(self, loop, on_session: Callable[[TcpSession], None], *,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(loop, host, port, lambda sock: on_session(
            TcpSession(loop, sock=sock)))
