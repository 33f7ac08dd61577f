"""TCP protocol family — XORP's default transport, with pipelining and a
negotiated binary frame codec.

Frames are length-prefixed (``!I`` byte count); the first payload byte is
the frame *kind* (see :mod:`repro.xrl.codec`): a codec tag for
request/response bodies, or a HELLO / HELLO-ACK control frame.  A sender
may have many requests outstanding; responses carry the request sequence
number (always the first four body bytes, in either codec), so replies
are matched even if a future implementation reorders them.

Codec negotiation: the client opens with HELLO listing its codecs; the
server picks the best common one, answers HELLO-ACK, and each side
switches its *transmit* codec only after the exchange completes.  Both
directions accept either codec per-frame throughout, so in-flight
textual frames are unaffected and an endpoint that never acks simply
stays textual — the transparent fallback.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Callable, Dict, List, Optional

from repro.xrl.args import XrlArgs
from repro.xrl.codec import (
    KIND_BINARY,
    KIND_HELLO,
    KIND_HELLO_ACK,
    KIND_TEXTUAL,
    TEXTUAL,
    BinaryCodec,
    choose_codec,
    decode_hello,
    encode_hello,
)
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.transport.base import ProtocolFamily, ReplyCallback, Sender


#: Largest frame a connection will reassemble.  The ``!I`` prefix is
#: outside input: unchecked, four bytes (``ff ff ff ff``) would make a
#: listener buffer up to 4 GiB.  The largest legitimate frames (a
#: vectorized 256-route FIB XRL, a Finder registration) are tens of KiB.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: Reply bytes a serving connection lets a peer leave unread before it
#: stops reading that peer's requests (it resumes once they drain), so a
#: client that pipelines and never reads is held to this plus one reply.
MAX_UNSENT_BYTES = 1024 * 1024

#: What one ``recv`` takes, and the most a channel holds back unwritten
#: while it delivers that chunk (``FramedChannel._corked``); at most
#: :data:`MAX_UNSENT_BYTES`, so the slow-reader pause still comes in time.
CHUNK_BYTES = 64 * 1024


class FrameBuffer:
    """Incremental length-prefixed frame reassembly."""

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Absorb *chunk*; return the frames it completed.

        Raises ``ValueError`` on a length prefix above
        :data:`MAX_FRAME_SIZE` — the caller closes that connection.
        """
        self._data.extend(chunk)
        frames = []
        while True:
            if len(self._data) < 4:
                break
            (length,) = struct.unpack_from("!I", self._data, 0)
            if length > MAX_FRAME_SIZE:
                self._data.clear()
                raise ValueError(f"frame length {length} exceeds "
                                 f"{MAX_FRAME_SIZE}")
            if len(self._data) < 4 + length:
                break
            frames.append(bytes(self._data[4 : 4 + length]))
            del self._data[: 4 + length]
        return frames


def pack_frame(payload: bytes) -> bytes:
    return struct.pack("!I", len(payload)) + payload


_TEXTUAL_PREFIX = bytes([KIND_TEXTUAL])
_BINARY_PREFIX = bytes([KIND_BINARY])


class FramedChannel:
    """One non-blocking TCP connection of ``!I``-length-prefixed frames.

    The single socket state machine behind the XRL listener's accepted
    connections and the XRL sender (the Finder is an XRL target and its
    client an XRL sender, so its sessions are these too).
    Subclasses implement :meth:`_on_frame` (one complete inbound frame)
    and :meth:`_on_closed` (runs once, however the connection ended), and
    set ``_family`` (the :class:`TcpFamily` counting writes and frames).

    While it delivers a received chunk of several frames the channel is
    *corked*: what its handlers transmit on it (replies, and the requests
    a reply callback pipelines behind them) collects in ``_out`` and goes
    out in one ``send()`` when the chunk is done, or early once more than
    :data:`CHUNK_BYTES` wait.  A loop turn entered from inside the
    delivery writes it first (``EventLoop.corked``): a nested
    ``send_sync`` must not wait for a reply to a request still held here.
    """

    #: A serving connection stops reading requests while more than
    #: :data:`MAX_UNSENT_BYTES` of its replies wait for the peer to read.
    #: A client never pauses: reading a reply queues no output here, and
    #: two ends that each refuse to read until written to would deadlock.
    serving = True

    _family: "TcpFamily"

    def __init__(self, loop, sock: socket.socket):
        self._loop = loop
        self._sock: Optional[socket.socket] = sock
        self._buffer = FrameBuffer()
        #: complete frames held back while reading is paused
        self._parked: List[bytes] = []
        self._out = bytearray()
        #: bytes of ``_out`` already written to the socket
        self._sent = 0
        self._reading = True
        self._writing = False
        #: delivering a chunk of several frames: writes wait for its end
        self._corked = False
        sock.setblocking(False)
        loop.add_reader(sock, self._on_readable)

    @property
    def alive(self) -> bool:
        return self._sock is not None

    def _on_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def _on_closed(self) -> None:
        """The connection is gone (EOF, error, oversized frame or close())."""

    def _on_readable(self) -> None:
        sock = self._sock
        if sock is None:
            return  # closed earlier in this select batch
        try:
            chunk = sock.recv(CHUNK_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.close()
            return
        try:
            frames = self._buffer.feed(chunk)
        except ValueError:
            self.close()
            return
        self._deliver(frames)

    def _deliver(self, frames: List[bytes]) -> None:
        # A lone frame's handler has no other handler's write to share a
        # send() with, so stop-and-wait traffic skips the cork's cost.
        outermost = not self._corked and len(frames) > 1
        if outermost:
            self._corked = True
            self._loop.corked.append(self._flush)
        try:
            for frame in frames:
                if self._reading:
                    self._on_frame(frame)
                else:  # paused (or closed) by an earlier frame of this chunk
                    self._parked.append(frame)
        finally:
            if outermost:
                self._corked = False
                self._loop.corked.pop()
                if len(self._out) > self._sent:
                    self._flush()

    def _transmit(self, frame: bytes) -> None:
        """Queue one already-framed *frame* (see :meth:`_queued`)."""
        if self._sock is None:
            return  # a deferred reply, or a push, after the peer went away
        self._out += frame
        self._family.frames_out += 1
        self._queued()

    def _queued(self) -> None:
        """Frames joined ``_out``: write now, or, while corked, once more
        than :data:`CHUNK_BYTES` wait — so a chunk of requests whose
        replies the peer does not read still meets the pause in
        :meth:`_flush`."""
        if not self._corked or len(self._out) - self._sent > CHUNK_BYTES:
            self._flush()

    def _flush(self) -> None:
        sock = self._sock
        if sock is None:
            return  # closed earlier in this select batch
        out = self._out
        family = self._family
        while self._sent < len(out):
            try:
                if self._sent:  # resume mid-buffer without copying the rest
                    with memoryview(out) as view, view[self._sent:] as unsent:
                        self._sent += sock.send(unsent)
                else:
                    self._sent = sock.send(out)
                family.writes += 1
            except BlockingIOError:
                if not self._writing:
                    self._writing = True
                    self._loop.add_writer(sock, self._flush)
                if (self.serving and self._reading
                        and len(out) - self._sent > MAX_UNSENT_BYTES):
                    self._reading = False
                    self._loop.remove_reader(sock)
                return
            except OSError:
                self.close()
                return
        out.clear()
        self._sent = 0
        if self._writing:
            self._writing = False
            self._loop.remove_writer(sock)
        if not self._reading:
            self._reading = True
            self._loop.add_reader(sock, self._on_readable)
            parked, self._parked = self._parked, []
            self._deliver(parked)

    def close(self) -> None:
        sock = self._sock
        if sock is None:
            return
        self._sock = None
        if self._reading:
            self._reading = False
            self._loop.remove_reader(sock)
        if self._writing:
            self._loop.remove_writer(sock)
        try:
            sock.close()
        finally:
            self._on_closed()


class _TcpConnection(FramedChannel):
    """One accepted server-side connection."""

    def __init__(self, listener: "_TcpListener", sock: socket.socket):
        self._listener = listener
        self._family = listener._family
        self._router = listener._router
        #: per-connection binary state, created by the HELLO exchange
        self._codec: Optional[BinaryCodec] = None
        #: called once when the connection has ended, for a handler that
        #: keeps state per connection (the Finder: a session is a lease)
        self.on_close: Optional[Callable[[], None]] = None
        super().__init__(self._router.loop, sock)

    def _deliver(self, frames: List[bytes]) -> None:
        # Handlers can read which connection is dispatching; restored, not
        # cleared: a handler's push may drain another connection, which
        # then delivers its parked frames from inside this call.
        router = self._router
        previous = router.dispatch_channel
        router.dispatch_channel = self
        try:
            super()._deliver(frames)
        finally:
            router.dispatch_channel = previous

    def _on_frame(self, frame: bytes) -> None:
        kind = frame[0] if frame else -1
        if kind == KIND_TEXTUAL:
            self._router.dispatch_frame_async(
                frame[1:],
                lambda response: self._transmit(
                    pack_frame(_TEXTUAL_PREFIX + response)))
        elif kind == KIND_BINARY and self._codec is not None:
            self._router.dispatch_frame_async(
                frame[1:],
                lambda response: self._transmit(
                    pack_frame(_BINARY_PREFIX + response)),
                codec=self._codec)
        elif kind == KIND_HELLO:
            try:
                remote = decode_hello(frame[1:])
            except XrlError:
                remote = []
            chosen = choose_codec(self._family.codecs, remote)
            if chosen == "binary":
                self._codec = BinaryCodec()
            self._transmit(
                pack_frame(bytes([KIND_HELLO_ACK]) + encode_hello([chosen])))
        else:
            # Unknown kind (or binary before negotiation): the frame is
            # undecodable, so the best we can do is a seq-0 error the
            # client counts as a late reply.
            error = XrlError(XrlErrorCode.BAD_ARGS,
                             f"unknown frame kind {kind:#x}")
            self._transmit(pack_frame(
                _TEXTUAL_PREFIX + TEXTUAL.encode_response(0, error, XrlArgs())))

    def _on_closed(self) -> None:
        self._listener._connections.discard(self)
        if self.on_close is not None:
            self.on_close()


class _TcpListener:
    def __init__(self, family: "TcpFamily", router):
        self._family = family
        self._router = router
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((family.bind_host, 0))
        sock.listen(64)
        sock.setblocking(False)
        self._sock = sock
        self.address = "{}:{}".format(*sock.getsockname())
        self._connections = set()
        router.loop.add_reader(sock, self._on_accept)

    def _on_accept(self) -> None:
        while True:
            try:
                conn, __ = self._sock.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._connections.add(_TcpConnection(self, conn))

    def close(self) -> None:
        if self._sock is None:
            return
        self._router.loop.remove_reader(self._sock)
        for conn in list(self._connections):
            conn.close()
        try:
            self._sock.close()
        finally:
            self._sock = None


class _TcpSender(FramedChannel, Sender):
    """Client side: every call one router makes to one listener address,
    pipelined over one connection.

    Requests transmit textual until the server's HELLO-ACK selects the
    binary codec; replies are decoded per-frame by their kind byte, so
    the transition is seamless for in-flight calls.
    """

    serving = False

    def __init__(self, family: "TcpFamily", address: str, router):
        host, __, port_text = address.rpartition(":")
        self._family = family
        #: reply callbacks of the calls on the wire, by seq, in send order
        self._pending: Dict[int, ReplyCallback] = {}
        self._codec: Optional[BinaryCodec] = None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.connect((host, int(port_text)))
        except OSError as exc:
            sock.close()
            raise XrlError(
                XrlErrorCode.SEND_FAILED, f"tcp connect to {address} failed: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().__init__(router.loop, sock)
        codecs = family.codecs
        if "binary" in codecs:
            self._transmit(pack_frame(bytes([KIND_HELLO]) + encode_hello(codecs)))

    # -- codec surface ----------------------------------------------------
    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        codec = self._codec
        if codec is None:
            return _TEXTUAL_PREFIX + TEXTUAL.encode_request(
                seq, resolved_method, args)
        return _BINARY_PREFIX + codec.encode_request(seq, resolved_method, args)

    def decode_response(self, frame: bytes):
        if frame[0] == KIND_BINARY and self._codec is not None:
            return self._codec.decode_response(frame[1:])
        return TEXTUAL.decode_response(frame[1:])

    # -- transmission -----------------------------------------------------
    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        self.call_batch(((request, reply_cb),))

    def call_batch(self, requests) -> None:
        """Pipelining: N frames, one buffered write — shared with whatever
        else is sent here while a chunk of replies is delivered.

        Concatenating frames is wire-compatible — the receiver's
        :class:`FrameBuffer` splits on length prefixes and replies carry
        sequence numbers, so responses demux per call.  With the binary
        codec the whole segment is one contiguous buffer of compact
        frames sharing the connection's interned method table.
        """
        if self._sock is None:
            raise XrlError(XrlErrorCode.SEND_FAILED, "tcp sender is closed")
        out = self._out
        frames = 0
        for request, reply_cb in requests:
            # The frame already carries a sequence number assigned by the
            # router (after the kind byte); we track it for reply matching
            # without re-parsing.
            (seq,) = struct.unpack_from("!I", request, 1)
            self._pending[seq] = reply_cb
            out += pack_frame(request)
            frames += 1
        self._family.frames_out += frames
        self._queued()

    def _on_frame(self, response: bytes) -> None:
        kind = response[0] if response else -1
        if kind == KIND_HELLO_ACK:
            try:
                chosen = decode_hello(response[1:])
            except XrlError:
                chosen = []
            if "binary" in chosen:
                self._codec = BinaryCodec()
            return
        (seq,) = struct.unpack_from("!I", response, 1)
        reply_cb = self._pending.pop(seq, None)
        if reply_cb is not None:
            reply_cb(response)

    def _on_closed(self) -> None:
        """No reply can arrive any more: fail the calls on the wire, in
        send order, from the loop (a close may come from inside a send)."""
        pending, self._pending = self._pending, {}
        for reply_cb in pending.values():
            self._loop.call_soon(reply_cb, None)


class TcpFamily(ProtocolFamily):
    name = "stcp"
    preference = 20

    def __init__(self, codec: Optional[str] = None,
                 bind_host: str = "127.0.0.1") -> None:
        self._listeners: Dict[str, _TcpListener] = {}
        self.bind_host = bind_host
        if codec is None:
            codec = os.environ.get("REPRO_XRL_CODEC", "binary")
        #: codecs this family negotiates, most preferred first
        self.codecs = (("binary", "textual") if codec == "binary"
                       else ("textual",))
        #: successful ``send()`` calls and frames queued, over every
        #: connection of this family; frames per write is the coalescing
        self.writes = 0
        self.frames_out = 0

    def listen(self, router) -> str:
        listener = _TcpListener(self, router)
        self._listeners[listener.address] = listener
        return listener.address

    def connect(self, address: str, router) -> Sender:
        return _TcpSender(self, address, router)

    def unlisten(self, address: str) -> None:
        listener = self._listeners.pop(address, None)
        if listener is not None:
            listener.close()

    def capabilities(self) -> dict:
        return {"codecs": self.codecs}
