"""TCP protocol family — XORP's default transport, with pipelining and a
negotiated binary frame codec.

Frames are ``!I``-length-prefixed; the first payload byte is the frame
*kind* (:mod:`repro.xrl.codec`): a codec tag, or HELLO / HELLO-ACK.  A
sender may have many requests outstanding; a response carries its
request's sequence number (the first four body bytes in either codec).
The client opens with HELLO listing its codecs, the server answers
HELLO-ACK with the best common one, and each side switches its
*transmit* codec only then.  Both accept either codec per frame
throughout, so an endpoint that never acks simply stays textual.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Callable, Dict, List, Optional

from repro.eventloop.stream import CHUNK_BYTES, StreamChannel, StreamListener
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


#: Largest frame a connection will reassemble: unchecked, four outside
#: bytes (``ff ff ff ff``) would make a listener buffer up to 4 GiB.  The
#: largest legitimate frames (a 256-route FIB XRL) are tens of KiB.
MAX_FRAME_SIZE = 16 * 1024 * 1024


class FrameBuffer:
    """Incremental length-prefixed frame reassembly."""

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Absorb *chunk*; return the frames it completed.  Raises
        ``ValueError`` on a length above :data:`MAX_FRAME_SIZE`."""
        self._data.extend(chunk)
        frames = []
        while len(self._data) >= 4:
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


class FramedChannel(StreamChannel):
    """A stream of ``!I``-length-prefixed frames: the listener's accepted
    connections and the XRL sender (so the Finder's sessions too).
    Subclasses implement ``_on_frame(frame)`` and set ``_family`` (the
    :class:`TcpFamily` counting writes and frames) before this runs.

    While it delivers a chunk of several frames the channel is *corked*:
    what its handlers transmit goes out in one ``send()`` when the chunk
    is done, or once more than :data:`CHUNK_BYTES` wait, and a loop turn
    entered from inside the delivery writes it first (``EventLoop
    .corked``).  A client never pauses: two ends that each refuse to
    read would deadlock."""

    _family: "TcpFamily"

    def __init__(self, loop, sock: socket.socket):
        self._stats = self._family
        self._buffer = FrameBuffer()
        #: complete frames held back while reading is paused
        self._parked: List[bytes] = []
        #: delivering a chunk of several frames: writes wait for its end
        self._corked = False
        super().__init__(loop, sock)

    def _on_chunk(self, chunk: bytes) -> None:
        try:
            frames = self._buffer.feed(chunk)
        except ValueError:
            self.close()
            return
        self._deliver(frames)

    def _on_resumed(self) -> None:
        parked, self._parked = self._parked, []
        self._deliver(parked)

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
        """Frames joined ``_out``: write now or, corked, once more than
        :data:`CHUNK_BYTES` wait, so an unread peer still meets the pause."""
        if not self._corked or len(self._out) - self._sent > CHUNK_BYTES:
            self._flush()


class _TcpConnection(FramedChannel):
    """One accepted server-side connection."""

    def __init__(self, listener: "_TcpListener", sock: socket.socket):
        self._listener = listener
        self._family = listener._family
        self._router = listener._router
        #: per-connection binary state, created by the HELLO exchange
        self._codec: Optional[BinaryCodec] = None
        #: called once the connection ended (the Finder: a session's lease)
        self.on_close: Optional[Callable[[], None]] = None
        super().__init__(self._router.loop, sock)

    def _deliver(self, frames: List[bytes]) -> None:
        # Restored, not cleared: a handler's push may drain another
        # connection, which then delivers its parked frames in this call.
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
            # Unknown kind (or binary before negotiation): undecodable, so
            # a seq-0 error the client counts as a late reply.
            error = XrlError(XrlErrorCode.BAD_ARGS,
                             f"unknown frame kind {kind:#x}")
            self._transmit(pack_frame(
                _TEXTUAL_PREFIX + TEXTUAL.encode_response(0, error, XrlArgs())))

    def _on_closed(self) -> None:
        self._listener._connections.discard(self)
        if self.on_close is not None:
            self.on_close()


class _TcpListener(StreamListener):
    def __init__(self, family: "TcpFamily", router):
        self._family = family
        self._router = router
        self._connections = set()
        super().__init__(router.loop, family.bind_host, 0, self._accept)
        self.address = f"{self.host}:{self.port}"

    def _accept(self, sock: socket.socket) -> None:
        self._connections.add(_TcpConnection(self, sock))

    def close(self) -> None:
        for conn in list(self._connections):
            conn.close()
        super().close()


class _TcpSender(FramedChannel, Sender):
    """Client side: every call one router makes to one listener address,
    pipelined over one connection.  Requests go textual until HELLO-ACK
    selects binary; replies decode per frame by their kind byte."""

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
        else is sent here while a chunk of replies is delivered.  The
        receiver splits on length prefixes; replies demux by sequence."""
        if self._sock is None:
            raise XrlError(XrlErrorCode.SEND_FAILED, "tcp sender is closed")
        out = self._out
        frames = 0
        for request, reply_cb in requests:
            # the router's sequence number, after the kind byte
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
        #: ``send()`` calls and frames queued over every connection
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
