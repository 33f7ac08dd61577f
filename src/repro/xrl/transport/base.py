"""Protocol family base classes and the frame-codec surface.

The frame codecs themselves live in :mod:`repro.xrl.codec`; the four
canonical (textual) frame functions are re-exported here because they
are the historical public surface every transport and test imports.

Every transport exposes the same constructor surface (the uniform API
the codec negotiation relies on):

* ``listen(router) -> address``
* ``connect(address, router) -> Sender``
* ``capabilities() -> dict`` — at minimum ``{"codecs": (...)}``; the
  TCP hello/ack exchange advertises exactly this set, and wrapper
  families (fault, kill) delegate so they compose over a negotiated
  binary codec unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.xrl.args import XrlArgs
from repro.xrl.codec import (  # noqa: F401  (re-exported public surface)
    TEXTUAL,
    FrameCodec,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.xrl.error import XrlError

#: Receives the raw response frame, or ``None`` when the transport gives
#: up on the call (its connection closed, a datagram was never answered).
ReplyCallback = Callable[[Optional[bytes]], None]


class Sender:
    """A router's one connection to one remote listener address: every
    method it calls there travels through this sender, in send order.

    :meth:`call` transmits one encoded request and arranges for the raw
    response frame to reach *reply_cb*.  Whether calls pipeline (multiple
    outstanding) is a per-family property — the crux of the paper's
    TCP-vs-UDP comparison in Figure 9.

    The frames a sender carries are opaque between the router and this
    sender: the router encodes requests with :meth:`encode_request` and
    decodes the reply frames with :meth:`decode_response`, so a
    codec-negotiating transport (TCP) can swap the wire form under an
    established connection without the router noticing.
    """

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        """Encode one request frame for this connection's current codec."""
        return TEXTUAL.encode_request(seq, resolved_method, args)

    def decode_response(self, frame: bytes) -> Tuple[int, XrlError, XrlArgs]:
        """Decode one reply frame previously passed to a reply callback."""
        return TEXTUAL.decode_response(frame)

    def call(self, request: bytes, reply_cb: ReplyCallback) -> None:
        raise NotImplementedError

    def call_batch(self, requests: "list") -> None:
        """Transmit several ``(request, reply_cb)`` pairs coalesced.

        Families with per-call transmission overhead (a syscall, an
        event-loop hop) override this to pay that overhead once per batch;
        responses still arrive individually, demuxed by sequence number.
        The default decomposes the batch into singular :meth:`call`\\ s, so
        the batch is always semantically identical to its decomposition —
        the same contract the staged tables follow.
        """
        for request, reply_cb in requests:
            self.call(request, reply_cb)

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    @property
    def alive(self) -> bool:
        return True


class ProtocolFamily:
    """Factory for listeners and senders of one transport kind."""

    #: family tag used in resolved XRLs (e.g. ``stcp``)
    name: str = "?"
    #: larger is preferred when several families can reach a target
    preference: int = 0

    def listen(self, router) -> str:
        """Start receiving for *router*; return the listener address."""
        raise NotImplementedError

    def connect(self, address: str, router) -> Sender:
        """Create (or reuse) a sender towards *address*."""
        raise NotImplementedError

    def unlisten(self, address: str) -> None:
        """Stop receiving on *address* (idempotent)."""

    def capabilities(self) -> dict:
        """What this transport speaks; read by the codec negotiation."""
        return {"codecs": ("textual",)}
