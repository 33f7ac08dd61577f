"""BGP message wire codec: OPEN, UPDATE, NOTIFICATION, KEEPALIVE.

The simulated-network experiments run real byte streams between routers,
so this is a full encoder/decoder with header marker validation and the
standard error codes for NOTIFICATION generation.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.bgp.attributes import BGPAttributeError, PathAttributeList
from repro.eventloop.stream import FrameReassembler
from repro.net import IPNet, IPv4

MARKER = b"\xff" * 16
HEADER_LEN = 19
MAX_MESSAGE_LEN = 4096
BGP_VERSION = 4


class MessageType(IntEnum):
    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class ErrorCode(IntEnum):
    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FSM_ERROR = 5
    CEASE = 6


class BGPDecodeError(ValueError):
    """Raised on malformed input; carries NOTIFICATION error codes."""

    def __init__(self, message: str, code: ErrorCode,
                 subcode: int = 0, data: bytes = b""):
        super().__init__(message)
        self.code = code
        self.subcode = subcode
        self.data = data


def _encode_prefix(net: IPNet) -> bytes:
    """<length, truncated address> NLRI encoding."""
    # A v4 prefix's int is its network's four octets, then its length.
    plen = net & 0xFF
    return bytes([plen]) + (net >> 8).to_bytes(4, "big")[:(plen + 7) // 8]


def _decode_prefixes(data: bytes, what: str) -> List[IPNet]:
    prefixes = []
    offset = 0
    while offset < len(data):
        plen = data[offset]
        offset += 1
        if plen > 32:
            raise BGPDecodeError(
                f"bad prefix length {plen} in {what}",
                ErrorCode.UPDATE_MESSAGE_ERROR, 10,
            )
        byte_count = (plen + 7) // 8
        if offset + byte_count > len(data):
            raise BGPDecodeError(
                f"truncated prefix in {what}",
                ErrorCode.UPDATE_MESSAGE_ERROR, 10,
            )
        end = offset + byte_count
        # The octets present are the high end of the 32-bit network word.
        word = int.from_bytes(data[offset:end], "big") << (32 - 8 * byte_count)
        offset = end
        prefixes.append(IPNet.from_packed4(word, plen))
    return prefixes


def _frame(message_type: MessageType, body: bytes) -> bytes:
    length = HEADER_LEN + len(body)
    if length > MAX_MESSAGE_LEN:
        raise BGPDecodeError(
            f"message too long ({length})", ErrorCode.MESSAGE_HEADER_ERROR, 2
        )
    return MARKER + struct.pack("!HB", length, message_type) + body


class OpenMessage:
    """BGP OPEN: version, AS, hold time, identifier."""

    __slots__ = ("asn", "holdtime", "bgp_id", "version")

    message_type = MessageType.OPEN

    def __init__(self, asn: int, holdtime: int, bgp_id: IPv4,
                 version: int = BGP_VERSION):
        self.asn = asn
        self.holdtime = holdtime
        self.bgp_id = bgp_id
        self.version = version

    def encode(self) -> bytes:
        body = struct.pack("!BHH", self.version, self.asn, self.holdtime)
        body += self.bgp_id.to_bytes()
        body += b"\x00"  # no optional parameters
        return _frame(self.message_type, body)

    @classmethod
    def decode_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise BGPDecodeError("short OPEN", ErrorCode.OPEN_MESSAGE_ERROR)
        version, asn, holdtime = struct.unpack_from("!BHH", body, 0)
        if version != BGP_VERSION:
            raise BGPDecodeError(
                f"unsupported BGP version {version}",
                ErrorCode.OPEN_MESSAGE_ERROR, 1,
                struct.pack("!H", BGP_VERSION),
            )
        if holdtime in (1, 2):
            raise BGPDecodeError(
                "unacceptable hold time", ErrorCode.OPEN_MESSAGE_ERROR, 6
            )
        bgp_id = IPv4(body[5:9])
        opt_len = body[9]
        if len(body) != 10 + opt_len:
            raise BGPDecodeError(
                "OPEN optional parameter length mismatch",
                ErrorCode.OPEN_MESSAGE_ERROR,
            )
        return cls(asn, holdtime, bgp_id, version)

    def __repr__(self) -> str:
        return f"Open(as={self.asn} hold={self.holdtime} id={self.bgp_id})"


class UpdateMessage:
    """BGP UPDATE: withdrawn prefixes + (attributes, NLRI prefixes)."""

    # One UpdateMessage per peer per flush on the announce path: slotted
    # so a full-table burst does not pay a __dict__ per message.
    __slots__ = ("withdrawn", "attributes", "nlri")

    message_type = MessageType.UPDATE

    def __init__(self, withdrawn: Optional[List[IPNet]] = None,
                 attributes: Optional[PathAttributeList] = None,
                 nlri: Optional[List[IPNet]] = None):
        self.withdrawn = list(withdrawn) if withdrawn else []
        self.attributes = attributes
        self.nlri = list(nlri) if nlri else []
        if self.nlri and self.attributes is None:
            raise BGPDecodeError(
                "UPDATE with NLRI needs attributes",
                ErrorCode.UPDATE_MESSAGE_ERROR, 3,
            )

    def encode(self) -> bytes:
        withdrawn_bytes = b"".join(_encode_prefix(p) for p in self.withdrawn)
        attr_bytes = self.attributes.encode() if (
            self.attributes is not None and self.nlri
        ) else b""
        nlri_bytes = b"".join(_encode_prefix(p) for p in self.nlri)
        body = (
            struct.pack("!H", len(withdrawn_bytes)) + withdrawn_bytes
            + struct.pack("!H", len(attr_bytes)) + attr_bytes
            + nlri_bytes
        )
        return _frame(self.message_type, body)

    @classmethod
    def decode_body(cls, body: bytes) -> "UpdateMessage":
        if len(body) < 4:
            raise BGPDecodeError("short UPDATE", ErrorCode.UPDATE_MESSAGE_ERROR)
        (withdrawn_len,) = struct.unpack_from("!H", body, 0)
        offset = 2
        if offset + withdrawn_len + 2 > len(body):
            raise BGPDecodeError(
                "bad withdrawn length", ErrorCode.UPDATE_MESSAGE_ERROR, 1
            )
        withdrawn = _decode_prefixes(
            body[offset : offset + withdrawn_len], "withdrawn"
        )
        offset += withdrawn_len
        (attr_len,) = struct.unpack_from("!H", body, offset)
        offset += 2
        if offset + attr_len > len(body):
            raise BGPDecodeError(
                "bad attribute length", ErrorCode.UPDATE_MESSAGE_ERROR, 1
            )
        attr_bytes = body[offset : offset + attr_len]
        offset += attr_len
        nlri = _decode_prefixes(body[offset:], "NLRI")
        attributes = None
        if nlri:
            try:
                attributes = PathAttributeList.decode(attr_bytes)
            except BGPAttributeError as exc:
                raise BGPDecodeError(
                    str(exc), ErrorCode.UPDATE_MESSAGE_ERROR, 3
                ) from exc
        return cls(withdrawn, attributes, nlri)

    def __repr__(self) -> str:
        return (
            f"Update(withdraw={[str(p) for p in self.withdrawn]} "
            f"announce={[str(p) for p in self.nlri]})"
        )


class NotificationMessage:
    __slots__ = ("code", "subcode", "data")

    message_type = MessageType.NOTIFICATION

    def __init__(self, code: ErrorCode, subcode: int = 0, data: bytes = b""):
        self.code = ErrorCode(code)
        self.subcode = subcode
        self.data = data

    def encode(self) -> bytes:
        return _frame(self.message_type,
                      struct.pack("!BB", self.code, self.subcode) + self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise BGPDecodeError(
                "short NOTIFICATION", ErrorCode.MESSAGE_HEADER_ERROR
            )
        try:
            code = ErrorCode(body[0])
        except ValueError as exc:
            raise BGPDecodeError(
                f"unknown NOTIFICATION error code {body[0]}",
                ErrorCode.MESSAGE_HEADER_ERROR,
            ) from exc
        return cls(code, body[1], body[2:])

    def __repr__(self) -> str:
        return f"Notification({self.code.name}/{self.subcode})"


class KeepaliveMessage:
    __slots__ = ()

    message_type = MessageType.KEEPALIVE

    def encode(self) -> bytes:
        return _frame(self.message_type, b"")

    @classmethod
    def decode_body(cls, body: bytes) -> "KeepaliveMessage":
        if body:
            raise BGPDecodeError(
                "KEEPALIVE with body", ErrorCode.MESSAGE_HEADER_ERROR, 2
            )
        return cls()

    def __repr__(self) -> str:
        return "Keepalive()"


_DECODERS = {
    MessageType.OPEN: OpenMessage.decode_body,
    MessageType.UPDATE: UpdateMessage.decode_body,
    MessageType.NOTIFICATION: NotificationMessage.decode_body,
    MessageType.KEEPALIVE: KeepaliveMessage.decode_body,
}


def decode_message(data: bytes):
    """Decode one complete framed message (header + body)."""
    if len(data) < HEADER_LEN:
        raise BGPDecodeError("short header", ErrorCode.MESSAGE_HEADER_ERROR)
    if data[:16] != MARKER:
        raise BGPDecodeError(
            "connection not synchronised", ErrorCode.MESSAGE_HEADER_ERROR, 1
        )
    length, msg_type = struct.unpack_from("!HB", data, 16)
    if length != len(data) or not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
        raise BGPDecodeError(
            f"bad message length {length}", ErrorCode.MESSAGE_HEADER_ERROR, 2,
            struct.pack("!H", length),
        )
    decoder = _DECODERS.get(msg_type)
    if decoder is None:
        raise BGPDecodeError(
            f"bad message type {msg_type}", ErrorCode.MESSAGE_HEADER_ERROR, 3,
            bytes([msg_type]),
        )
    return decoder(data[HEADER_LEN:])


def _message_length(data: bytearray) -> int:
    """The length field of the header at the front of *data*."""
    (length,) = struct.unpack_from("!H", data, 16)
    if not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
        raise BGPDecodeError(
            f"bad stream length {length}",
            ErrorCode.MESSAGE_HEADER_ERROR, 2,
        )
    return length


class MessageReader:
    """Incremental reassembly of BGP messages from a byte stream."""

    __slots__ = ("_frames",)

    def __init__(self) -> None:
        self._frames = FrameReassembler(HEADER_LEN, _message_length)

    def feed(self, chunk: bytes) -> List[object]:
        """Append stream bytes; return every complete decoded message."""
        return [decode_message(frame) for frame in self._frames.feed(chunk)]
