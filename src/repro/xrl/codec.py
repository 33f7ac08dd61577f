"""XRL frame codecs: one atom wire encoding under two frame headers.

Every argument list on every transport is written by :func:`_encode_atoms`
and read by :func:`_decode_atoms` ("internally XRLs are encoded more
efficiently", paper §3.1): varint lengths, one-byte small integers, and a
**column** form for the lists vectorised XRLs carry — two or more atoms
that share one name and one of ``u32 | ipv4 | ipv4net | ipv6 | ipv6net |
mac | txt`` travel as name and tag once, a count, and the bare payloads.
The encoder picks the form from the list it is handed; any other list
keeps the general form (a count, then full atoms).  Decoding validates
structure as it reads — atom-name rule, integer ranges, prefix lengths,
UTF-8, duplicate argument names, truncation at every offset — so what it
returns would pass ``XrlAtom(name, type, value)`` unchanged and is not
validated a second time; anything else is ``BAD_ARGS``.

Two frame codecs put a header in front of the atoms:

* **textual** — the stateless layout every transport speaks by default
  (it keeps the name of the paper's "canonical" form it once carried):

  - request:  ``!I seq  !H len(method)  method-utf8  atoms``
  - response: ``!I seq  !I errcode  !H len(note)  note-utf8  atoms``

* **binary** — a per-connection stateful codec negotiated over TCP via a
  hello/capability exchange.  It differs by **method interning** only:
  the resolved method string (a 16-byte access key +
  interface/version/method, ~55 bytes) is transmitted once and then
  referenced by a 1–2 byte id.

The *method* string on the wire is the **resolved** method name, i.e. the
Finder-issued 16-byte access key followed by ``interface/version/method``
(paper §7) — receivers reject requests whose key does not match.

Both codecs keep the sequence number as the first four bytes (``!I``) of
the body so transports can demux replies without knowing the codec.

Frame *kind* bytes (prefixed by codec-aware transports, i.e. TCP):

========  =====================================================
``0x00``  textual body follows
``0x01``  binary body follows
``0x7E``  HELLO — JSON capabilities, opens negotiation
``0x7F``  HELLO-ACK — JSON ``{"codec": ...}``, closes negotiation
========  =====================================================

A connection starts textual in both directions; each side switches to
binary only after the HELLO/HELLO-ACK round-trip, so an endpoint that
never answers (or answers with an empty codec set) silently leaves the
connection on the textual frames — the transparent fallback.
"""

from __future__ import annotations

import json
import struct
from itertools import repeat, starmap
from operator import methodcaller
from typing import Dict, List, Optional, Tuple

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl.args import XrlArgs
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import (
    BINARY, BOOL, I32, I64, IPV4, IPV4NET, IPV6, IPV6NET, LIST, MAC, TXT, U32,
    U64, CHECKED_NAMES, XrlAtom, XrlAtomType, check_name,
)

# -- frame kinds (transport prefix, one byte) ---------------------------------

KIND_TEXTUAL = 0x00
KIND_BINARY = 0x01
KIND_HELLO = 0x7E
KIND_HELLO_ACK = 0x7F


# -- varints ------------------------------------------------------------------

def write_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ValueError("uvarint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- atom tags ----------------------------------------------------------------

_TAG_I32 = 0x01
_TAG_U32 = 0x02
_TAG_I64 = 0x03
_TAG_U64 = 0x04
_TAG_TXT = 0x05
_TAG_BOOL_FALSE = 0x06
_TAG_BOOL_TRUE = 0x07
_TAG_IPV4 = 0x08
_TAG_IPV6 = 0x09
_TAG_IPV4NET = 0x0A
_TAG_IPV6NET = 0x0B
_TAG_MAC = 0x0C
_TAG_BINARY = 0x0D
_TAG_LIST = 0x0E
#: a list in column form: element name, element tag, count, bare payloads
_TAG_COLUMN = 0x0F
#: ``0x80 | v`` packs a u32 in [0, 0x7F] into the tag byte itself
_TAG_FIXU32 = 0x80

#: varint integers: tag -> (atom type, largest wire value, zigzag-signed)
_VARINTS = {
    _TAG_U32: (U32, (1 << 32) - 1, False),
    _TAG_I32: (I32, (1 << 32) - 1, True),
    _TAG_U64: (U64, (1 << 64) - 1, False),
    _TAG_I64: (I64, (1 << 64) - 1, True),
}
_VARINT_TAGS = {atom_type: (tag, signed)
                for tag, (atom_type, __, signed) in _VARINTS.items()}

_U32 = struct.Struct("!I")

#: Fixed-width payloads, one record layout each whether alone or as a row
#: of a column: atom type -> (tag, layout, value -> fields, fields ->
#: value).  The v4 readers are ``repro.net``'s trusted constructors (any
#: 32-bit word is an address, ``from_packed4`` checks the length octet);
#: the others validate as usual.  A lone ``u32`` is a varint instead.
_FIXED = {
    U32: (_TAG_U32, _U32, lambda value: (value,), int),
    MAC: (_TAG_MAC, struct.Struct("!6s"), lambda mac: (mac.to_bytes(),), Mac),
    IPV4: (_TAG_IPV4, _U32, lambda addr: (addr.to_int(),), IPv4._of),
    # A v4 prefix's int is network << 8 | length: divmod by 256 splits it.
    IPV4NET: (_TAG_IPV4NET, struct.Struct("!IB"),
              methodcaller("__divmod__", 256), IPNet.from_packed4),
    IPV6: (_TAG_IPV6, struct.Struct("!16s"),
           lambda addr: (addr.to_bytes(),), IPv6),
    IPV6NET: (_TAG_IPV6NET, struct.Struct("!16sB"),
              lambda net: (net.network.to_bytes(), net.prefix_len),
              lambda raw, length: IPNet(IPv6(raw), length)),
}
_FIXED_TAGS = {tag: (atom_type, layout, from_fields)
               for atom_type, (tag, layout, __, from_fields)
               in _FIXED.items()}


# -- encoding -----------------------------------------------------------------

def _encode_atoms(buf: bytearray, atoms: List[XrlAtom]) -> None:
    write_uvarint(buf, len(atoms))
    for atom in atoms:
        name_bytes = atom.name.encode("utf-8")
        write_uvarint(buf, len(name_bytes))
        buf += name_bytes
        t = atom.type
        value = atom.value
        if t is U32 and value < 0x80:
            buf.append(_TAG_FIXU32 | value)
        elif t is TXT:
            data = value.encode("utf-8")
            buf.append(_TAG_TXT)
            write_uvarint(buf, len(data))
            buf += data
        elif t is LIST:
            if len(value) < 2 or not _encode_column(buf, value):
                buf.append(_TAG_LIST)
                _encode_atoms(buf, value)
        elif t is BOOL:
            buf.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
        elif t in _VARINT_TAGS:
            tag, signed = _VARINT_TAGS[t]
            buf.append(tag)
            write_uvarint(buf, _zigzag(value) if signed else value)
        elif t in _FIXED:
            tag, layout, to_fields, __ = _FIXED[t]
            buf.append(tag)
            buf += layout.pack(*to_fields(value))
        elif t is BINARY:
            buf.append(_TAG_BINARY)
            write_uvarint(buf, len(value))
            buf += value
        else:  # pragma: no cover - the branches cover every atom type
            raise XrlError(XrlErrorCode.INTERNAL_ERROR, f"unencodable type {t}")


def _encode_column(buf: bytearray, atoms: List[XrlAtom]) -> bool:
    """Append *atoms* in column form if they share one name and one
    columnar type; ``False`` (nothing written) sends the caller to the
    general list form."""
    name = atoms[0].name
    t = atoms[0].type
    if t is not TXT and t not in _FIXED:
        return False
    values = [atom.value for atom in atoms
              if atom.type is t and atom.name == name]
    if len(values) != len(atoms):
        return False
    if t is TXT:
        # One NUL-separated string; a value holding a NUL cannot travel so.
        text = "\0".join(values)
        if text.count("\0") != len(values) - 1:
            return False
        tag = _TAG_TXT
        payload = text.encode("utf-8")
    else:
        tag, layout, to_fields, __ = _FIXED[t]
        payload = b"".join(starmap(layout.pack, map(to_fields, values)))
    name_bytes = name.encode("utf-8")
    buf.append(_TAG_COLUMN)
    write_uvarint(buf, len(name_bytes))
    buf += name_bytes
    buf.append(tag)
    write_uvarint(buf, len(values))
    if tag == _TAG_TXT:
        write_uvarint(buf, len(payload))
    buf += payload
    return True


# -- decoding -----------------------------------------------------------------

#: what corrupt bytes can raise out of the readers below (bad UTF-8 and
#: ``AddressError`` are ``ValueError``s; ``RecursionError`` is a frame of
#: nothing but list openings)
_CORRUPT = (struct.error, ValueError, IndexError, RecursionError)

def _new_atom(name: str, atom_type: XrlAtomType, value) -> XrlAtom:
    # The readers below have checked name and value as XrlAtom.__init__
    # would, so it is not run over them a second time.
    atom = XrlAtom.__new__(XrlAtom)
    atom.name = name
    atom.type = atom_type
    atom.value = value
    return atom


def _decode_atoms(data: bytes, offset: int) -> Tuple[List[XrlAtom], int]:
    count, offset = read_uvarint(data, offset)
    atoms: List[XrlAtom] = []
    append = atoms.append
    checked_names = CHECKED_NAMES
    for __ in range(count):
        name_len, offset = read_uvarint(data, offset)
        end = offset + name_len
        name = data[offset:end].decode("utf-8")
        if name not in checked_names:
            check_name(name)
        tag = data[end]
        offset = end + 1
        if tag >= _TAG_FIXU32:
            append(_new_atom(name, U32, tag & 0x7F))
        elif tag in _VARINTS:
            atom_type, limit, signed = _VARINTS[tag]
            value, offset = read_uvarint(data, offset)
            if value > limit:
                raise ValueError(f"{atom_type.value} out of range")
            append(_new_atom(name, atom_type,
                             _unzigzag(value) if signed else value))
        elif tag == _TAG_TXT:
            length, offset = read_uvarint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated txt payload")
            append(_new_atom(name, TXT, data[offset:end].decode("utf-8")))
            offset = end
        elif tag == _TAG_COLUMN:
            value, offset = _decode_column(data, offset)
            append(_new_atom(name, LIST, value))
        elif tag == _TAG_BOOL_TRUE:
            append(_new_atom(name, BOOL, True))
        elif tag == _TAG_BOOL_FALSE:
            append(_new_atom(name, BOOL, False))
        elif tag in _FIXED_TAGS:
            atom_type, layout, from_fields = _FIXED_TAGS[tag]
            append(_new_atom(name, atom_type, from_fields(
                *layout.unpack_from(data, offset))))
            offset += layout.size
        elif tag == _TAG_BINARY:
            length, offset = read_uvarint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated binary payload")
            append(_new_atom(name, BINARY, data[offset:end]))
            offset = end
        elif tag == _TAG_LIST:
            value, offset = _decode_atoms(data, offset)
            append(_new_atom(name, LIST, value))
        else:
            raise ValueError(f"unknown atom tag {tag:#x}")
    return atoms, offset


def _decode_column(data: bytes, offset: int) -> Tuple[List[XrlAtom], int]:
    name_len, offset = read_uvarint(data, offset)
    end = offset + name_len
    name = data[offset:end].decode("utf-8")
    if name not in CHECKED_NAMES:
        check_name(name)
    tag = data[end]
    count, offset = read_uvarint(data, end + 1)
    if tag == _TAG_TXT:
        atom_type = TXT
        length, offset = read_uvarint(data, offset)
        end = offset + length
        values = data[offset:end].decode("utf-8").split("\0")
        if end > len(data) or len(values) != count:
            raise ValueError("truncated or miscounted txt column")
    elif tag in _FIXED_TAGS:
        atom_type, layout, from_fields = _FIXED_TAGS[tag]
        end = offset + count * layout.size
        if end > len(data):
            raise ValueError("truncated column")
        rows = layout.iter_unpack(data[offset:end])
        if atom_type is IPV4:  # one object per distinct address
            words = [row[0] for row in rows]
            values = map({word: IPv4._of(word) for word in set(words)}
                         .__getitem__, words)
        else:
            values = starmap(from_fields, rows)
    else:
        raise ValueError(f"tag {tag:#x} has no column form")
    return list(map(_new_atom, repeat(name), repeat(atom_type), values)), end


def _decode_args(data: bytes, offset: int) -> XrlArgs:
    """The argument list that fills the rest of *data* from *offset*."""
    atoms, offset = _decode_atoms(data, offset)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes")
    args = XrlArgs.__new__(XrlArgs)
    args._atoms = atoms
    args._index = {atom.name: atom for atom in atoms}
    if len(args._index) != len(atoms):
        raise ValueError("duplicate atom name")
    return args


# -- frame codecs -------------------------------------------------------------

class FrameCodec:
    """Encode/decode one direction-pair of XRL frames for one connection."""

    name: str = "?"
    #: the frame-kind byte codec-aware transports prefix bodies with
    kind: int = KIND_TEXTUAL

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        raise NotImplementedError

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        raise NotImplementedError

    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        raise NotImplementedError

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        raise NotImplementedError


class TextualCodec(FrameCodec):
    """The stateless frames: the method string travels in every request."""

    name = "textual"
    kind = KIND_TEXTUAL

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        method_bytes = resolved_method.encode("utf-8")
        buf = bytearray(struct.pack("!IH", seq & 0xFFFFFFFF,
                                    len(method_bytes)))
        buf += method_bytes
        _encode_atoms(buf, args._atoms)
        return bytes(buf)

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        try:
            seq, method_len = struct.unpack_from("!IH", data, 0)
            end = 6 + method_len
            method = data[6:end].decode("utf-8")
            args = _decode_args(data, end)
        except _CORRUPT as exc:
            raise XrlError(XrlErrorCode.BAD_ARGS,
                           f"corrupt request frame: {exc}") from exc
        return seq, method, args

    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        note_bytes = error.note.encode("utf-8")
        buf = bytearray(struct.pack("!IIH", seq & 0xFFFFFFFF,
                                    int(error.code), len(note_bytes)))
        buf += note_bytes
        _encode_atoms(buf, args._atoms if args is not None else [])
        return bytes(buf)

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        try:
            seq, code, note_len = struct.unpack_from("!IIH", data, 0)
            end = 10 + note_len
            note = data[10:end].decode("utf-8")
            args = _decode_args(data, end)
            error = XrlError(XrlErrorCode(code), note)
        except _CORRUPT as exc:
            raise XrlError(XrlErrorCode.BAD_ARGS,
                           f"corrupt response frame: {exc}") from exc
        return seq, error, args


#: the shared stateless instance every non-negotiating transport uses
TEXTUAL = TextualCodec()

# The stateless frame functions: the historical public surface.
encode_request = TEXTUAL.encode_request
decode_request = TEXTUAL.decode_request
encode_response = TEXTUAL.encode_response
decode_response = TEXTUAL.decode_response


class BinaryCodec(FrameCodec):
    """One connection endpoint's binary frame state.

    Request encoding and request decoding each carry a method-intern
    table.  The tables stay consistent because frames travel over an
    ordered byte stream: the encoder assigns ids in emission order and
    the decoder assigns the same ids in arrival order.  Responses carry
    no interned state, so they survive connection-codec transitions.
    """

    name = "binary"
    kind = KIND_BINARY

    __slots__ = ("_methods_out", "_methods_in")

    def __init__(self) -> None:
        #: method -> pre-rendered token bytes (encoder side)
        self._methods_out: Dict[str, bytes] = {}
        #: id (1-based, list index + 1) -> method (decoder side)
        self._methods_in: List[str] = []

    # -- requests ---------------------------------------------------------
    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        buf = bytearray(struct.pack("!I", seq & 0xFFFFFFFF))
        token = self._methods_out.get(resolved_method)
        if token is None:
            # First use on this connection: emit the definition (token 0
            # + string); later frames reference it by implicit id.
            method_bytes = resolved_method.encode("utf-8")
            buf.append(0)
            write_uvarint(buf, len(method_bytes))
            buf += method_bytes
            ref = bytearray()
            write_uvarint(ref, len(self._methods_out) + 1)
            self._methods_out[resolved_method] = bytes(ref)
        else:
            buf += token
        _encode_atoms(buf, args._atoms)
        return bytes(buf)

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        try:
            (seq,) = struct.unpack_from("!I", data, 0)
            token, offset = read_uvarint(data, 4)
            if token == 0:
                length, offset = read_uvarint(data, offset)
                end = offset + length
                if end > len(data):
                    raise ValueError("truncated method definition")
                method = data[offset:end].decode("utf-8")
                self._methods_in.append(method)
                offset = end
            else:
                method = self._methods_in[token - 1]
            args = _decode_args(data, offset)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt binary request frame: {exc}"
            ) from exc
        return seq, method, args

    # -- responses --------------------------------------------------------
    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        buf = bytearray(struct.pack("!I", seq & 0xFFFFFFFF))
        write_uvarint(buf, int(error.code))
        note_bytes = error.note.encode("utf-8")
        write_uvarint(buf, len(note_bytes))
        buf += note_bytes
        _encode_atoms(buf, args._atoms if args is not None else [])
        return bytes(buf)

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        try:
            (seq,) = struct.unpack_from("!I", data, 0)
            code, offset = read_uvarint(data, 4)
            note_len, offset = read_uvarint(data, offset)
            end = offset + note_len
            if end > len(data):
                raise ValueError("truncated error note")
            note = data[offset:end].decode("utf-8")
            args = _decode_args(data, end)
            error = XrlError(XrlErrorCode(code), note)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt binary response frame: {exc}"
            ) from exc
        return seq, error, args


# -- negotiation --------------------------------------------------------------

#: codecs in preference order (first common entry wins)
CODEC_PREFERENCE = ("binary", "textual")


def encode_hello(codecs) -> bytes:
    """The HELLO / HELLO-ACK payload: JSON capability dict."""
    return json.dumps({"codecs": list(codecs)}).encode("utf-8")


def decode_hello(payload: bytes) -> List[str]:
    try:
        message = json.loads(payload.decode("utf-8"))
        if not isinstance(message, dict):
            raise ValueError("hello payload must be a JSON object")
        codecs = message.get("codecs", [])
        if not isinstance(codecs, list):
            raise ValueError("codecs must be a list")
        return [str(codec) for codec in codecs]
    except (ValueError, UnicodeDecodeError) as exc:
        raise XrlError(
            XrlErrorCode.BAD_ARGS, f"corrupt hello frame: {exc}"
        ) from exc


def choose_codec(local, remote) -> str:
    """Pick the preferred codec both ends speak (textual as floor)."""
    remote_set = set(remote)
    for codec in CODEC_PREFERENCE:
        if codec in local and codec in remote_set:
            return codec
    return "textual"


def make_codec(name: str) -> FrameCodec:
    if name == "binary":
        return BinaryCodec()
    return TEXTUAL
