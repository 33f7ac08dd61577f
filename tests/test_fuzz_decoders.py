"""Decoder fuzzing: arbitrary bytes must raise clean errors, never crash.

Routers parse attacker-controlled input; every codec in the stack must
fail closed.  Hypothesis feeds random and mutated-valid byte strings to
each decoder and asserts the only observable outcomes are (a) a valid
decode or (b) the codec's declared error type.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import (
    MARKER,
    BGPDecodeError,
    ErrorCode,
    KeepaliveMessage,
    MessageReader,
    MessageType,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.attributes import BGPAttributeError, PathAttributeList
from repro.mld6igmp.igmp import IgmpPacket, IgmpPacketError
from repro.net import IPNet, IPv4
from repro.ospf.packets import OspfDecodeError, decode_packet
from repro.rip.packets import RipPacket, RipPacketError
from repro.xrl.error import XrlError
from repro.xrl.transport.base import decode_request, decode_response
from repro.xrl.types import XrlAtom

raw_bytes = st.binary(max_size=200)


def _mutate(data: bytes, index: int, value: int) -> bytes:
    if not data:
        return data
    buffer = bytearray(data)
    buffer[index % len(buffer)] = value
    return bytes(buffer)


mutated_bgp = st.builds(
    _mutate,
    st.just(UpdateMessage(
        attributes=PathAttributeList(nexthop=IPv4("1.2.3.4")),
        nlri=[IPNet.parse("10.0.0.0/8")]).encode()),
    st.integers(0, 200), st.integers(0, 255),
)


class TestBgpFuzz:
    @settings(max_examples=200)
    @given(raw_bytes)
    def test_decode_random(self, data):
        try:
            decode_message(data)
        except BGPDecodeError:
            pass

    @settings(max_examples=200)
    @given(mutated_bgp)
    def test_decode_mutated_update(self, data):
        try:
            decode_message(data)
        except (BGPDecodeError, BGPAttributeError):
            pass

    @settings(max_examples=100)
    @given(st.lists(raw_bytes, max_size=5))
    def test_stream_reader_random_chunks(self, chunks):
        reader = MessageReader()
        try:
            for chunk in chunks:
                reader.feed(chunk)
        except BGPDecodeError:
            pass

    @settings(max_examples=200)
    @given(raw_bytes)
    def test_attribute_list_random(self, data):
        try:
            PathAttributeList.decode(data)
        except BGPAttributeError:
            pass


class TestBgpNotificationFuzz:
    """NOTIFICATION error-code/subcode edges: every defined code
    round-trips with arbitrary subcodes and data; reserved/unknown codes
    and truncated bodies raise the structured ``BGPDecodeError`` (which
    carries its own error code for the peer's CEASE) — never a bare
    ``ValueError`` leaking out of the ``ErrorCode`` enum lookup."""

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(ErrorCode)),
           st.integers(0, 255), st.binary(max_size=64))
    def test_known_codes_round_trip(self, code, subcode, data):
        message = NotificationMessage(code, subcode, data)
        decoded = decode_message(message.encode())
        assert isinstance(decoded, NotificationMessage)
        assert decoded.code == code
        assert decoded.subcode == subcode
        assert decoded.data == data

    @settings(max_examples=200)
    @given(st.integers(0, 255), st.integers(0, 255), st.binary(max_size=64))
    def test_unknown_codes_raise_structured_error(self, code, subcode, data):
        """Code 0 and anything above CEASE are reserved/unassigned."""
        body = bytes([code, subcode]) + data
        frame = MARKER + struct.pack(
            "!HB", 19 + len(body), MessageType.NOTIFICATION) + body
        defined = {int(c) for c in ErrorCode}
        try:
            decoded = decode_message(frame)
        except BGPDecodeError as exc:
            # Reserved codes must fail closed, with the decode error
            # itself carrying a *valid* NOTIFICATION code.
            assert code not in defined
            assert isinstance(exc.code, ErrorCode)
        else:
            assert code in defined
            assert int(decoded.code) == code

    @settings(max_examples=100)
    @given(st.binary(max_size=1))
    def test_short_body_raises_structured_error(self, body):
        frame = MARKER + struct.pack(
            "!HB", 19 + len(body), MessageType.NOTIFICATION) + body
        with pytest.raises(BGPDecodeError):
            decode_message(frame)

    @settings(max_examples=200)
    @given(st.integers(0, 200), st.integers(0, 255))
    def test_mutated_notification(self, index, value):
        """Byte-level mutations of a valid NOTIFICATION: decode cleanly
        or raise the declared error type, never anything else."""
        pristine = NotificationMessage(
            ErrorCode.CEASE, 2, b"shutdown").encode()
        try:
            decode_message(_mutate(pristine, index, value))
        except BGPDecodeError:
            pass


class TestRipFuzz:
    @settings(max_examples=200)
    @given(raw_bytes)
    def test_decode_random(self, data):
        try:
            RipPacket.decode(data)
        except RipPacketError:
            pass

    @settings(max_examples=200)
    @given(st.integers(0, 200), st.integers(0, 255))
    def test_mutated_valid(self, index, value):
        from repro.rip.packets import RIP_COMMAND_RESPONSE, RipEntry

        packet = RipPacket(RIP_COMMAND_RESPONSE,
                           [RipEntry(IPNet.parse("10.0.0.0/8"), 3)],
                           auth_password="pw")
        try:
            RipPacket.decode(_mutate(packet.encode(), index, value))
        except RipPacketError:
            pass


class TestOspfFuzz:
    @settings(max_examples=200)
    @given(raw_bytes)
    def test_decode_random(self, data):
        try:
            decode_packet(data)
        except OspfDecodeError:
            pass

    @settings(max_examples=200)
    @given(st.integers(0, 200), st.integers(0, 255))
    def test_mutated_hello(self, index, value):
        from repro.ospf.packets import HelloPacket

        packet = HelloPacket(IPv4("1.1.1.1"), 10, 40, [IPv4("2.2.2.2")])
        try:
            decode_packet(_mutate(packet.encode(), index, value))
        except OspfDecodeError:
            pass


class TestIgmpFuzz:
    @settings(max_examples=200)
    @given(raw_bytes)
    def test_decode_random(self, data):
        try:
            IgmpPacket.decode(data)
        except IgmpPacketError:
            pass


class TestXrlFuzz:
    @settings(max_examples=200)
    @given(raw_bytes)
    def test_args_binary_random(self, data):
        # The argument list alone: the bytes after an empty-method header.
        try:
            decode_request(b"\x00\x00\x00\x01\x00\x00" + data)
        except XrlError:
            pass

    @settings(max_examples=200)
    @given(raw_bytes)
    def test_request_frame_random(self, data):
        try:
            decode_request(data)
        except XrlError:
            pass

    @settings(max_examples=200)
    @given(raw_bytes)
    def test_response_frame_random(self, data):
        try:
            decode_response(data)
        except XrlError:
            pass

    @settings(max_examples=200)
    @given(st.text(max_size=120))
    def test_atom_text_random(self, text):
        try:
            XrlAtom.from_text(text)
        except XrlError:
            pass

    @settings(max_examples=200)
    @given(st.text(max_size=120))
    def test_xrl_text_random(self, text):
        from repro.xrl.xrl import Xrl

        try:
            Xrl.from_text(text)
        except XrlError:
            pass


class TestDispatchFuzz:
    def test_router_survives_random_frames(self):
        """A live XrlRouter fed garbage frames must answer errors only."""
        import random as stdlib_random

        from repro.core.process import Host, XorpProcess

        host = Host()
        process = XorpProcess(host, "p")
        router = process.create_router("victim")
        router.register_raw_method("v/1.0/m", lambda args: None)
        rng = stdlib_random.Random(7)
        for __ in range(300):
            frame = bytes(rng.randrange(256)
                          for __ in range(rng.randrange(0, 80)))
            response = router.dispatch_frame(frame)
            assert isinstance(response, bytes)  # always a clean response
