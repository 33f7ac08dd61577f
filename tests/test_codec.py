"""Property tests for the XRL frame codecs and their one atom encoding.

Both frame codecs write arguments with the same encoder, whose decoder
validates structure as it reads and runs no second validation pass over
the atoms it builds, so the properties that matter are:

* **round trip** — any encodable frame decodes to the same
  seq/method/error/args, for every atom type, nested lists included;
* **codec equivalence** — the textual and binary codecs agree on the
  semantic content of every frame;
* **structured failure** — truncated or corrupted frames either decode
  (corruption can be semantically invisible) or raise :class:`XrlError`;
  never any other exception, because a transport feeds these to a live
  dispatch loop;
* **hostile input** — whatever does decode, from any bytes at all, holds
  only atoms that ``XrlAtom(name, type, value)`` would build again
  unchanged: the decoder's structural checks are the validation;
* **column form** — a homogeneous list travels as one column and decodes
  to the same args as the general list form would; every truncation of
  a column is ``BAD_ARGS``;
* **interning** — repeated methods shrink to a 1–2 byte reference and
  decode through the paired table; a dangling reference is a structured
  error;
* **negotiation** — HELLO payloads round-trip, garbage is rejected as
  :class:`XrlError`, and codec choice always lands on a codec both ends
  speak, with textual as the floor.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl import codec as codec_module
from repro.xrl.args import XrlArgs
from repro.xrl.codec import (
    CODEC_PREFERENCE,
    TEXTUAL,
    BinaryCodec,
    choose_codec,
    decode_hello,
    encode_hello,
    make_codec,
    write_uvarint,
)
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import XrlAtom, XrlAtomType

# -- strategies ---------------------------------------------------------------

atom_names = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                           exclude_characters="%&=?/:,"),
    min_size=1, max_size=12)


def _scalar_atom(name):
    return st.one_of(
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.I32, v), name,
                  st.integers(-(1 << 31), (1 << 31) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.U32, v), name,
                  st.integers(0, (1 << 32) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.I64, v), name,
                  st.integers(-(1 << 63), (1 << 63) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.U64, v), name,
                  st.integers(0, (1 << 64) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.TXT, v), name,
                  st.text(max_size=48)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.BOOL, v), name,
                  st.booleans()),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.IPV4, IPv4(v)), name,
                  st.integers(0, (1 << 32) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.IPV6, IPv6(v)), name,
                  st.integers(0, (1 << 128) - 1)),
        st.builds(lambda n, v, p: XrlAtom(n, XrlAtomType.IPV4NET,
                                          IPNet(IPv4(v), p)),
                  name, st.integers(0, (1 << 32) - 1), st.integers(0, 32)),
        st.builds(lambda n, v, p: XrlAtom(n, XrlAtomType.IPV6NET,
                                          IPNet(IPv6(v), p)),
                  name, st.integers(0, (1 << 128) - 1), st.integers(0, 128)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.MAC, Mac(v)), name,
                  st.integers(0, (1 << 48) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.BINARY, bytes(v)), name,
                  st.lists(st.integers(0, 255), max_size=48)),
    )


def _list_atom(name):
    return st.builds(
        lambda n, items: XrlAtom(n, XrlAtomType.LIST, items),
        name, st.lists(_scalar_atom(atom_names), max_size=4))


def _args_from(atoms):
    args = XrlArgs()
    for atom in atoms:
        if atom.name not in args._index:
            args.add(atom)
    return args


args_strategy = st.builds(
    _args_from,
    st.lists(st.one_of(_scalar_atom(atom_names), _list_atom(atom_names)),
             max_size=6))

methods = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1, max_size=80)

seqs = st.integers(0, (1 << 32) - 1)

error_codes = st.sampled_from(list(XrlErrorCode))


def _assert_args_equal(a: XrlArgs, b: XrlArgs) -> None:
    assert list(a) == list(b)


# -- round trips --------------------------------------------------------------

class TestBinaryRoundTrip:
    @settings(max_examples=200)
    @given(seqs, methods, args_strategy)
    def test_request(self, seq, method, args):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        seq2, method2, args2 = decoder.decode_request(
            encoder.encode_request(seq, method, args))
        assert (seq2, method2) == (seq, method)
        _assert_args_equal(args2, args)

    @settings(max_examples=200)
    @given(seqs, error_codes, st.text(max_size=80), args_strategy)
    def test_response(self, seq, code, note, args):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        seq2, error, args2 = decoder.decode_response(
            encoder.encode_response(seq, XrlError(code, note), args))
        assert (seq2, error.code, error.note) == (seq, code, note)
        _assert_args_equal(args2, args)

    @given(seqs, methods, args_strategy)
    def test_equivalent_to_textual(self, seq, method, args):
        """Both codecs agree on the semantic content of any frame."""
        encoder, decoder = BinaryCodec(), BinaryCodec()
        binary = decoder.decode_request(
            encoder.encode_request(seq, method, args))
        textual = TEXTUAL.decode_request(
            TEXTUAL.encode_request(seq, method, args))
        assert binary[:2] == textual[:2]
        _assert_args_equal(binary[2], textual[2])

    @given(seqs, methods, args_strategy)
    def test_seq_is_first_four_bytes_in_both_codecs(self, seq, method, args):
        """Transports demux replies on bytes 0–3 without knowing the codec."""
        binary = BinaryCodec().encode_request(seq, method, args)
        textual = TEXTUAL.encode_request(seq, method, args)
        assert binary[:4] == textual[:4]


# -- adversarial frames -------------------------------------------------------

class TestStructuredFailure:
    @settings(max_examples=200)
    @given(seqs, methods, args_strategy, st.data())
    def test_truncated_request_raises_xrl_error(self, seq, method, args, data):
        frame = BinaryCodec().encode_request(seq, method, args)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(XrlError) as excinfo:
            BinaryCodec().decode_request(frame[:cut])
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @settings(max_examples=200)
    @given(seqs, methods, args_strategy, st.data())
    def test_corrupt_request_never_escapes_xrl_error(self, seq, method, args,
                                                     data):
        """A flipped byte decodes or raises XrlError — nothing else."""
        frame = bytearray(BinaryCodec().encode_request(seq, method, args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= data.draw(st.integers(1, 255))
        try:
            BinaryCodec().decode_request(bytes(frame))
        except XrlError:
            pass

    @settings(max_examples=200)
    @given(seqs, error_codes, st.text(max_size=40), args_strategy, st.data())
    def test_corrupt_response_never_escapes_xrl_error(self, seq, code, note,
                                                      args, data):
        frame = bytearray(BinaryCodec().encode_response(
            seq, XrlError(code, note), args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= data.draw(st.integers(1, 255))
        try:
            BinaryCodec().decode_response(bytes(frame))
        except XrlError:
            pass

    @given(st.binary(max_size=64))
    def test_random_garbage_raises_or_decodes(self, junk):
        try:
            BinaryCodec().decode_request(junk)
        except XrlError:
            pass
        try:
            BinaryCodec().decode_response(junk)
        except XrlError:
            pass

    def test_trailing_bytes_rejected(self):
        frame = BinaryCodec().encode_request(1, "m", XrlArgs())
        with pytest.raises(XrlError):
            BinaryCodec().decode_request(frame + b"\x00")


# -- hostile input ------------------------------------------------------------

CODECS = [pytest.param(lambda: TEXTUAL, id="textual"),
          pytest.param(BinaryCodec, id="binary")]


def _assert_well_formed(atoms) -> None:
    """Every atom, recursively, is what its own constructor would build:
    the property that stands in for a validation pass after decode."""
    for atom in atoms:
        assert type(atom) is XrlAtom
        assert atom == XrlAtom(atom.name, atom.type, atom.value)
        assert type(atom.value) is type(
            XrlAtom(atom.name, atom.type, atom.value).value)
        if atom.type is XrlAtomType.LIST:
            _assert_well_formed(atom.value)


def _decode_both_ways(make, frame: bytes) -> None:
    """*frame* as a request and as a response: XrlError or valid args."""
    for decode in (make().decode_request, make().decode_response):
        try:
            decoded = decode(frame)
        except XrlError as error:
            assert error.code == XrlErrorCode.BAD_ARGS
        else:
            _assert_well_formed(decoded[2])
            assert len({atom.name for atom in decoded[2]}) == len(decoded[2])


def _request_frame(make, atom_bytes: bytes) -> bytes:
    """A request for method ``m`` whose argument bytes are *atom_bytes*."""
    frame = make().encode_request(1, "m", XrlArgs())
    assert frame.endswith(b"\x00")  # the empty list's count
    return frame[:-1] + atom_bytes


def _uvarint(value: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, value)
    return bytes(buf)


@pytest.mark.parametrize("make", CODECS)
class TestHostileInput:
    @settings(max_examples=300)
    @given(junk=st.binary(max_size=96))
    def test_arbitrary_bytes(self, make, junk):
        _decode_both_ways(make, junk)

    @settings(max_examples=300)
    @given(junk=st.binary(max_size=64))
    def test_arbitrary_argument_bytes(self, make, junk):
        """Garbage placed where the decoder expects the atom list."""
        _decode_both_ways(make, _request_frame(make, junk))

    @settings(max_examples=300)
    @given(seq=seqs, method=methods, args=args_strategy, data=st.data())
    def test_bit_flipped_and_truncated_requests(self, make, seq, method, args,
                                                data):
        frame = bytearray(make().encode_request(seq, method, args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= 1 << data.draw(st.integers(0, 7))
        _decode_both_ways(make, bytes(frame))
        _decode_both_ways(make, bytes(frame[:position]))

    @settings(max_examples=300)
    @given(seq=seqs, code=error_codes, note=st.text(max_size=40),
           args=args_strategy, data=st.data())
    def test_bit_flipped_and_truncated_responses(self, make, seq, code, note,
                                                 args, data):
        frame = bytearray(make().encode_response(
            seq, XrlError(code, note), args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= 1 << data.draw(st.integers(0, 7))
        _decode_both_ways(make, bytes(frame))
        _decode_both_ways(make, bytes(frame[:position]))

    # The escapes the parent's binary decoder let through to a handler.
    @pytest.mark.parametrize("tag, wire_value", [
        (0x02, 1 << 32), (0x02, 1 << 40),            # u32
        (0x04, 1 << 64),                             # u64
        (0x01, 1 << 32), (0x01, (1 << 33) + 1),      # i32, either sign
        (0x03, 1 << 64), (0x03, (1 << 65) + 1),      # i64, either sign
    ])
    def test_integer_out_of_range_is_bad_args(self, make, tag, wire_value):
        atom = b"\x01" + b"\x01x" + bytes([tag]) + _uvarint(wire_value)
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, atom))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @pytest.mark.parametrize("tag, wire_value, value", [
        (0x02, (1 << 32) - 1, (1 << 32) - 1),
        (0x04, (1 << 64) - 1, (1 << 64) - 1),
        (0x01, (1 << 32) - 1, -(1 << 31)),
        (0x01, (1 << 32) - 2, (1 << 31) - 1),
        (0x03, (1 << 64) - 1, -(1 << 63)),
    ])
    def test_integer_range_edges_decode(self, make, tag, wire_value, value):
        atom = b"\x01" + b"\x01x" + bytes([tag]) + _uvarint(wire_value)
        args = make().decode_request(_request_frame(make, atom))[2]
        assert args.atom("x").value == value

    @pytest.mark.parametrize("name", ["", "a&b=c", "a?b", "a/b", "a:b",
                                      "a,b", "a%b", "a b", "a\nb"])
    def test_bad_atom_name_is_bad_args(self, make, name):
        raw = name.encode("utf-8")
        atom = b"\x01" + bytes([len(raw)]) + raw + b"\x81"  # fixu32 1
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, atom))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS
        # ... and as the element name of a column
        column = (b"\x01" + b"\x01l" + b"\x0f" + bytes([len(raw)]) + raw
                  + b"\x02" + b"\x02" + struct.pack("!II", 1, 2))
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, column))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    def test_duplicate_argument_name_is_bad_args(self, make):
        atoms = b"\x02" + b"\x01x\x81" + b"\x01x\x82"
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, atoms))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    def test_prefix_length_out_of_range_is_bad_args(self, make):
        for atom in (b"\x01\x01n\x0a" + bytes([10, 0, 0, 0, 33]),
                     b"\x01\x01n\x0b" + bytes(16) + bytes([129]),
                     # the same two as two-element columns
                     b"\x01\x01l\x0f\x01n\x0a\x02"
                     + bytes([10, 0, 0, 0, 8, 10, 0, 0, 0, 33]),
                     b"\x01\x01l\x0f\x01n\x0b\x02"
                     + bytes(16) + bytes([8]) + bytes(16) + bytes([129])):
            with pytest.raises(XrlError) as excinfo:
                make().decode_request(_request_frame(make, atom))
            assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    def test_nesting_past_the_recursion_limit_is_bad_args(self, make):
        opening = b"\x01" + b"\x01l" + b"\x0e"  # one atom: a list named l
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, opening * 5000))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    def test_huge_column_count_allocates_nothing(self, make):
        column = (b"\x01" + b"\x01l" + b"\x0f" + b"\x01n" + b"\x0a"
                  + _uvarint(1 << 62) + bytes(10))
        with pytest.raises(XrlError) as excinfo:
            make().decode_request(_request_frame(make, column))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS


# -- column form --------------------------------------------------------------

def _atoms(name, atom_type, values):
    return [XrlAtom(name, atom_type, value) for value in values]


_NETS4 = [IPNet(IPv4((20 << 24) | (i << 8)), 24) for i in range(256)]
_NETS6 = [IPNet(IPv6((0x2001 << 112) | (i << 64)), 64) for i in range(256)]

#: label -> (list payload, does any list in it travel as a column?)
COLUMN_CASES = {
    "ipv4net": (_atoms("net", XrlAtomType.IPV4NET, _NETS4[:5]), True),
    "ipv4": (_atoms("nexthop", XrlAtomType.IPV4,
                    [net.network for net in _NETS4[:5]]), True),
    "u32": (_atoms("metric", XrlAtomType.U32, [0, 1, 127, 128, 2**32 - 1]),
            True),
    "txt": (_atoms("ifname", XrlAtomType.TXT, ["eth0", "", "ütf", "eth0"]),
            True),
    "ipv6net": (_atoms("net", XrlAtomType.IPV6NET, _NETS6[:5]), True),
    "ipv6": (_atoms("nexthop", XrlAtomType.IPV6,
                    [net.network for net in _NETS6[:5]]), True),
    "256 prefixes": (_atoms("net", XrlAtomType.IPV4NET, _NETS4), True),
    "256 v6 prefixes": (_atoms("net", XrlAtomType.IPV6NET, _NETS6), True),
    "txt holding a NUL": (_atoms("s", XrlAtomType.TXT, ["a", "b\0c"]), False),
    "policytags tag0,tag1": ([XrlAtom("tag0", XrlAtomType.U32, 7),
                              XrlAtom("tag1", XrlAtomType.U32, 9)], False),
    "mixed names": (_atoms("a", XrlAtomType.U32, [1, 2])
                    + _atoms("b", XrlAtomType.U32, [3]), False),
    "mixed types": ([XrlAtom("v", XrlAtomType.U32, 1),
                     XrlAtom("v", XrlAtomType.I32, 1)], False),
    "no column form for the type": (_atoms("v", XrlAtomType.I64, [1, 2]),
                                    False),
    "lists of lists": ([XrlAtom("row", XrlAtomType.LIST,
                                _atoms("net", XrlAtomType.IPV4NET,
                                       _NETS4[:1])),
                        XrlAtom("row", XrlAtomType.LIST, [])], False),
    "columns inside a list": ([XrlAtom("row", XrlAtomType.LIST,
                                       _atoms("net", XrlAtomType.IPV4NET,
                                              _NETS4[:3])),
                               XrlAtom("row", XrlAtomType.LIST,
                                       _atoms("if", XrlAtomType.TXT,
                                              ["a", "b"]))], True),
    "empty": ([], False),
    "one element": (_atoms("net", XrlAtomType.IPV4NET, _NETS4[:1]), False),
}


@pytest.mark.parametrize("make", CODECS)
class TestColumnForm:
    @pytest.mark.parametrize("label", list(COLUMN_CASES))
    def test_column_and_general_forms_decode_to_equal_args(
            self, make, label, monkeypatch):
        payload, is_column = COLUMN_CASES[label]
        args = (XrlArgs().add_txt("protocol", "ebgp")
                .add_list("items", payload).add_u32("after", 5))
        chosen = make().encode_request(9, "m/1.0/x", args)
        monkeypatch.setattr(codec_module, "_encode_column",
                            lambda buf, atoms: False)
        general = make().encode_request(9, "m/1.0/x", args)
        assert (chosen != general) == is_column
        if is_column:
            assert len(chosen) < len(general)
        for frame in (chosen, general):
            seq, method, decoded = make().decode_request(frame)
            assert (seq, method) == (9, "m/1.0/x")
            _assert_args_equal(decoded, args)
            _assert_well_formed(decoded)

    def test_response_carries_columns_too(self, make):
        args = XrlArgs().add_list(
            "instances", _atoms("instance", XrlAtomType.TXT, ["bgp", "rib"]))
        __, error, decoded = make().decode_response(
            make().encode_response(3, XrlError.okay(), args))
        assert error.is_okay
        _assert_args_equal(decoded, args)

    @pytest.mark.parametrize("label", [label for label, (__, is_column)
                                       in COLUMN_CASES.items() if is_column
                                       and not label.startswith("256")])
    def test_every_truncation_of_a_column_is_bad_args(self, make, label):
        args = XrlArgs().add_list("items", COLUMN_CASES[label][0])
        frame = make().encode_request(1, "m", args)
        for cut in range(len(frame)):
            with pytest.raises(XrlError) as excinfo:
                make().decode_request(frame[:cut])
            assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @settings(max_examples=100)
    @given(values=st.lists(st.text(max_size=12), min_size=2, max_size=8))
    def test_any_txt_list_round_trips(self, make, values):
        args = XrlArgs().add_list("l", _atoms("s", XrlAtomType.TXT, values))
        decoded = make().decode_request(make().encode_request(1, "m", args))
        _assert_args_equal(decoded[2], args)


# -- method interning ---------------------------------------------------------

class TestMethodInterning:
    def test_repeat_method_shrinks_to_reference(self):
        encoder = BinaryCodec()
        method = "k" * 16 + "/bgp/1.0/add_peer"
        args = XrlArgs().add_u32("x", 1)
        first = encoder.encode_request(1, method, args)
        second = encoder.encode_request(2, method, args)
        assert len(second) < len(first)
        stateless = TEXTUAL.encode_request(2, method, args)
        args_bytes = len(stateless) - 6 - len(method)
        assert len(second) - args_bytes <= 6

    def test_interned_ten_u32_request_is_smaller_than_textual(self):
        """Fig 9's ten-``u32`` call, from the second call on a connection:
        interning is what the binary frames buy (46 B against 96)."""
        args = XrlArgs()
        for index in range(10):
            args.add_u32(f"a{index}", index)
        method = "0" * 32 + "/bench/1.0/noargs"
        binary = BinaryCodec()
        binary.encode_request(1, method, args)
        assert (len(binary.encode_request(2, method, args))
                < len(TEXTUAL.encode_request(2, method, args)))

    def test_paired_decoder_follows_the_table(self):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        for seq, method in enumerate(["a/1.0/x", "b/1.0/y", "a/1.0/x",
                                      "b/1.0/y", "a/1.0/x"]):
            frame = encoder.encode_request(seq, method, XrlArgs())
            seq2, method2, __ = decoder.decode_request(frame)
            assert (seq2, method2) == (seq, method)

    @given(st.lists(st.sampled_from(["m/1/a", "m/1/b", "m/1/c"]),
                    min_size=1, max_size=12))
    def test_interning_stream_round_trips(self, stream):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        for seq, method in enumerate(stream):
            decoded = decoder.decode_request(
                encoder.encode_request(seq, method, XrlArgs()))
            assert decoded[1] == method

    def test_dangling_reference_is_structured_error(self):
        encoder = BinaryCodec()
        encoder.encode_request(1, "m/1/a", XrlArgs())  # interned: id 1
        frame = encoder.encode_request(2, "m/1/a", XrlArgs())
        # A fresh decoder has an empty table: the reference must fail
        # as BAD_ARGS, not IndexError.
        with pytest.raises(XrlError) as excinfo:
            BinaryCodec().decode_request(frame)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS


# -- negotiation --------------------------------------------------------------

class TestNegotiation:
    @given(st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3))
    def test_hello_round_trip(self, codecs):
        assert decode_hello(encode_hello(codecs)) == codecs

    @given(st.binary(max_size=40))
    def test_garbage_hello_raises_or_decodes(self, junk):
        try:
            codecs = decode_hello(junk)
        except XrlError:
            return
        assert isinstance(codecs, list)

    @given(st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3),
           st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3))
    def test_choice_is_common_or_textual_floor(self, local, remote):
        chosen = choose_codec(local, remote)
        if chosen != "textual":
            assert chosen in local and chosen in remote
        assert chosen in CODEC_PREFERENCE

    def test_binary_preferred_when_shared(self):
        assert choose_codec(("binary", "textual"),
                            ["textual", "binary"]) == "binary"
        assert choose_codec(("textual",), ["binary", "textual"]) == "textual"

    def test_make_codec(self):
        assert isinstance(make_codec("binary"), BinaryCodec)
        assert make_codec("textual") is TEXTUAL
        fresh_a, fresh_b = make_codec("binary"), make_codec("binary")
        assert fresh_a is not fresh_b  # interning state is per-connection
