"""IP address types.

Addresses are immutable, hashable, and backed by plain integers so that the
hot paths (trie walks, decision comparisons, marshaling) stay cheap.  The
classes deliberately do not subclass anything from :mod:`ipaddress`; the
router code relies on a handful of operations (bit access, masking,
ordering) that are simpler to guarantee on a purpose-built type.
"""

from __future__ import annotations

import socket
import struct
from typing import Union


class AddressError(ValueError):
    """Raised when an address or prefix cannot be parsed or is malformed."""


#: ``MASKS4[n]`` keeps the top *n* of 32 bits
MASKS4 = tuple((0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF for n in range(33))


def _parse_ipv4(text: str) -> int:
    try:
        packed = socket.inet_aton(text)
    except (OSError, TypeError) as exc:
        raise AddressError(f"malformed IPv4 address {text!r}") from exc
    # inet_aton accepts shorthand like "10.1"; the router wants dotted quads.
    if text.count(".") != 3:
        raise AddressError(f"IPv4 address must be a dotted quad: {text!r}")
    return struct.unpack("!I", packed)[0]


def _parse_ipv6(text: str) -> int:
    try:
        packed = socket.inet_pton(socket.AF_INET6, text)
    except (OSError, TypeError) as exc:
        raise AddressError(f"malformed IPv6 address {text!r}") from exc
    hi, lo = struct.unpack("!QQ", packed)
    return (hi << 64) | lo


class IPv4:
    """An IPv4 address.

    Construct from a dotted-quad string, another :class:`IPv4`, an integer,
    or 4 packed bytes::

        >>> IPv4("128.16.0.1").to_int() == IPv4(0x80100001).to_int()
        True
    """

    __slots__ = ("_value",)

    BITS = 32
    AFI = 1  # address family identifier, as used in routing protocols
    MAX = (1 << 32) - 1

    def __init__(self, value: Union[str, int, bytes, "IPv4"] = 0):
        if isinstance(value, IPv4):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= self.MAX:
                raise AddressError(f"IPv4 value out of range: {value:#x}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_ipv4(value)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise AddressError(f"IPv4 needs 4 packed bytes, got {len(value)}")
            self._value = struct.unpack("!I", bytes(value))[0]
        else:
            raise AddressError(f"cannot build IPv4 from {type(value).__name__}")

    @classmethod
    def _of(cls, value: int) -> "IPv4":
        """Trusted constructor for decoders and prefix math: *value* is
        already an int in ``[0, MAX]`` (a masked word, an unpacked
        ``!I``), so the type ladder of ``__init__`` is skipped."""
        self = object.__new__(cls)
        self._value = value
        return self

    # -- conversions ----------------------------------------------------
    def to_int(self) -> int:
        """Return the address as a host-order integer."""
        return self._value

    def to_bytes(self) -> bytes:
        """Return the 4-byte network-order representation."""
        return struct.pack("!I", self._value)

    @classmethod
    def from_int(cls, value: int) -> "IPv4":
        return cls(value)

    @classmethod
    def zero(cls) -> "IPv4":
        return cls(0)

    @classmethod
    def all_ones(cls) -> "IPv4":
        return cls(cls.MAX)

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return self._value == 0

    def is_unicast(self) -> bool:
        """True for addresses usable as unicast destinations."""
        return not (self.is_multicast() or self._value == self.MAX)

    def is_multicast(self) -> bool:
        return 0xE0000000 <= self._value <= 0xEFFFFFFF

    def is_loopback(self) -> bool:
        return (self._value >> 24) == 127

    def is_link_local(self) -> bool:
        return (self._value >> 16) == 0xA9FE  # 169.254/16

    # -- arithmetic used by prefix math ----------------------------------
    def mask_by_prefix_len(self, prefix_len: int) -> "IPv4":
        """Return the address with all bits below *prefix_len* cleared."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad IPv4 prefix length {prefix_len}")
        return IPv4._of(self._value & MASKS4[prefix_len])

    def bit(self, index: int) -> int:
        """Return bit *index*, counting 0 as the most significant bit."""
        return (self._value >> (self.BITS - 1 - index)) & 1

    # -- dunder ----------------------------------------------------------
    def __str__(self) -> str:
        return socket.inet_ntoa(self.to_bytes())

    def __repr__(self) -> str:
        return f"IPv4({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4) and self._value == other._value

    def __lt__(self, other: "IPv4") -> bool:
        return self._value < other._value

    def __le__(self, other: "IPv4") -> bool:
        return self._value <= other._value

    def __gt__(self, other: "IPv4") -> bool:
        return self._value > other._value

    def __ge__(self, other: "IPv4") -> bool:
        return self._value >= other._value

    def __hash__(self) -> int:
        return hash((1, self._value))

    def __int__(self) -> int:
        return self._value


class IPv6:
    """An IPv6 address, same shape as :class:`IPv4` but 128 bits wide."""

    __slots__ = ("_value",)

    BITS = 128
    AFI = 2
    MAX = (1 << 128) - 1

    def __init__(self, value: Union[str, int, bytes, "IPv6"] = 0):
        if isinstance(value, IPv6):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= self.MAX:
                raise AddressError(f"IPv6 value out of range: {value:#x}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_ipv6(value)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 16:
                raise AddressError(f"IPv6 needs 16 packed bytes, got {len(value)}")
            hi, lo = struct.unpack("!QQ", bytes(value))
            self._value = (hi << 64) | lo
        else:
            raise AddressError(f"cannot build IPv6 from {type(value).__name__}")

    def to_int(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return struct.pack("!QQ", self._value >> 64, self._value & ((1 << 64) - 1))

    @classmethod
    def from_int(cls, value: int) -> "IPv6":
        return cls(value)

    @classmethod
    def zero(cls) -> "IPv6":
        return cls(0)

    @classmethod
    def all_ones(cls) -> "IPv6":
        return cls(cls.MAX)

    def is_zero(self) -> bool:
        return self._value == 0

    def is_unicast(self) -> bool:
        return not self.is_multicast()

    def is_multicast(self) -> bool:
        return (self._value >> 120) == 0xFF

    def is_loopback(self) -> bool:
        return self._value == 1

    def is_link_local(self) -> bool:
        return (self._value >> 118) == 0x3FA  # fe80::/10

    def mask_by_prefix_len(self, prefix_len: int) -> "IPv6":
        if not 0 <= prefix_len <= self.BITS:
            raise AddressError(f"bad IPv6 prefix length {prefix_len}")
        if prefix_len == 0:
            return IPv6(0)
        mask = (self.MAX << (self.BITS - prefix_len)) & self.MAX
        return IPv6(self._value & mask)

    def bit(self, index: int) -> int:
        return (self._value >> (self.BITS - 1 - index)) & 1

    def __str__(self) -> str:
        return socket.inet_ntop(socket.AF_INET6, self.to_bytes())

    def __repr__(self) -> str:
        return f"IPv6({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv6) and self._value == other._value

    def __lt__(self, other: "IPv6") -> bool:
        return self._value < other._value

    def __le__(self, other: "IPv6") -> bool:
        return self._value <= other._value

    def __gt__(self, other: "IPv6") -> bool:
        return self._value > other._value

    def __ge__(self, other: "IPv6") -> bool:
        return self._value >= other._value

    def __hash__(self) -> int:
        return hash((2, self._value))

    def __int__(self) -> int:
        return self._value


AnyAddr = Union[IPv4, IPv6]


class IPvX:
    """A family-agnostic address wrapper.

    XORP's ``IPvX`` lets family-independent code (the RIB, the FEA, XRL
    marshaling) carry either an IPv4 or an IPv6 address in one slot.
    """

    __slots__ = ("_addr",)

    def __init__(self, value: Union[str, AnyAddr, "IPvX"]):
        if isinstance(value, IPvX):
            self._addr: AnyAddr = value._addr
        elif isinstance(value, (IPv4, IPv6)):
            self._addr = value
        elif isinstance(value, str):
            if ":" in value:
                self._addr = IPv6(value)
            else:
                self._addr = IPv4(value)
        else:
            raise AddressError(f"cannot build IPvX from {type(value).__name__}")

    @property
    def family(self) -> int:
        return self._addr.AFI

    def is_ipv4(self) -> bool:
        return isinstance(self._addr, IPv4)

    def is_ipv6(self) -> bool:
        return isinstance(self._addr, IPv6)

    def get_ipv4(self) -> IPv4:
        if not isinstance(self._addr, IPv4):
            raise AddressError("IPvX does not hold an IPv4 address")
        return self._addr

    def get_ipv6(self) -> IPv6:
        if not isinstance(self._addr, IPv6):
            raise AddressError("IPvX does not hold an IPv6 address")
        return self._addr

    def unwrap(self) -> AnyAddr:
        """Return the concrete family-specific address."""
        return self._addr

    def __str__(self) -> str:
        return str(self._addr)

    def __repr__(self) -> str:
        return f"IPvX({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPvX):
            return self._addr == other._addr
        if isinstance(other, (IPv4, IPv6)):
            return self._addr == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._addr)
