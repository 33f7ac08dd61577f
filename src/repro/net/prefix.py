"""IP prefixes (subnets).

:class:`IPNet` is the key type of the whole stack: routes are keyed by
prefix, the Patricia trie stores prefixes, and the RIB's interest
registration (paper §5.2.1) is pure prefix arithmetic.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Type, Union

from repro.net.addr import MASKS4, AddressError, IPv4, IPv6

#: set in every IPv6 prefix: above any v6 network shifted past its length
V6_TAG = 1 << 136
_MAX6 = (1 << 128) - 1
_new = int.__new__


class IPNet(int):
    """An address prefix: a masked network address plus a prefix length.

    A prefix is one int, ``network << 8 | prefix_len``, with
    :data:`V6_TAG` set for IPv6, so hashing, equality and order are
    ``int``'s, in C.  Order is by network, then length (shorter first);
    a v4 and a v6 prefix are never equal.  The network is stored masked,
    so two ``IPNet`` objects describing the same subnet are equal::

        >>> IPNet.parse("128.16.64.1/18") == IPNet.parse("128.16.64.0/18")
        True

    :attr:`network` builds the address object on demand.  Being an int
    is not being a number: a prefix is always true, formats as text,
    and an XRL integer atom refuses one (``repro.xrl.types``).
    """

    __slots__ = ()

    def __new__(cls, addr, prefix_len: int) -> "IPNet":
        bits = addr.BITS
        if not 0 <= prefix_len <= bits:
            raise AddressError(
                f"prefix length {prefix_len} out of range for {addr!r}")
        host_bits = bits - prefix_len
        word = addr.to_int() >> host_bits << host_bits << 8 | prefix_len
        return _new(cls, word | V6_TAG if bits == 128 else word)

    # -- construction -----------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "IPNet":
        """Parse ``"a.b.c.d/len"`` or ``"x::y/len"`` text."""
        addr_text, sep, len_text = text.partition("/")
        if not sep:
            raise AddressError(f"prefix needs a '/length': {text!r}")
        try:
            prefix_len = int(len_text)
        except ValueError as exc:
            raise AddressError(f"bad prefix length in {text!r}") from exc
        return cls(IPv6(addr_text) if ":" in addr_text else IPv4(addr_text),
                   prefix_len)

    @classmethod
    def from_packed4(cls, word: int, prefix_len: int) -> "IPNet":
        """An IPv4 prefix from its wire form: the network as a 32-bit
        word (host bits are masked off) and the length octet.  *word* is
        trusted to be an unpacked ``!I``; the length is checked here."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad IPv4 prefix length {prefix_len}")
        return _new(cls, (word & MASKS4[prefix_len]) << 8 | prefix_len)

    @classmethod
    def default_route(cls, addr_cls: Type) -> "IPNet":
        return cls(addr_cls.zero(), 0)

    def __reduce__(self):
        return _new, (IPNet, int(self))

    # -- accessors ---------------------------------------------------------
    @property
    def network(self):
        """The (masked) network address, built on each call."""
        if self >= V6_TAG:
            return IPv6(self >> 8 & _MAX6)
        return IPv4._of(self >> 8)

    @property
    def prefix_len(self) -> int:
        return self & 0xFF

    @property
    def bits(self) -> int:
        """Width of the address family in bits (32 or 128)."""
        return 128 if self >= V6_TAG else 32

    def key(self) -> Tuple[int, int]:
        """``(network-int, prefix-len)``: a key for code outside the
        router (the benchmark's oracle); the router keys by the prefix."""
        return (self >> 8 & _MAX6, self & 0xFF)

    def first_addr(self):
        return self.network

    def last_addr(self):
        network = self.network
        return type(network).from_int(
            network.to_int() | (1 << (network.BITS - (self & 0xFF))) - 1)

    def is_default(self) -> bool:
        return not self & 0xFF

    def is_ipv4(self) -> bool:
        return self < V6_TAG

    def is_ipv6(self) -> bool:
        return self >= V6_TAG

    # -- containment -------------------------------------------------------
    # A prefix contains another when the bits above its host part agree;
    # the v6 tag sits above every network bit, so families never agree.
    def contains_addr(self, addr) -> bool:
        """True if *addr* falls inside this prefix."""
        if addr.BITS != self.bits:
            return False
        word = addr.to_int() << 8 | self & V6_TAG
        return not (word ^ self) >> (addr.BITS + 8 - (self & 0xFF))

    def contains(self, other: "IPNet") -> bool:
        """True if *other* is equal to or more specific than this prefix."""
        plen = self & 0xFF
        return other & 0xFF >= plen and not (other ^ self) >> (
            (136 if self >= V6_TAG else 40) - plen)

    def overlaps(self, other: "IPNet") -> bool:
        return self.contains(other) or other.contains(self)

    # -- derivation ----------------------------------------------------------
    def supernet(self) -> "IPNet":
        """The prefix one bit shorter that contains this one."""
        plen = self & 0xFF
        if not plen:
            raise AddressError("default route has no supernet")
        shift = self.bits + 9 - plen
        return _new(IPNet, self >> shift << shift | plen - 1)

    def halves(self) -> Tuple["IPNet", "IPNet"]:
        """Split into the two one-bit-longer subnets (low, high)."""
        plen, bits = self & 0xFF, self.bits
        if plen >= bits:
            raise AddressError("host route cannot be split")
        return (_new(IPNet, self + 1),
                _new(IPNet, self + 1 | 1 << (bits + 7 - plen)))

    def half_containing(self, addr) -> "IPNet":
        """The one-bit-longer subnet of this prefix that contains *addr*."""
        low, high = self.halves()
        if low.contains_addr(addr):
            return low
        if high.contains_addr(addr):
            return high
        raise AddressError(f"{addr!r} is not inside {self!r}")

    def hosts(self) -> Iterator:
        """Iterate every address in the prefix (tests / small nets only)."""
        network = self.network
        for value in range(network.to_int(), self.last_addr().to_int() + 1):
            yield type(network).from_int(value)

    # -- dunder --------------------------------------------------------------
    def __str__(self) -> str:
        return f"{self.network}/{self & 0xFF}"

    def __repr__(self) -> str:
        return f"IPNet({str(self)!r})"

    def __format__(self, spec: str) -> str:
        # A width pads the text; an integer type (d, x, #_d) gets the int.
        if spec and spec[-1] in "bcdnoxX":
            return int.__format__(self, spec)
        return format(str(self), spec)

    def __bool__(self) -> bool:
        return True  # 0.0.0.0/0 is the int 0


def IPv4Net(text_or_addr: Union[str, IPv4], prefix_len: int = None) -> IPNet:
    """Convenience constructor for IPv4 prefixes."""
    if isinstance(text_or_addr, str) and prefix_len is None:
        net = IPNet.parse(text_or_addr)
        if not net.is_ipv4():
            raise AddressError(f"not an IPv4 prefix: {text_or_addr!r}")
        return net
    if isinstance(text_or_addr, str):
        return IPNet(IPv4(text_or_addr), prefix_len)
    return IPNet(text_or_addr, prefix_len if prefix_len is not None else 32)


def IPv6Net(text_or_addr: Union[str, IPv6], prefix_len: int = None) -> IPNet:
    """Convenience constructor for IPv6 prefixes."""
    if isinstance(text_or_addr, str) and prefix_len is None:
        net = IPNet.parse(text_or_addr)
        if not net.is_ipv6():
            raise AddressError(f"not an IPv6 prefix: {text_or_addr!r}")
        return net
    if isinstance(text_or_addr, str):
        return IPNet(IPv6(text_or_addr), prefix_len)
    return IPNet(text_or_addr, prefix_len if prefix_len is not None else 128)
