"""IP prefixes (subnets).

:class:`IPNet` is the key type of the whole stack: routes are keyed by
prefix, the Patricia trie stores prefixes, and the RIB's interest
registration (paper §5.2.1) is pure prefix arithmetic.
"""

from __future__ import annotations

from typing import Generic, Iterator, Tuple, Type, TypeVar, Union

from repro.net.addr import MASKS4, AddressError, IPv4, IPv6

A = TypeVar("A", IPv4, IPv6)


class IPNet(Generic[A]):
    """An address prefix: a masked network address plus a prefix length.

    The network address is always stored masked, so two ``IPNet`` objects
    describing the same subnet always compare equal::

        >>> IPNet.parse("128.16.64.1/18") == IPNet.parse("128.16.64.0/18")
        True
    """

    __slots__ = ("_masked", "_prefix_len", "_hash")

    def __init__(self, addr: A, prefix_len: int):
        if not 0 <= prefix_len <= addr.BITS:
            raise AddressError(
                f"prefix length {prefix_len} out of range for {addr!r}"
            )
        self._masked: A = addr.mask_by_prefix_len(prefix_len)
        self._prefix_len = prefix_len
        self._hash = hash((self._masked, prefix_len))

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
        addr: Union[IPv4, IPv6]
        if ":" in addr_text:
            addr = IPv6(addr_text)
        else:
            addr = IPv4(addr_text)
        return cls(addr, prefix_len)

    @classmethod
    def from_packed4(cls, word: int, prefix_len: int) -> "IPNet[IPv4]":
        """An IPv4 prefix from its wire form: the network as a 32-bit
        word (host bits are masked off) and the length octet.  *word* is
        trusted to be an unpacked ``!I``; the length is checked here."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad IPv4 prefix length {prefix_len}")
        net = object.__new__(cls)
        net._masked = masked = IPv4._of(word & MASKS4[prefix_len])
        net._prefix_len = prefix_len
        net._hash = hash((masked, prefix_len))
        return net

    @classmethod
    def default_route(cls, addr_cls: Type[A]) -> "IPNet[A]":
        return cls(addr_cls.zero(), 0)

    # -- accessors ---------------------------------------------------------
    @property
    def network(self) -> A:
        """The (masked) network address."""
        return self._masked

    @property
    def prefix_len(self) -> int:
        return self._prefix_len

    @property
    def bits(self) -> int:
        """Width of the address family in bits (32 or 128)."""
        return self._masked.BITS

    def key(self) -> Tuple[int, int]:
        """A cheap canonical key ``(network-int, prefix-len)``."""
        return (self._masked.to_int(), self._prefix_len)

    def first_addr(self) -> A:
        return self._masked

    def last_addr(self) -> A:
        host_bits = self.bits - self._prefix_len
        value = self._masked.to_int() | ((1 << host_bits) - 1)
        return type(self._masked).from_int(value)

    def is_default(self) -> bool:
        return self._prefix_len == 0

    def is_ipv4(self) -> bool:
        return isinstance(self._masked, IPv4)

    def is_ipv6(self) -> bool:
        return isinstance(self._masked, IPv6)

    # -- containment -------------------------------------------------------
    def contains_addr(self, addr: A) -> bool:
        """True if *addr* falls inside this prefix."""
        if addr.BITS != self.bits:
            return False
        return addr.mask_by_prefix_len(self._prefix_len) == self._masked

    def contains(self, other: "IPNet[A]") -> bool:
        """True if *other* is equal to or more specific than this prefix."""
        if other.bits != self.bits:
            return False
        if other._prefix_len < self._prefix_len:
            return False
        return other._masked.mask_by_prefix_len(self._prefix_len) == self._masked

    def overlaps(self, other: "IPNet[A]") -> bool:
        return self.contains(other) or other.contains(self)

    # -- derivation ----------------------------------------------------------
    def supernet(self) -> "IPNet[A]":
        """The prefix one bit shorter that contains this one."""
        if self._prefix_len == 0:
            raise AddressError("default route has no supernet")
        return IPNet(self._masked, self._prefix_len - 1)

    def halves(self) -> Tuple["IPNet[A]", "IPNet[A]"]:
        """Split into the two one-bit-longer subnets (low, high)."""
        if self._prefix_len >= self.bits:
            raise AddressError("host route cannot be split")
        new_len = self._prefix_len + 1
        low = IPNet(self._masked, new_len)
        hi_value = self._masked.to_int() | (1 << (self.bits - new_len))
        high = IPNet(type(self._masked).from_int(hi_value), new_len)
        return low, high

    def half_containing(self, addr: A) -> "IPNet[A]":
        """The one-bit-longer subnet of this prefix that contains *addr*."""
        low, high = self.halves()
        if low.contains_addr(addr):
            return low
        if high.contains_addr(addr):
            return high
        raise AddressError(f"{addr!r} is not inside {self!r}")

    def hosts(self) -> Iterator[A]:
        """Iterate every address in the prefix (tests / small nets only)."""
        start = self._masked.to_int()
        end = self.last_addr().to_int()
        addr_cls = type(self._masked)
        for value in range(start, end + 1):
            yield addr_cls.from_int(value)

    # -- dunder --------------------------------------------------------------
    def __str__(self) -> str:
        return f"{self._masked}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"IPNet({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPNet)
            and self._prefix_len == other._prefix_len
            and self._masked == other._masked
        )

    def __lt__(self, other: "IPNet[A]") -> bool:
        """Order by network address then by prefix length (shorter first)."""
        if self._masked != other._masked:
            return self._masked < other._masked
        return self._prefix_len < other._prefix_len

    def __le__(self, other: "IPNet[A]") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return self._hash


def IPv4Net(text_or_addr: Union[str, IPv4], prefix_len: int = None) -> IPNet[IPv4]:
    """Convenience constructor for IPv4 prefixes."""
    if isinstance(text_or_addr, str) and prefix_len is None:
        net = IPNet.parse(text_or_addr)
        if not net.is_ipv4():
            raise AddressError(f"not an IPv4 prefix: {text_or_addr!r}")
        return net
    if isinstance(text_or_addr, str):
        return IPNet(IPv4(text_or_addr), prefix_len)
    return IPNet(text_or_addr, prefix_len if prefix_len is not None else 32)


def IPv6Net(text_or_addr: Union[str, IPv6], prefix_len: int = None) -> IPNet[IPv6]:
    """Convenience constructor for IPv6 prefixes."""
    if isinstance(text_or_addr, str) and prefix_len is None:
        net = IPNet.parse(text_or_addr)
        if not net.is_ipv6():
            raise AddressError(f"not an IPv6 prefix: {text_or_addr!r}")
        return net
    if isinstance(text_or_addr, str):
        return IPNet(IPv6(text_or_addr), prefix_len)
    return IPNet(text_or_addr, prefix_len if prefix_len is not None else 128)
