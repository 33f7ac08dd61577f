"""The FEA's shadow forwarding table.

:class:`Fib` holds what the control plane has told the FEA to install,
one per address family.  The FEA answers every lookup from it — also
while its dataplane backend is down — and the
:class:`~repro.fea.driver.BackendDriver` converges the backend to it, so
it is the one longest-prefix-match structure on the FEA side; the
backends keep exact-prefix tables.
Nothing walks it across event-loop turns, so it is a dict, not a trie:
a longest match probes it once per prefix length present, longest first.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, Optional, Tuple

from repro.net import V6_TAG, IPNet


class FibEntry:
    """One forwarding entry: destination prefix, gateway, output interface."""

    __slots__ = ("net", "nexthop", "ifname")

    def __init__(self, net: IPNet, nexthop, ifname: str = ""):
        self.net = net
        self.nexthop = nexthop
        self.ifname = ifname

    def __repr__(self) -> str:
        return f"FibEntry({self.net} via {self.nexthop} dev {self.ifname!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FibEntry)
            and self.net == other.net
            and self.nexthop == other.nexthop
            and self.ifname == other.ifname
        )

    def __hash__(self) -> int:
        # Hash exactly the fields __eq__ compares, so entries can key the
        # shadow-vs-dump diff sets reconciliation is built on.
        return hash((self.net, self.nexthop, self.ifname))


class Fib:
    """Longest-prefix-match forwarding table for one address family."""

    def __init__(self, bits: int = 32):
        if bits not in (32, 128):
            raise ValueError(f"FIB width must be 32 or 128 bits, got {bits}")
        self.bits = bits
        self._tag = V6_TAG if bits == 128 else 0
        self._entries: Dict[IPNet, FibEntry] = {}
        self._counts: Counter = Counter()       # prefix length -> entries
        #: the lengths present, longest first: what a lookup probes
        self._lengths: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, entry: FibEntry) -> Optional[FibEntry]:
        """Install *entry*, overwriting any entry for the same prefix."""
        net = entry.net
        if net & V6_TAG != self._tag:
            raise ValueError(f"prefix {net} does not fit a {self.bits}-bit FIB")
        previous = self._entries.get(net)
        self._entries[net] = entry
        if previous is None:
            counts = self._counts
            counts[net & 0xFF] += 1
            if counts[net & 0xFF] == 1:
                self._lengths = tuple(sorted(counts, reverse=True))
        return previous

    def remove(self, net: IPNet) -> Optional[FibEntry]:
        """Remove the entry for *net*; returns it or None."""
        entry = self._entries.pop(net, None)
        if entry is not None:
            counts = self._counts
            counts[net & 0xFF] -= 1
            if not counts[net & 0xFF]:
                del counts[net & 0xFF]
                self._lengths = tuple(sorted(counts, reverse=True))
        return entry

    def lookup(self, addr) -> Optional[FibEntry]:
        """Longest-prefix match for a destination address."""
        entries, bits, tag = self._entries, self.bits, self._tag
        word = addr.to_int()
        for plen in self._lengths:
            shift = bits - plen
            entry = entries.get((word >> shift << shift) << 8 | plen | tag)
            if entry is not None:
                return entry
        return None

    def exact(self, net: IPNet) -> Optional[FibEntry]:
        return self._entries.get(net)

    def entries(self) -> Iterator[Tuple[IPNet, FibEntry]]:
        """Every ``(net, entry)``, in prefix order."""
        return iter(sorted(self._entries.items()))

    def clear(self) -> None:
        self._entries.clear()
        self._counts.clear()
        self._lengths = ()
