"""The FEA's shadow forwarding table.

:class:`Fib` holds what the control plane has told the FEA to install,
one per address family.  The FEA answers every lookup from it — also
while its dataplane backend is down — and the
:class:`~repro.fea.driver.BackendDriver` converges the backend to it, so
it is the one longest-prefix-match structure on the FEA side; the
backends keep exact-prefix tables.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.net import IPNet
from repro.trie import RouteTrie


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
        self._trie = RouteTrie(bits)

    def __len__(self) -> int:
        return len(self._trie)

    def insert(self, entry: FibEntry) -> Optional[FibEntry]:
        """Install *entry*, overwriting any entry for the same prefix."""
        return self._trie.insert(entry.net, entry)

    def remove(self, net: IPNet) -> Optional[FibEntry]:
        """Remove the entry for *net*; returns it or None."""
        return self._trie.discard(net)

    def lookup(self, addr) -> Optional[FibEntry]:
        """Longest-prefix match for a destination address."""
        match = self._trie.best_match(addr)
        return match[1] if match is not None else None

    def exact(self, net: IPNet) -> Optional[FibEntry]:
        return self._trie.exact(net)

    def entries(self) -> Iterator[Tuple[IPNet, FibEntry]]:
        return self._trie.items()

    def clear(self) -> None:
        self._trie.clear()
