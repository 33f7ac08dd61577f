"""A dict-based reference router: what the FIB must hold after quiescence.

Live announcements -> best path by AS-path length -> ``{net: nexthop}``.
No stages, no XRLs, no tries: it consumes the same UPDATE bytes the router
does (decoded once more here) and answers exact and longest-prefix
questions by plain dictionary lookups, so a disagreement is the router's.
The workloads never create a tie in path length between peers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.messages import UpdateMessage, decode_message
from repro.net import IPNet, IPv4

_Key = Tuple[int, int]  # (network as int, prefix length)


class Oracle:
    def __init__(self, static: Iterable[Tuple[IPNet, IPv4]] = ()):
        #: net -> {peer: (as_path_length, nexthop)}
        self._paths: Dict[_Key, Dict[str, Tuple[int, IPv4]]] = {}
        self._nets: Dict[_Key, IPNet] = {}
        #: routes the benchmark provisioned outside BGP (the nexthop cover)
        self._static = {net.key(): (net, nexthop) for net, nexthop in static}

    def feed(self, peer: str, data: bytes) -> None:
        """Apply one encoded UPDATE received from *peer*."""
        update = decode_message(data)
        if not isinstance(update, UpdateMessage):
            raise ValueError(f"oracle fed a non-UPDATE: {update!r}")
        for net in update.withdrawn:
            paths = self._paths.get(net.key())
            if paths is not None:
                paths.pop(peer, None)
                if not paths:
                    del self._paths[net.key()]
        if update.nlri:
            length = update.attributes.as_path.path_length()
            nexthop = update.attributes.nexthop
            for net in update.nlri:
                self._nets[net.key()] = net
                self._paths.setdefault(net.key(), {})[peer] = (length, nexthop)

    def _best(self, key: _Key) -> Optional[IPv4]:
        paths = self._paths.get(key)
        if paths:
            return min(paths.values(), key=lambda path: path[0])[1]
        static = self._static.get(key)
        return static[1] if static is not None else None

    def __len__(self) -> int:
        """Expected FIB size."""
        return len(self._paths) + sum(
            1 for key in self._static if key not in self._paths)

    def nexthop(self, net: IPNet) -> Optional[IPv4]:
        """Expected nexthop of the exact entry for *net* (None = absent)."""
        return self._best(net.key())

    def lookup(self, addr: IPv4) -> Optional[Tuple[IPNet, IPv4]]:
        """Expected longest-prefix match for *addr*."""
        value = addr.to_int()
        for length in range(32, -1, -1):
            key = (value >> (32 - length) << (32 - length) if length else 0,
                   length)
            nexthop = self._best(key)
            if nexthop is not None:
                net = self._nets.get(key) or self._static[key][0]
                return net, nexthop
        return None

    def nets(self) -> List[IPNet]:
        return [self._nets[key] for key in self._paths]


def check_fib(router, oracle: Oracle, addrs: List[IPv4], result) -> None:
    """FIB size exactly, and seeded addresses by longest-prefix lookup."""
    result.attempt(len(addrs) + 1)
    count = router.fib_count()
    if count != len(oracle):
        result.fail(f"FIB holds {count}, oracle {len(oracle)}")
    for addr in addrs:
        found, expected = router.lookup(addr), oracle.lookup(addr)
        if found != expected:
            result.fail(f"lookup {addr}: FIB {found}, oracle {expected}")
