"""RIB route objects and the administrative-distance preference order."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.net import IPNet

#: Default administrative distances (XORP's defaults, matching common
#: router practice): the RIB "makes its decision purely on the basis of a
#: single administrative distance metric" (paper §5.2).
ADMIN_DISTANCES = {
    "connected": 0,
    "static": 1,
    "ebgp": 20,
    "ospf": 110,
    "is-is": 115,
    "rip": 120,
    "ibgp": 200,
    "fib2mrib": 254,
    "unknown": 255,
}

#: Protocols whose routes are *external* for ExtInt composition purposes.
EXTERNAL_PROTOCOLS = {"ebgp", "ibgp", "bgp"}


class RibRoute:
    """One route as the RIB sees it.

    Routes carry a *policy tag list* — the one change to pre-existing code
    the paper's policy framework needed ("The only change required to
    pre-existing code was the addition of a tag list to routes passed from
    BGP to the RIB and vice versa", §8.3).
    """

    __slots__ = ("net", "nexthop", "metric", "admin_distance", "protocol",
                 "is_external", "ifname", "policytags")

    def __init__(self, net: IPNet, nexthop, metric: int, protocol: str, *,
                 admin_distance: Optional[int] = None,
                 is_external: Optional[bool] = None,
                 ifname: str = "",
                 policytags: Optional[Sequence[int]] = None):
        self.net = net
        self.nexthop = nexthop
        self.metric = metric
        self.protocol = protocol
        self.admin_distance = (
            admin_distance if admin_distance is not None
            else ADMIN_DISTANCES.get(protocol, ADMIN_DISTANCES["unknown"])
        )
        self.is_external = (
            is_external if is_external is not None
            else protocol in EXTERNAL_PROTOCOLS
        )
        self.ifname = ifname
        #: a tuple, the shared ``()`` for the untagged common case: an
        #: empty list per route is one more object for the GC to track
        self.policytags: Tuple[int, ...] = (
            tuple(policytags) if policytags else ())

    def replaced(self, *, metric: Optional[int] = None,
                 policytags: Optional[Sequence[int]] = None) -> "RibRoute":
        """A copy with the policy-writable fields overridden.

        This is the hook the policy VM rewrites routes through
        (:mod:`repro.policy.varrw`), so policy code never needs to know
        the route class — the route rebuilds itself.
        """
        return RibRoute(
            self.net, self.nexthop,
            self.metric if metric is None else int(metric),
            self.protocol,
            admin_distance=self.admin_distance,
            is_external=self.is_external,
            ifname=self.ifname,
            policytags=self.policytags if policytags is None else policytags,
        )

    def sort_key(self) -> Tuple[int, int, str]:
        """Lower sorts first = preferred."""
        return (self.admin_distance, self.metric, self.protocol)

    def __repr__(self) -> str:
        return (
            f"RibRoute({self.net} via {self.nexthop} metric={self.metric} "
            f"{self.protocol}/{self.admin_distance})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RibRoute)
            and self.net == other.net
            and self.nexthop == other.nexthop
            and self.metric == other.metric
            and self.protocol == other.protocol
            and self.admin_distance == other.admin_distance
        )


def preferred(a: Optional[RibRoute], b: Optional[RibRoute]) -> Optional[RibRoute]:
    """The winner between two candidate routes for the same prefix.

    Lower administrative distance wins; metric then protocol name break
    ties deterministically.  Either argument may be None.
    """
    if a is None:
        return b
    if b is None:
        return a
    return a if a.sort_key() <= b.sort_key() else b
