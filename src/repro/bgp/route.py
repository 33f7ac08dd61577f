"""BGP route objects as they flow through the staged pipeline."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.bgp.attributes import PathAttributeList
from repro.net import IPNet


class BGPRoute:
    """One BGP route: a prefix plus its path attribute list.

    The original version is stored only in the PeerIn stage (paper §5.1);
    stages downstream annotate *copies* — the nexthop resolver attaches
    ``igp_metric`` / ``resolvable``, the filter banks rewrite attributes.
    """

    __slots__ = ("net", "attributes", "peer_id", "igp_metric", "resolvable",
                 "policytags")

    def __init__(self, net: IPNet, attributes: PathAttributeList, *,
                 peer_id: str = "",
                 igp_metric: Optional[int] = None,
                 resolvable: Optional[bool] = None,
                 policytags: Optional[Sequence[int]] = None):
        self.net = net
        self.attributes = attributes
        self.peer_id = peer_id
        self.igp_metric = igp_metric
        self.resolvable = resolvable
        #: a tuple, the shared ``()`` for the untagged common case: an
        #: empty list per route is one more object for the GC to track
        self.policytags: Tuple[int, ...] = (
            tuple(policytags) if policytags else ())

    @property
    def nexthop(self):
        return self.attributes.nexthop

    def with_attributes(self, attributes: PathAttributeList) -> "BGPRoute":
        """Copy with different attributes (same annotations)."""
        return BGPRoute(self.net, attributes, peer_id=self.peer_id,
                        igp_metric=self.igp_metric,
                        resolvable=self.resolvable,
                        policytags=self.policytags)

    def annotated(self, *, igp_metric: Optional[int],
                  resolvable: bool) -> "BGPRoute":
        """Copy with nexthop-resolver annotations attached."""
        return BGPRoute(self.net, self.attributes, peer_id=self.peer_id,
                        igp_metric=igp_metric, resolvable=resolvable,
                        policytags=self.policytags)

    def __repr__(self) -> str:
        flags = ""
        if self.resolvable is not None:
            flags = " resolvable" if self.resolvable else " unresolvable"
            if self.igp_metric is not None:
                flags += f" igp_metric={self.igp_metric}"
        return f"BGPRoute({self.net} via {self.nexthop} from {self.peer_id}{flags})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BGPRoute)
            and self.net == other.net
            and self.attributes == other.attributes
            and self.peer_id == other.peer_id
        )
