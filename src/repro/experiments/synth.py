"""Synthetic BGP backbone feed.

The paper preloads "a full Internet backbone routing feed consisting of
146,515 routes".  We cannot ship a 2004 RouteViews dump, so this generates
a feed with the properties that matter to the experiments: unique
prefixes across the unicast space with a realistic prefix-length mix
(dominated by /24s, per RouteViews statistics of the era), plausible AS
paths, and a shared-attribute grouping similar to real tables.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.bgp.attributes import ASPath, Origin, PathAttributeList
from repro.net import IPNet, IPv4

#: fraction of the table per prefix length (approximate 2004 DFZ mix)
PREFIX_LENGTH_MIX = [
    (8, 0.001), (12, 0.004), (14, 0.01), (16, 0.06), (17, 0.025),
    (18, 0.04), (19, 0.07), (20, 0.07), (21, 0.06), (22, 0.10),
    (23, 0.10), (24, 0.46),
]

PAPER_FEED_SIZE = 146515


def synthetic_prefixes(count: int, seed: int = 2004) -> List[IPNet]:
    """*count* unique prefixes with a realistic length distribution."""
    rng = random.Random(seed)
    lengths: List[int] = []
    for length, fraction in PREFIX_LENGTH_MIX:
        lengths.extend([length] * max(1, int(round(fraction * count))))
    while len(lengths) < count:
        lengths.append(24)
    rng.shuffle(lengths)
    lengths = lengths[:count]
    seen = set()
    prefixes: List[IPNet] = []
    for length in lengths:
        while True:
            # Unicast space, avoiding 10/8 (experiment peering/nexthops)
            # and 192/2 upper ranges (test prefixes live in 198.18/15).
            value = rng.randrange(0x0B000000, 0xC0000000)
            net = IPNet(IPv4(value), length)
            if net not in seen:
                seen.add(net)
                prefixes.append(net)
                break
    return prefixes


def synthetic_feed(count: int = PAPER_FEED_SIZE, *, seed: int = 2004,
                   nexthop: str = "10.0.0.2",
                   neighbor_as: int = 65002,
                   group_size: int = 200,
                   ) -> Iterator[Tuple[PathAttributeList, List[IPNet]]]:
    """Yield ``(attributes, [prefixes])`` groups forming the feed.

    Groups share an attribute list, as routes from one origin AS do in a
    real table; *group_size* bounds prefixes per UPDATE message.
    """
    rng = random.Random(seed + 1)
    prefixes = synthetic_prefixes(count, seed)
    nexthop_addr = IPv4(nexthop)
    index = 0
    while index < len(prefixes):
        path_len = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 5, 6))
        as_numbers = [neighbor_as]
        for __ in range(path_len - 1):
            as_numbers.append(rng.randrange(1, 64000))
        attributes = PathAttributeList(
            origin=rng.choice((Origin.IGP, Origin.IGP, Origin.INCOMPLETE)),
            as_path=ASPath.from_sequence(*as_numbers),
            nexthop=nexthop_addr,
            med=rng.choice((None, None, 0, 10, 100)),
        )
        take = min(rng.randrange(1, group_size + 1), len(prefixes) - index)
        yield attributes, prefixes[index : index + take]
        index += take
