"""A background walk over a route table that survives churn while parked.

A task that walks a whole table in slices (a fanout dump, a deletion
stage, a policy re-filter, the RIB's route-stream dumps) needs a fixed
order and a position, not a trie.  :class:`SnapshotWalk` sorts the
table's keys when the walk begins and keeps an index into that list.
Each slice reads the live route at each key it passes, so a route
changed while the walk was parked is emitted as it is now, and a route
removed meanwhile is skipped.

A key is *pending* while it is in the snapshot and the walk has not
reached it: the walk will still emit that prefix's route, whatever
happens to it first.  Every other key is behind the walk — one it has
passed, and one added after it began — and a change to it must travel
some other way (the fanout queue, a re-filter's new function).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional

from repro.net import IPNet
from repro.trie.trie import RouteTrie


class SnapshotWalk:
    """The keys *table* (a dict or a :class:`RouteTrie`) held when the
    walk began, in prefix order, and the position of the next one."""

    __slots__ = ("_keys", "_get", "_pos")

    def __init__(self, table: Any):
        self._get = table.exact if isinstance(table, RouteTrie) else table.get
        self._keys: List[IPNet] = sorted(table)
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        """True once the walk has passed every key of its snapshot."""
        return self._pos >= len(self._keys)

    @property
    def front(self) -> Optional[IPNet]:
        """The next key the walk reads (pending or gone), or None."""
        return None if self.exhausted else self._keys[self._pos]

    def pending(self, net: IPNet) -> bool:
        """Whether the walk will still reach *net*."""
        keys = self._keys
        index = bisect_left(keys, net, self._pos)
        return index < len(keys) and keys[index] == net

    def take(self, n: int) -> List[Any]:
        """Up to *n* live routes from here on, moving past each of them
        and past any key whose route has gone.

        Returns ``[]`` only at the end of the walk.
        """
        keys, get, pos = self._keys, self._get, self._pos
        end = len(keys)
        taken: List[Any] = []
        while len(taken) < n and pos < end:
            route = get(keys[pos])
            pos += 1
            if route is not None:
                taken.append(route)
        self._pos = pos
        return taken

    def close(self) -> None:
        """End the walk here and drop its snapshot."""
        self._keys, self._pos = [], 0
