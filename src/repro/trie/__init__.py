"""Route tables and the walks a background task parks (paper §5.3).

    "The XORP library includes route table iterator data structures ...
    (as well as a Patricia Tree implementation for the routing tables
    themselves)."

The paper's iterators pin a trie node so that a deletion while a task
is parked cannot invalidate them.  Here a parked walk holds the sorted
keys the table had when it began and a position among them
(:class:`SnapshotWalk`), which works over a ``dict`` and a
:class:`RouteTrie` alike: route churn while the task is paused never
invalidates it, and no table keeps iterator state.
"""

from repro.trie.trie import RouteTrie, TrieNode
from repro.trie.walk import SnapshotWalk

__all__ = ["RouteTrie", "SnapshotWalk", "TrieNode"]
