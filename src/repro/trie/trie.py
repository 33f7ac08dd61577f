"""Path-compressed binary trie keyed by IP prefix, plus safe iterators.

The trie backs the tables that hand out iterators a background task
parks on (BGP PeerIn, the decision's winners, the RIB's dumps) or answer
the RIB's longest-match and covering questions (its internal side,
interest registration).  A table asked only for the route at exactly one
prefix is a ``dict``, and so is the FEA's FIB, asked only for longest
match — DESIGN.md, "Which table is which structure", lists every table.
Nodes are ordered so that a preorder walk yields prefixes in ``(network,
prefix-len)`` order — the order :class:`repro.net.IPNet` sorts in —
which the fanout dump logic relies on.

Lookups descend Patricia-style: a walk follows the key's bits from node
to node without looking at the prefixes on the way, and compares the key
once, against the node it arrives at.  That is sound because every node
contains all of its descendants: a node off the key's true path can only
lead to an arrival that fails the comparison.  An insert that misses
walks once more, to the length the new prefix shares with that arrival.

Iterator safety follows the paper exactly: each trie counts the iterators
pointing at each node (one ``{node: refs}`` table, not a slot in millions
of nodes); deleting a route whose node is referenced only *invalidates*
the payload, and the last iterator to leave the node performs the
structural removal.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, List, Optional, Tuple

from repro.net import V6_TAG, IPNet


#: the payload of a node with no route: a join, or a route an iterator outlived
_EMPTY = object()


class TrieNode:
    """One trie node: a prefix length, a prefix, a payload (or
    ``_EMPTY``), two children.

    A route node's ``net`` is the route's :class:`IPNet`.  A join node
    borrows the ``net`` of the route whose insert made it: only its first
    ``plen`` bits are the join's, and every walk reads no more of it."""

    __slots__ = ("plen", "net", "payload", "parent", "left", "right")

    def __init__(self, net: int, plen: int, payload: Any = _EMPTY):
        self.plen = plen
        self.net = net
        self.payload = payload
        self.parent: Optional["TrieNode"] = None
        self.left: Optional["TrieNode"] = None
        self.right: Optional["TrieNode"] = None

    def __repr__(self) -> str:
        tag = "join" if self.payload is _EMPTY else "route"
        shift = (136 if self.net >= V6_TAG else 40) - self.plen
        prefix = self.net >> shift << shift | self.plen
        return f"<TrieNode {int.__new__(IPNet, prefix)} {tag}>"


class RouteTrie:
    """A Patricia trie mapping :class:`IPNet` prefixes to payloads.

    A prefix is the int ``network << 8 | length`` (:class:`IPNet`), so a
    walk reads the key's bit at depth *d* as ``net >> (top - d) & 1``
    and two prefixes agree down to length *n* when ``(a ^ b) >> (bits +
    8 - n)`` is zero.
    """

    def __init__(self, bits: int = 32):
        if bits not in (32, 128):
            raise ValueError(f"trie width must be 32 or 128 bits, got {bits}")
        self.bits = bits
        #: the shift that brings a key's first network bit down to bit 0
        self._top = bits + 7
        self._root = TrieNode(V6_TAG if bits == 128 else 0, 0)
        self._count = 0
        #: node -> iterators pointing at it (paper §5.3)
        self._pins: Counter = Counter()

    def __len__(self) -> int:
        return self._count

    # -- insertion --------------------------------------------------------
    def insert(self, net: IPNet, payload: Any) -> Any:
        """Insert or replace the payload at *net*.

        Returns the previous payload, or None if the prefix was new.
        """
        node = self._node(net)
        previous = node.payload
        node.payload = payload
        if previous is _EMPTY:
            self._count += 1
            return None
        return previous

    def setdefault(self, net: IPNet, payload: Any) -> Any:
        """The payload at *net*, after inserting *payload* if there was
        none — one walk, for a caller that keeps an incumbent."""
        node = self._node(net)
        if node.payload is _EMPTY:
            node.payload = payload
            self._count += 1
        return node.payload

    def _node(self, net: IPNet) -> TrieNode:
        """The node at exactly *net*, attached without a payload if the
        trie had none there.

        The walk is a lookup's.  On a miss, the bits the target shares
        with the node it arrived at say where it belongs: every node on
        its path that is no longer contains it, and none below does, so
        it climbs back to that length.
        """
        if (net >= V6_TAG) != (self.bits == 128):
            raise ValueError(
                f"prefix {net} does not fit a {self.bits}-bit trie")
        plen = net & 0xFF
        top = self._top
        node, node_plen = self._root, 0
        while node_plen < plen:
            child = node.right if (net >> (top - node_plen)) & 1 \
                else node.left
            if child is None:
                break
            node, node_plen = child, child.plen
        if node_plen == plen and not (node.net ^ net) >> (top + 1 - plen):
            if node.payload is _EMPTY:
                node.net = net  # a join node taking a route takes its prefix
            return node
        shared = min(plen, node_plen,
                     self.bits - ((node.net ^ net) >> 8).bit_length())
        child = None
        while node_plen > shared:
            child, node = node, node.parent
            node_plen = node.plen
        new = below = TrieNode(net, plen)
        if child is not None and shared < plen:
            # Diverging prefixes: a join node holds the bits they share
            # (of net's own int), with net on one side and child on the other.
            below = TrieNode(net, shared)
            new.parent = below
            if (net >> (top - shared)) & 1:
                below.right = new
            else:
                below.left = new
        # *below* (the new node or its join) takes child's place ...
        below.parent = node
        if (net >> (top - node_plen)) & 1:
            node.right = below
        else:
            node.left = below
        if child is not None:
            # ... and child hangs from it by the bit after its length.
            child.parent = below
            if (child.net >> (top - below.plen)) & 1:
                below.right = child
            else:
                below.left = child
        return new

    # -- lookup -------------------------------------------------------------
    def _find_node(self, net: IPNet) -> Optional[TrieNode]:
        """The node at exactly *net*: follow the key's bits down and
        compare once, on arrival."""
        plen = net & 0xFF
        top = self._top
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen >= plen:
                return node if node.net == net else None
            node = node.right if (net >> (top - node_plen)) & 1 \
                else node.left
        return None

    def exact(self, net: IPNet) -> Any:
        """Payload stored exactly at *net*, or None."""
        node = self._find_node(net)
        if node is None or node.payload is _EMPTY:
            return None
        return node.payload

    def __contains__(self, net: IPNet) -> bool:
        return self.exact(net) is not None

    # The three covering walks below follow the key's bits the same way.
    # Containment only matters at a node that holds a route, and the nodes
    # on a path that contain the key are a prefix of that path — so the
    # walk tests route nodes alone and stops at the first that fails.
    def best_match(self, addr) -> Optional[Tuple[IPNet, Any]]:
        """Longest-prefix match for address *addr*: ``(net, payload)``."""
        key = addr.to_int() << 8 | self._root.net
        bits = self.bits
        top = self._top
        node = self._root
        best: Optional[TrieNode] = None
        while node is not None:
            node_plen = node.plen
            if node.payload is not _EMPTY:
                if (node.net ^ key) >> (top + 1 - node_plen):
                    break
                best = node
            if node_plen == bits:
                break
            node = node.right if (key >> (top - node_plen)) & 1 \
                else node.left
        if best is None:
            return None
        return best.net, best.payload

    def covering(self, net: IPNet) -> Iterator[Tuple[IPNet, Any]]:
        """All routes containing *net*, shortest prefix first (incl. equal)."""
        plen = net & 0xFF
        top = self._top
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen > plen:
                break
            if node.payload is not _EMPTY:
                if (node.net ^ net) >> (top + 1 - node_plen):
                    break
                yield node.net, node.payload
            if node_plen == plen:
                break
            node = node.right if (net >> (top - node_plen)) & 1 \
                else node.left

    def _covered_root(self, net: IPNet) -> Optional[TrieNode]:
        """The topmost node inside *net*: the first node the key's bits
        lead to that is at least as long as the key."""
        plen = net & 0xFF
        top = self._top
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen >= plen:
                if (node.net ^ net) >> (top + 1 - plen):
                    return None
                return node
            node = node.right if (net >> (top - node_plen)) & 1 \
                else node.left
        return None

    def covered(self, net: IPNet) -> Iterator[Tuple[IPNet, Any]]:
        """All routes equal to or more specific than *net*, in prefix order."""
        top = self._covered_root(net)
        if top is None:
            return
        stack: List[TrieNode] = [top]
        while stack:
            node = stack.pop()
            if node.payload is not _EMPTY:
                yield node.net, node.payload
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    # -- deletion --------------------------------------------------------
    def remove(self, net: IPNet) -> Any:
        """Remove the route at *net*, returning its payload.

        Raises KeyError if absent.  If iterators reference the node, only
        the payload is invalidated now; the node is reclaimed when the last
        iterator leaves (paper §5.3).
        """
        node = self._find_node(net)
        if node is None or node.payload is _EMPTY:
            raise KeyError(str(net))
        payload = node.payload
        node.payload = _EMPTY
        self._count -= 1
        self._reclaim(node)
        return payload

    def discard(self, net: IPNet, default: Any = None) -> Any:
        """Like :meth:`remove`, but *default* when the route is absent
        (*default* only matches ``dict.pop``, which OriginStage calls)."""
        try:
            return self.remove(net)
        except KeyError:
            return default

    # dict's spellings, so an OriginStage reads a trie and a dict alike
    get, pop = exact, discard

    def clear(self) -> None:
        """Drop every route.  Iterators become exhausted, not invalid."""
        for net, __ in list(self.items()):
            self.discard(net)

    def _reclaim(self, node: TrieNode) -> None:
        """Splice out *node* and prunable ancestors where safe."""
        while (
            node.parent is not None
            and node.payload is _EMPTY
            and node not in self._pins
        ):
            if node.left is not None and node.right is not None:
                return  # structurally necessary join node
            child = node.left if node.left is not None else node.right
            parent = node.parent
            if parent.left is node:
                parent.left = child
            else:
                parent.right = child
            if child is not None:
                child.parent = parent
            node.parent = None
            node = parent

    # -- iteration -------------------------------------------------------
    def iterator(self, start: Optional[IPNet] = None) -> "TrieIterator":
        """A safe iterator over routes in prefix order.

        With *start*, iteration covers only routes inside that prefix.
        """
        return TrieIterator(self, start)

    def items(self) -> Iterator[Tuple[IPNet, Any]]:
        """Iterate ``(net, payload)`` safely (mutation during iteration ok)."""
        it = self.iterator()
        while it.valid:
            yield it.net, it.payload
            it.advance()

    def __iter__(self) -> Iterator[Tuple[IPNet, Any]]:
        return self.items()

    # Internal helpers used by TrieIterator ------------------------------
    def _first_node(self, scope: Optional[TrieNode]) -> Optional[TrieNode]:
        node = scope if scope is not None else self._root
        if node.payload is not _EMPTY:
            return node
        return self._next_payload_node(node, scope)

    def _next_payload_node(self, node: TrieNode,
                           scope: Optional[TrieNode]) -> Optional[TrieNode]:
        """Successor of *node* in preorder, restricted to *scope*'s subtree."""
        current = node
        while True:
            current = self._preorder_successor(current, scope)
            if current is None:
                return None
            if current.payload is not _EMPTY:
                return current

    def _preorder_successor(self, node: TrieNode,
                            scope: Optional[TrieNode]) -> Optional[TrieNode]:
        if node.left is not None:
            return node.left
        if node.right is not None:
            return node.right
        limit = scope if scope is not None else self._root
        current = node
        while current is not limit and current.parent is not None:
            parent = current.parent
            if parent.left is current and parent.right is not None:
                return parent.right
            current = parent
        return None


class TrieIterator:
    """Safe iterator: survives arbitrary route churn while parked.

    Typical background-task usage::

        it = table.iterator()
        def slice():
            for payload in it.take(64):
                process(payload)
            return not it.exhausted    # more work?
    """

    __slots__ = ("_trie", "_node", "_scope")

    def __init__(self, trie: RouteTrie, start: Optional[IPNet] = None):
        self._trie = trie
        self._scope: Optional[TrieNode] = None
        if start is not None:
            self._scope = trie._covered_root(start)
            if self._scope is not None:
                trie._pins[self._scope] += 1
        node = trie._first_node(self._scope) if (
            start is None or self._scope is not None
        ) else None
        self._node = node
        if node is not None:
            trie._pins[node] += 1

    @property
    def valid(self) -> bool:
        """True while the iterator points at a live route.

        False either because iteration finished (see :attr:`exhausted`) or
        because the route under the iterator was deleted while a background
        task was parked here — in which case :meth:`advance` resumes at the
        next live route.
        """
        return self._node is not None and self._node.payload is not _EMPTY

    @property
    def exhausted(self) -> bool:
        """True once iteration has run off the end of the table."""
        return self._node is None

    @property
    def net(self) -> IPNet:
        if self._node is None:
            raise StopIteration("iterator exhausted")
        return self._node.net

    @property
    def payload(self) -> Any:
        if self._node is None:
            raise StopIteration("iterator exhausted")
        return self._node.payload

    def advance(self) -> bool:
        """Move to the next live route; return False when exhausted.

        If the current route was deleted while we were parked on it, we
        simply move on — and, as the last iterator leaving the node, we
        perform the deferred structural deletion.
        """
        old = self._node
        if old is None:
            return False
        nxt = self._trie._next_payload_node(old, self._scope)
        self._node = nxt
        if nxt is not None:
            self._trie._pins[nxt] += 1
        self._release(old)
        return nxt is not None

    def take(self, n: int) -> List[Any]:
        """Up to *n* live payloads from here on, moving past each of them
        and past any route deleted while the iterator was parked.

        Returns ``[]`` only at the end of the table.
        """
        taken: List[Any] = []
        while len(taken) < n and self._node is not None:
            if self._node.payload is not _EMPTY:
                taken.append(self._node.payload)
            self.advance()
        return taken

    def close(self) -> None:
        """Release references early (also safe to call repeatedly)."""
        if self._node is not None:
            self._release(self._node)
            self._node = None
        if self._scope is not None:
            scope = self._scope
            self._scope = None
            self._release(scope)

    def _release(self, node: TrieNode) -> None:
        pins = self._trie._pins
        pins[node] -= 1
        if not pins[node]:
            del pins[node]
            if node.payload is _EMPTY:
                self._trie._reclaim(node)

    def __enter__(self) -> "TrieIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
