"""Path-compressed binary trie keyed by IP prefix.

The trie backs the tables that answer longest-match and covering
questions: the RIB's winners (which also feed its whole-table dumps),
its internal side and its interest registrations (§5.2.1).  A table
asked only for the route at exactly one prefix is a ``dict`` — BGP's
PeerIn and the decision's winners — and so is the FEA's FIB, asked only
for longest match; DESIGN.md, "Which table is which structure", lists
every table.  Nodes are ordered so that a preorder walk yields prefixes
in ``(network, prefix-len)`` order, the order :class:`repro.net.IPNet`
sorts in.

Lookups descend Patricia-style: a walk follows the key's bits from node
to node without looking at the prefixes on the way, and compares the key
once, against the node it arrives at.  That is sound because every node
contains all of its descendants: a node off the key's true path can only
lead to an arrival that fails the comparison.  An insert that misses
walks once more, to the length the new prefix shares with that arrival.

A background task that walks a table across event-loop turns holds a
:class:`~repro.trie.walk.SnapshotWalk`, not a position in the trie, so
a removal splices its node out at once.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.net import V6_TAG, IPNet


#: the payload of a node with no route: a join, or the root
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
        return iter(()) if top is None else self._preorder(top)

    # -- deletion --------------------------------------------------------
    def remove(self, net: IPNet) -> Any:
        """Remove the route at *net*, returning its payload.

        Raises KeyError if absent.
        """
        node = self._find_node(net)
        if node is None or node.payload is _EMPTY:
            raise KeyError(str(net))
        payload = node.payload
        node.payload = _EMPTY
        self._count -= 1
        self._reclaim(node)
        return payload

    def discard(self, net: IPNet) -> Any:
        """Like :meth:`remove`, but None when the route is absent."""
        try:
            return self.remove(net)
        except KeyError:
            return None

    def _reclaim(self, node: TrieNode) -> None:
        """Splice out *node* and the ancestors it leaves with no route
        and at most one child."""
        while node.parent is not None and node.payload is _EMPTY:
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
    def items(self) -> Iterator[Tuple[IPNet, Any]]:
        """Every ``(net, payload)``, in prefix order.  A walk that must
        survive churn between slices is a :class:`SnapshotWalk`."""
        return self._preorder(self._root)

    def __iter__(self) -> Iterator[IPNet]:
        """Every prefix, in order: a trie iterates like a dict."""
        return (net for net, __ in self._preorder(self._root))

    @staticmethod
    def _preorder(top: TrieNode) -> Iterator[Tuple[IPNet, Any]]:
        stack: List[TrieNode] = [top]
        while stack:
            node = stack.pop()
            if node.payload is not _EMPTY:
                yield node.net, node.payload
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
