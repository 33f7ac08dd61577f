"""Path-compressed binary trie keyed by IP prefix, plus safe iterators.

The trie backs the tables that are asked longest-match questions (the
RIB's internal side and interest-registration arithmetic, the FIB) or that
hand out iterators a background task parks on (BGP PeerIn and the RIB's
origin tables, the fanout's winners).  A table that is only ever asked
for the route at exactly one prefix is a ``dict`` instead — DESIGN.md,
"Which table is which structure", lists every table.  Nodes are ordered
so that a preorder walk yields prefixes in ``(network, prefix-len)`` order
— the order :class:`repro.net.IPNet` sorts in — which the fanout dump
logic relies on.

Lookups descend Patricia-style: a walk follows the key's bits from node
to node without looking at the prefixes on the way, and compares the key
once, against the node it arrives at.  That is sound because every node
contains all of its descendants: a node off the key's true path can only
lead to an arrival that fails the comparison.  Only ``insert`` tests
containment at each level, because it has to find where a new prefix
diverges.

Iterator safety follows the paper exactly: each node carries a reference
count of iterators currently pointing at it; deleting a route whose node is
referenced only *invalidates* the payload, and the last iterator to leave
the node performs the structural removal.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.net import IPNet


class TrieNode:
    """One trie node: a prefix, an optional payload, and two children."""

    __slots__ = ("value", "plen", "net", "payload", "has_payload",
                 "parent", "left", "right", "iter_refs")

    def __init__(self, value: int, plen: int, net: Optional[IPNet]):
        self.value = value
        self.plen = plen
        self.net = net  # lazily built for join nodes
        self.payload: Any = None
        self.has_payload = False
        self.parent: Optional["TrieNode"] = None
        self.left: Optional["TrieNode"] = None
        self.right: Optional["TrieNode"] = None
        self.iter_refs = 0

    def __repr__(self) -> str:
        tag = "route" if self.has_payload else "join"
        return f"<TrieNode {self.net or (self.value, self.plen)} {tag} refs={self.iter_refs}>"


class RouteTrie:
    """A Patricia trie mapping :class:`IPNet` prefixes to payloads."""

    def __init__(self, bits: int = 32):
        if bits not in (32, 128):
            raise ValueError(f"trie width must be 32 or 128 bits, got {bits}")
        self.bits = bits
        self._root = TrieNode(0, 0, None)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def route_count(self) -> int:
        return self._count

    # -- insertion --------------------------------------------------------
    def insert(self, net: IPNet, payload: Any) -> Any:
        """Insert or replace the payload at *net*.

        Returns the previous payload, or None if the prefix was new.
        """
        bits = self.bits
        if net.bits != bits:
            raise ValueError(f"prefix {net} does not fit a {bits}-bit trie")
        value, plen = net.key()
        top_bit = bits - 1
        node = self._root
        while True:
            # node's prefix contains the target here, by construction, so
            # an equal length is the target's own node.
            node_plen = node.plen
            if node_plen == plen:
                previous = node.payload if node.has_payload else None
                if not node.has_payload:
                    self._count += 1
                node.payload = payload
                node.has_payload = True
                if node.net is None:
                    node.net = net
                return previous
            child_bit = (value >> (top_bit - node_plen)) & 1
            child = node.right if child_bit else node.left
            if child is None:
                fresh = TrieNode(value, plen, net)
                fresh.payload = payload
                fresh.has_payload = True
                self._attach(node, fresh, child_bit)
                self._count += 1
                return None
            child_plen = child.plen
            diff = child.value ^ value
            if child_plen <= plen:
                if not diff >> (bits - child_plen):
                    node = child  # child contains the target
                    continue
            elif not diff >> (bits - plen):
                # New prefix sits between node and child.
                fresh = TrieNode(value, plen, net)
                fresh.payload = payload
                fresh.has_payload = True
                self._splice_between(node, child, fresh, child_bit)
                self._count += 1
                return None
            # Diverging prefixes: manufacture a join node above both, as
            # long as the bits they share (at least one below node).
            join_plen = bits - diff.bit_length()
            join_shift = bits - join_plen
            join = TrieNode((value >> join_shift) << join_shift, join_plen,
                            None)
            self._splice_between(node, child, join, child_bit)
            fresh = TrieNode(value, plen, net)
            fresh.payload = payload
            fresh.has_payload = True
            self._attach(join, fresh, (value >> (top_bit - join_plen)) & 1)
            self._count += 1
            return None

    def _attach(self, parent: TrieNode, child: TrieNode, bit: int) -> None:
        child.parent = parent
        if bit:
            parent.right = child
        else:
            parent.left = child

    def _splice_between(self, parent: TrieNode, child: TrieNode,
                        middle: TrieNode, bit: int) -> None:
        self._attach(parent, middle, bit)
        child_bit = (child.value >> (self.bits - 1 - middle.plen)) & 1
        self._attach(middle, child, child_bit)

    # -- lookup -------------------------------------------------------------
    def _find_node(self, value: int, plen: int) -> Optional[TrieNode]:
        """The node at exactly ``value/plen``: follow the key's bits down
        and compare once, on arrival."""
        top_bit = self.bits - 1
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen >= plen:
                if node_plen == plen and node.value == value:
                    return node
                return None
            node = node.right if (value >> (top_bit - node_plen)) & 1 \
                else node.left
        return None

    def exact(self, net: IPNet) -> Any:
        """Payload stored exactly at *net*, or None."""
        value, plen = net.key()
        node = self._find_node(value, plen)
        if node is not None and node.has_payload:
            return node.payload
        return None

    def __contains__(self, net: IPNet) -> bool:
        return self.exact(net) is not None

    # The three covering walks below follow the key's bits the same way.
    # Containment only matters at a node that holds a route, and the nodes
    # on a path that contain the key are a prefix of that path — so the
    # walk tests route nodes alone and stops at the first that fails.
    def best_match(self, addr) -> Optional[Tuple[IPNet, Any]]:
        """Longest-prefix match for address *addr*: ``(net, payload)``."""
        value = addr.to_int()
        bits = self.bits
        top_bit = bits - 1
        node = self._root
        best: Optional[TrieNode] = None
        while node is not None:
            node_plen = node.plen
            if node.has_payload:
                if (node.value ^ value) >> (bits - node_plen):
                    break
                best = node
            if node_plen == bits:
                break
            node = node.right if (value >> (top_bit - node_plen)) & 1 \
                else node.left
        if best is None:
            return None
        return best.net, best.payload

    def find_less_specific(self, net: IPNet) -> Optional[Tuple[IPNet, Any]]:
        """Most specific route *strictly containing* *net*."""
        value, plen = net.key()
        bits = self.bits
        top_bit = bits - 1
        node = self._root
        best: Optional[TrieNode] = None
        while node is not None:
            node_plen = node.plen
            if node_plen >= plen:
                break
            if node.has_payload:
                if (node.value ^ value) >> (bits - node_plen):
                    break
                best = node
            node = node.right if (value >> (top_bit - node_plen)) & 1 \
                else node.left
        if best is None:
            return None
        return best.net, best.payload

    def covering(self, net: IPNet) -> Iterator[Tuple[IPNet, Any]]:
        """All routes containing *net*, shortest prefix first (incl. equal)."""
        value, plen = net.key()
        bits = self.bits
        top_bit = bits - 1
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen > plen:
                break
            if node.has_payload:
                if (node.value ^ value) >> (bits - node_plen):
                    break
                yield node.net, node.payload
            if node_plen == plen:
                break
            node = node.right if (value >> (top_bit - node_plen)) & 1 \
                else node.left

    def _covered_root(self, value: int, plen: int) -> Optional[TrieNode]:
        """The topmost node inside ``value/plen``: the first node the
        key's bits lead to that is at least as long as the key."""
        bits = self.bits
        top_bit = bits - 1
        node = self._root
        while node is not None:
            node_plen = node.plen
            if node_plen >= plen:
                if (node.value ^ value) >> (bits - plen):
                    return None
                return node
            node = node.right if (value >> (top_bit - node_plen)) & 1 \
                else node.left
        return None

    def covered(self, net: IPNet) -> Iterator[Tuple[IPNet, Any]]:
        """All routes equal to or more specific than *net*, in prefix order."""
        value, plen = net.key()
        top = self._covered_root(value, plen)
        if top is None:
            return
        stack: List[TrieNode] = [top]
        while stack:
            node = stack.pop()
            if node.has_payload:
                yield node.net, node.payload
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def has_more_specific(self, net: IPNet) -> bool:
        """True if any route is *strictly* more specific than *net*."""
        value, plen = net.key()
        for covered_net, __ in self.covered(net):
            if covered_net.prefix_len > plen:
                return True
        return False

    # -- deletion --------------------------------------------------------
    def remove(self, net: IPNet) -> Any:
        """Remove the route at *net*, returning its payload.

        Raises KeyError if absent.  If iterators reference the node, only
        the payload is invalidated now; the node is reclaimed when the last
        iterator leaves (paper §5.3).
        """
        value, plen = net.key()
        node = self._find_node(value, plen)
        if node is None or not node.has_payload:
            raise KeyError(str(net))
        payload = node.payload
        node.payload = None
        node.has_payload = False
        self._count -= 1
        self._reclaim(node)
        return payload

    def discard(self, net: IPNet) -> Any:
        """Like :meth:`remove` but returns None when the route is absent."""
        try:
            return self.remove(net)
        except KeyError:
            return None

    def clear(self) -> None:
        """Drop every route.  Iterators become exhausted, not invalid."""
        for net, __ in list(self.items()):
            self.discard(net)

    def _reclaim(self, node: TrieNode) -> None:
        """Splice out *node* and prunable ancestors where safe."""
        while (
            node.parent is not None
            and not node.has_payload
            and node.iter_refs == 0
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

    def keys(self) -> Iterator[IPNet]:
        for net, __ in self.items():
            yield net

    # Internal helpers used by TrieIterator ------------------------------
    def _first_node(self, scope: Optional[TrieNode]) -> Optional[TrieNode]:
        node = scope if scope is not None else self._root
        if node.has_payload:
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
            if current.has_payload:
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
            for _ in range(64):
                if not it.valid:
                    return False       # done
                process(it.net, it.payload)
                it.advance()
            return True                # more work
    """

    __slots__ = ("_trie", "_node", "_scope")

    def __init__(self, trie: RouteTrie, start: Optional[IPNet] = None):
        self._trie = trie
        self._scope: Optional[TrieNode] = None
        if start is not None:
            value, plen = start.key()
            self._scope = trie._covered_root(value, plen)
            if self._scope is not None:
                self._scope.iter_refs += 1
        node = trie._first_node(self._scope) if (
            start is None or self._scope is not None
        ) else None
        self._node = node
        if node is not None:
            node.iter_refs += 1

    @property
    def valid(self) -> bool:
        """True while the iterator points at a live route.

        False either because iteration finished (see :attr:`exhausted`) or
        because the route under the iterator was deleted while a background
        task was parked here — in which case :meth:`advance` resumes at the
        next live route.
        """
        return self._node is not None and self._node.has_payload

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
            nxt.iter_refs += 1
        self._release(old)
        return nxt is not None

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
        node.iter_refs -= 1
        if node.iter_refs == 0 and not node.has_payload:
            self._trie._reclaim(node)

    def __enter__(self) -> "TrieIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
