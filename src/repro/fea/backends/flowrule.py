"""The flow-rule backend: routes become match/action rules.

The fbgp2 lineage of dataplanes replaces the kernel FIB with an SDN
switch: a BGP route for ``10.1.0.0/16 via 192.168.0.1 dev eth0`` is not
a trie node but a flow rule —

    ``table=0 priority=16 match={ipv4_dst: 10.1.0.0/16}
    actions=[set_next_hop:192.168.0.1, output:eth0]``

— pushed to a forwarding element by a controller.  Longest-prefix-match
semantics survive the translation because rule *priority* is the prefix
length: the switch picks the highest-priority matching rule, which is
exactly the most specific prefix.

This backend models that controller channel: ``apply`` translates each
:class:`~repro.fea.backends.base.FibOp` into a rule add/remove against
per-family rule tables and acks synchronously (a controller's barrier
reply).  ``dump`` translates the installed rules *back* into
:class:`~repro.fea.fib.FibEntry` objects, so reconciliation never needs
to know it is talking to a switch rather than a kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fea.backends.base import ADD, CompletionCallback, FibBackend, FibOp
from repro.fea.fib import FibEntry
from repro.net import V6_TAG, IPNet

#: OpenFlow-style table ids per address family
TABLE_IPV4 = 0
TABLE_IPV6 = 1

_MATCH_FIELD = {32: "ipv4_dst", 128: "ipv6_dst"}
_TABLE_BY_BITS = {32: TABLE_IPV4, 128: TABLE_IPV6}
_BITS_BY_TABLE = {TABLE_IPV4: 32, TABLE_IPV6: 128}


class FlowRule:
    """One match/action rule, the unit the forwarding element stores."""

    __slots__ = ("table", "priority", "match", "actions")

    def __init__(self, table: int, priority: int,
                 match: Dict[str, str], actions: List[Tuple[str, str]]):
        self.table = table
        self.priority = priority
        self.match = match
        self.actions = actions

    def __repr__(self) -> str:
        acts = ",".join(f"{kind}:{arg}" for kind, arg in self.actions)
        return (f"FlowRule(table={self.table} priority={self.priority} "
                f"match={self.match} actions=[{acts}])")


def entry_to_rule(entry: FibEntry) -> FlowRule:
    """Translate a forwarding entry into its match/action rule."""
    actions: List[Tuple[str, str]] = []
    if not entry.nexthop.is_zero():
        actions.append(("set_next_hop", str(entry.nexthop)))
    if entry.ifname:
        actions.append(("output", entry.ifname))
    bits = 128 if entry.net >= V6_TAG else 32
    return FlowRule(
        table=_TABLE_BY_BITS[bits],
        priority=entry.net.prefix_len,
        match={_MATCH_FIELD[bits]: str(entry.net)},
        actions=actions,
    )


def rule_to_entry(rule: FlowRule) -> FibEntry:
    """Translate an installed rule back into a forwarding entry."""
    bits = _BITS_BY_TABLE[rule.table]
    net = IPNet.parse(rule.match[_MATCH_FIELD[bits]])
    family = type(net.network)
    nexthop = family(0)
    ifname = ""
    for kind, arg in rule.actions:
        if kind == "set_next_hop":
            nexthop = family(arg)
        elif kind == "output":
            ifname = arg
    return FibEntry(net, nexthop, ifname)


class FlowRuleBackend(FibBackend):
    """A controller pushing flow rules; sync ack per barrier."""

    name = "flowrule"

    def __init__(self) -> None:
        super().__init__()
        #: (table, match-key) -> FlowRule — the forwarding element state
        self._rules: Dict[Tuple[int, str], FlowRule] = {}
        self._completion: Optional[CompletionCallback] = None
        self.rules_installed = 0
        self.rules_removed = 0

    @staticmethod
    def _key(rule: FlowRule) -> Tuple[int, str]:
        field, value = next(iter(rule.match.items()))
        return (rule.table, f"{field}={value}")

    def open(self, loop, completion: CompletionCallback) -> None:
        self._completion = completion

    def close(self) -> None:
        self._completion = None

    def apply(self, ops: Sequence[FibOp]) -> None:
        completion = self._completion
        rules = self._rules
        for op in ops:
            rule = entry_to_rule(op.entry)
            if op.op == ADD:
                rules[self._key(rule)] = rule
                self.rules_installed += 1
            else:
                if rules.pop(self._key(rule), None) is not None:
                    self.rules_removed += 1
            if completion is not None:
                completion(op.seq, True, "")

    def dump(self, bits: int) -> List[FibEntry]:
        table = _TABLE_BY_BITS[bits]
        return [rule_to_entry(rule) for rule in self._rules.values()
                if rule.table == table]

    def rules(self, table: Optional[int] = None) -> List[FlowRule]:
        """The installed rule set (optionally one table), for inspection."""
        return [rule for rule in self._rules.values()
                if table is None or rule.table == table]

    def __len__(self) -> int:
        return len(self._rules)
