"""The in-memory backend: one exact-prefix table per family.

Synchronous and infallible — every operation is applied and acked within
the ``apply`` call — so it doubles as the reference implementation the
fault-injecting backends are tested against: under any fault schedule,
after reconciliation, a faulty backend's ``dump()`` must equal what this
backend would hold.

The dataplane is only ever written one exact prefix at a time and read
whole by ``dump``; the FEA answers longest-match lookups from its shadow
:class:`~repro.fea.fib.Fib`.  So each table is a ``dict`` (DESIGN.md,
"Which table is which structure"); the class and its ``"trie"`` registry
key keep their names because the benchmark selects them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.fea.backends.base import ADD, CompletionCallback, FibBackend, FibOp
from repro.fea.fib import FibEntry
from repro.net import IPNet


class TrieFibBackend(FibBackend):
    """A dict per family; sync, always acks."""

    name = "trie"

    def __init__(self) -> None:
        super().__init__()
        self._tables: Dict[int, Dict[IPNet, FibEntry]] = {32: {}, 128: {}}
        self._completion: Optional[CompletionCallback] = None

    def open(self, loop, completion: CompletionCallback) -> None:
        self._completion = completion

    def close(self) -> None:
        self._completion = None

    def apply(self, ops: Sequence[FibOp]) -> None:
        completion = self._completion
        for op in ops:
            table = self._tables[op.bits]
            if op.op == ADD:
                table[op.entry.net] = op.entry
            else:
                table.pop(op.entry.net, None)
            if completion is not None:
                completion(op.seq, True, "")

    def dump(self, bits: int) -> List[FibEntry]:
        return list(self._tables[bits].values())

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())
