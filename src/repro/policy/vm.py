"""The policy stack machine.

A compiled policy is a list of terms; each term is a list of instructions
operating on an operand stack and a :class:`~repro.policy.varrw.VarRW`
route adapter.  Execution semantics:

* ``onfalse_exit`` aborts the current term (falls through to the next);
* ``accept`` / ``reject`` terminate the whole policy;
* if no term accepts or rejects, the route passes with any modifications
  that matched terms applied (fall-through accept).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, List, Sequence, Tuple

from repro.net import IPNet

Instruction = Tuple  # (opcode, *operands)


class PolicyResult(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    FALLTHROUGH = "fallthrough"


class PolicyExecutionError(RuntimeError):
    """A program fault (bad opcode, stack underflow, type error)."""


class _TermExit(Exception):
    """Internal: leave the current term (condition not met)."""


class _PolicyExit(Exception):
    def __init__(self, result: PolicyResult):
        self.result = result


class PolicyVM:
    """Executes compiled policy programs against VarRW adapters."""

    def __init__(self) -> None:
        self.executions = 0

    def run(self, program: Sequence[Sequence[Instruction]], varrw) -> PolicyResult:
        """Run *program* (a list of terms) against *varrw*."""
        self.executions += 1
        try:
            for term in program:
                try:
                    self._run_term(term, varrw)
                except _TermExit:
                    continue
        except _PolicyExit as exit_:
            return exit_.result
        return PolicyResult.FALLTHROUGH

    def _run_term(self, term: Sequence[Instruction], varrw) -> None:
        stack: List[Any] = []
        for instruction in term:
            opcode = instruction[0]
            if opcode == "push":
                stack.append(instruction[1])
            elif opcode == "load":
                stack.append(varrw.read(instruction[1]))
            elif opcode == "store":
                self._store(varrw, instruction[1], "set", stack.pop())
            elif opcode == "store_add":
                self._store(varrw, instruction[1], "add", stack.pop())
            elif opcode == "store_sub":
                self._store(varrw, instruction[1], "sub", stack.pop())
            elif opcode in _COMPARATORS:
                right = stack.pop()
                left = stack.pop()
                stack.append(_COMPARATORS[opcode](left, right))
            elif opcode == "not":
                stack.append(not stack.pop())
            elif opcode == "and":
                right, left = stack.pop(), stack.pop()
                stack.append(bool(left) and bool(right))
            elif opcode == "or":
                right, left = stack.pop(), stack.pop()
                stack.append(bool(left) or bool(right))
            elif opcode == "onfalse_exit":
                if not stack.pop():
                    raise _TermExit()
            elif opcode == "accept":
                raise _PolicyExit(PolicyResult.ACCEPT)
            elif opcode == "reject":
                raise _PolicyExit(PolicyResult.REJECT)
            else:
                raise PolicyExecutionError(f"unknown opcode {opcode!r}")

    @staticmethod
    def _store(varrw, variable: str, mode: str, value: Any) -> None:
        if mode == "set":
            varrw.write(variable, value)
        else:
            current = varrw.read(variable)
            # A prefix is an int, but not a number to add to.
            numeric = isinstance(current, int) and \
                not isinstance(current, IPNet)
            base = current if numeric else 0
            delta = value if mode == "add" else -value
            varrw.write(variable, base + delta)


def _cmp_eq(left: Any, right: Any) -> bool:
    return _normalize(left) == _normalize(right)


def _cmp_ne(left: Any, right: Any) -> bool:
    return not _cmp_eq(left, right)


def _normalize(value: Any):
    # Let "10.0.0.0/8" (str) compare equal to an IPNet and numbers to
    # numeric strings: policy authors write text.
    if isinstance(value, IPNet):
        return str(value)
    from repro.net import IPv4

    if isinstance(value, IPv4):
        return str(value)
    return value


def _cmp_contains(left: Any, right: Any) -> bool:
    """Membership: AS in path list, community in tuple, substring."""
    if isinstance(left, (list, tuple, set)):
        return right in left
    if isinstance(left, str):
        return str(right) in left
    raise PolicyExecutionError(
        f"'contains' needs a collection on the left, got {type(left).__name__}"
    )


def _cmp_orlonger(left: Any, right: Any) -> bool:
    """Route prefix (left) equal to or more specific than right."""
    if not isinstance(left, IPNet) or not isinstance(right, IPNet):
        raise PolicyExecutionError("'orlonger' needs two prefixes")
    return right.contains(left)


def _cmp_exact(left: Any, right: Any) -> bool:
    if not isinstance(left, IPNet) or not isinstance(right, IPNet):
        raise PolicyExecutionError("'exact' needs two prefixes")
    return left == right


_COMPARATORS = {
    "eq": _cmp_eq,
    "ne": _cmp_ne,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "contains": _cmp_contains,
    "orlonger": _cmp_orlonger,
    "exact": _cmp_exact,
}
