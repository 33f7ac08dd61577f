"""Structured runtime findings of the stage sanitizer.

A :class:`Violation` is one observed breach of a runtime invariant.  It
reuses the rule catalogue in :mod:`repro.analysis.core` (SAN001–004), so
the static and runtime checkers share one namespace of rule ids.

Where a static finding points at ``path:line``, a runtime violation
points at an *origin*: the stage edge it was seen on
(``peer-in->decision``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.core import RULES


@dataclass(frozen=True)
class Violation:
    """One runtime invariant breach: which rule, where, and why."""

    rule: str
    origin: str
    message: str
    #: rule-specific structured payload (the prefix, the routes, ...)
    context: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        assert self.rule in RULES, f"unknown rule id {self.rule!r}"

    def render(self) -> str:
        return f"{self.origin}: {self.rule} {self.message}"


class ViolationLog:
    """The ordered sink a sanitizer appends to."""

    def __init__(self) -> None:
        self._violations: List[Violation] = []

    def record(self, rule: str, origin: str, message: str,
               context: Optional[Dict[str, Any]] = None) -> Violation:
        violation = Violation(rule=rule, origin=origin, message=message,
                              context=dict(context or {}))
        self._violations.append(violation)
        return violation

    @property
    def violations(self) -> List[Violation]:
        return list(self._violations)
