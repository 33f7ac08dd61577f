"""RuntimeSanitizer: the stage + XRL sanitizers behind one switch.

This is what the pytest fixture and the CLI arm: both pieces share one
:class:`~repro.sanitizer.report.ViolationLog`, so ``violations`` is a
single ordered stream across the stage graph and the XRL boundary.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sanitizer.report import Violation, ViolationLog
from repro.sanitizer.stagesan import StageSanitizer
from repro.sanitizer.xrlsan import XrlDispatchSanitizer


class RuntimeSanitizer:
    """Arms/disarms the stage-graph and XRL-dispatch sanitizers together."""

    def __init__(self, *, log: Optional[ViolationLog] = None):
        self.log = log if log is not None else ViolationLog()
        self.stages = StageSanitizer(self.log)
        self.xrl = XrlDispatchSanitizer(self.log)

    def arm(self) -> None:
        self.stages.arm()
        self.xrl.arm()

    def disarm(self) -> None:
        self.xrl.disarm()
        self.stages.disarm()

    def __enter__(self) -> "RuntimeSanitizer":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    @property
    def violations(self) -> List[Violation]:
        return self.log.violations
