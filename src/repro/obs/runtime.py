"""Observability: the tracer and the obs-level metrics behind one switch.

One object the tests, the CLI and harnesses arm/disarm (or use as a
context manager), like :class:`repro.sanitizer.StageSanitizer`.

It composes with armed sanitizers in either order, armed and disarmed:
both tap the stage surface through the one instrumentation seam
(:mod:`repro.core.taps`), which rebuilds each chain from the pristine
function whenever an observer comes or goes.
"""

from __future__ import annotations

from repro.net import IPNet
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, Tracer


class Observability:
    """Arms/disarms causal tracing plus the obs metric instruments."""

    def __init__(self, *, clock=None):
        self.metrics = MetricsRegistry("obs")
        self.tracer = Tracer(clock=clock, metrics=self.metrics)

    def trace(self, net: IPNet) -> TraceContext:
        return self.tracer.trace(net)

    def arm(self) -> None:
        self.tracer.arm()

    def disarm(self) -> None:
        self.tracer.disarm()

    def __enter__(self) -> "Observability":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()
