"""repro.obs — causal route tracing and a metrics registry (fleet-grade
observability for the multi-process router).

The paper's profiling facility (§8.1) records timestamped events at
hand-placed points inside one process.  This package answers the question
profiling cannot: *which stages, XRLs and queues did this route traverse,
and where did the time go* — across process boundaries.

Two pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms every process registers and serves over the ``metrics/1.0``
  XRL interface, so an external collector can scrape any router process
  the way the paper makes profiling externally scriptable.
* :class:`~repro.obs.trace.Tracer` — per-route causal tracing.  A traced
  prefix gets a :class:`~repro.obs.trace.TraceContext`; hops are recorded
  as the route flows through the stage message surface, and a reserved
  XRL argument (:data:`~repro.obs.trace.TRACE_ARG`) carries the context
  across process boundaries, so one route's journey BGP peer-in →
  decision → RIB merge → FEA FIB reconstructs as a span tree.

The registry is plain objects a process increments itself.  The tracer
observes through the instrumentation seam (:mod:`repro.core.taps`), like
the sanitizers and in any order with them: disarmed, the pristine
functions are back on the classes and the hot paths carry zero residual
overhead — no branches, no indirection (``tests/test_taps.py`` gates the
identity, the fig13 benchmark the wall clock).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import Observability
from repro.obs.trace import TRACE_ARG, Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TraceContext",
    "Tracer",
    "TRACE_ARG",
]
