"""Experiment harnesses reproducing the paper's evaluation (§8).

One module per experiment family; ``benchmarks/`` turns each into a
pass/fail gate on the figure's shape, and ``python -m bench`` is where
throughput, latency and memory are measured:

* :mod:`repro.experiments.xrlperf`   — Figure 9: XRL throughput vs
  argument count for the Intra-Process, TCP and UDP protocol families;
* :mod:`repro.experiments.latency`   — Figures 10-12: route propagation
  latency through the eight profiling points, with and without a full
  BGP backbone feed;
* :mod:`repro.experiments.routeflow` — Figure 13: per-route propagation
  delay through a router under test (XORP stack vs. event-driven and
  30-second-scanner baselines);
* :mod:`repro.experiments.synth`     — synthetic backbone feed generator
  (the stand-in for the paper's 146,515-route Internet feed);
* :mod:`repro.experiments.recovery`  — supervised crash recovery: kill
  BGP mid-session under seeded frame loss, measure time-to-reconverge;
* :mod:`repro.experiments.resilience` — dataplane-backend resilience:
  blackhole time across a backend crash/reattach, and the RIB window's
  bound on a full-table flush into a slow backend.
"""

from repro.experiments.synth import synthetic_feed
from repro.experiments.xrlperf import XrlPerfResult, run_xrl_throughput
from repro.experiments.latency import LatencyResult, run_latency_experiment
from repro.experiments.recovery import RecoveryResult, run_recovery
from repro.experiments.resilience import (
    ResilienceResult,
    ThrottledFlushResult,
    run_backend_resilience,
    run_throttled_flush,
)
from repro.experiments.routeflow import RouteFlowResult, run_route_flow

__all__ = [
    "LatencyResult",
    "RecoveryResult",
    "ResilienceResult",
    "RouteFlowResult",
    "ThrottledFlushResult",
    "XrlPerfResult",
    "run_backend_resilience",
    "run_latency_experiment",
    "run_recovery",
    "run_throttled_flush",
    "run_route_flow",
    "run_xrl_throughput",
    "synthetic_feed",
]
