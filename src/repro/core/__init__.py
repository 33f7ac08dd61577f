"""The paper's primary contribution: the extensible control-plane core.

Two pieces live here:

* :mod:`repro.core.process` — the multi-process composition model: every
  routing protocol and management function is a separate event-driven
  *process* communicating only via XRLs (paper §4);
* :mod:`repro.core.stages` — the staged routing-table framework: routing
  tables as networks of pluggable stages through which routes flow, with
  the paper's message API (``add_routes`` / ``delete_routes`` /
  ``replace_route`` / ``lookup_route``) and consistency rules (paper §5).

Protocol-specific stages (BGP's decision process, the RIB's merge stages,
…) subclass these in their own packages.
"""

from repro.core.process import Host, XorpProcess
from repro.core.stages import (
    DeletionStage,
    FilterStage,
    OriginStage,
    RouteTableStage,
)

__all__ = [
    "DeletionStage",
    "FilterStage",
    "Host",
    "OriginStage",
    "RouteTableStage",
    "XorpProcess",
]
