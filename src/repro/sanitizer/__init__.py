"""repro.sanitizer — runtime twin of the static lint suite.

Four cooperating pieces, all reporting through the shared rule
catalogue in :mod:`repro.analysis.core`; the first three observe the
router through the instrumentation seam (:mod:`repro.core.taps`) and so
arm and disarm in any order, with each other and with :mod:`repro.obs`:

* :mod:`repro.sanitizer.stagesan` — §5 consistency rules checked on
  every live stage-graph edge (SAN001–004);
* :mod:`repro.sanitizer.xrlsan` — IDL conformance at the XRL dispatch
  boundary (SAN101–103);
* :mod:`repro.sanitizer.schedule` — deterministic exploration of
  same-deadline event orderings, reporting state divergence (RACE001);
* :mod:`repro.sanitizer.protocheck` — dynamic/static agreement: every
  XRL edge observed by the :mod:`repro.obs` tracer must be explained by
  the static protocol graph from :mod:`repro.analysis.protograph`.

``python -m repro.sanitizer`` runs the explorer (with the runtime
sanitizers armed) over registered scenarios; the ``runtime_sanitizers``
pytest fixture in ``tests/conftest.py`` arms the first two pieces
inside ordinary integration tests.
"""

from repro.sanitizer.protocheck import (
    runtime_xrl_edges,
    site_package,
    unexplained_edges,
)
from repro.sanitizer.report import Violation, ViolationLog
from repro.sanitizer.runtime import RuntimeSanitizer
from repro.sanitizer.schedule import (
    ExplorationReport,
    ScheduleShuffler,
    explore,
)
from repro.sanitizer.stagesan import StageSanitizer
from repro.sanitizer.xrlsan import XrlDispatchSanitizer

__all__ = [
    "ExplorationReport",
    "RuntimeSanitizer",
    "ScheduleShuffler",
    "StageSanitizer",
    "Violation",
    "ViolationLog",
    "XrlDispatchSanitizer",
    "explore",
    "runtime_xrl_edges",
    "site_package",
    "unexplained_edges",
]
