"""repro.sanitizer — the runtime checkers.

Each property the paper gives a checker has one at runtime, beside its
static rules in :mod:`repro.analysis`:

* §5's two stage-consistency rules: :mod:`repro.sanitizer.stagesan`
  checks every live stage-graph edge (SAN001–004);
* §4's "correct code does not depend on the order of same-deadline
  events": :mod:`repro.sanitizer.schedule`'s seeded
  :class:`ScheduleShuffler`, under which the reference-router runner
  (``tests/test_reference_router.py``) drives every schedule;
* §6.1's XRL conformance needs nothing here: every dispatch checks its
  arguments against the IDL (``XrlRouter.dispatch_request``), and
  ``XrlInterface.bind`` refuses a class missing a declared handler.

The stage sanitizer and the shuffler observe the router through the
instrumentation seam (:mod:`repro.core.taps`), so they arm and disarm in
any order, with each other and with :mod:`repro.obs`; the
``runtime_sanitizers`` pytest fixture in ``tests/conftest.py`` arms the
stage sanitizer inside ordinary integration tests.
"""

from repro.sanitizer.schedule import ScheduleShuffler
from repro.sanitizer.stagesan import StageSanitizer, Violation

__all__ = [
    "ScheduleShuffler",
    "StageSanitizer",
    "Violation",
]
