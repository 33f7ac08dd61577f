"""The router benchmark: UPDATE bytes -> FIB and XRL request -> reply.

Drives the unmodified router under ``src/repro`` from outside — BGP UPDATE
bytes written to a peer session, XRLs sent to public targets, FIB state
read back — in one interpreter and across OS processes.  See README.md
for the workloads, the metrics and how they interact.

The benchmark's command may name nothing outside this directory, so the
package makes ``src/`` importable itself.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
