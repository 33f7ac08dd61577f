"""``python -m repro.fea`` — the FEA as a standalone OS process.

Interfaces arrive over ``fea_ifmgr/1.0 create_interface``, from the
rtrmgr's configuration, like everything else a process is told.
"""

from repro.core.runtime import run_child
from repro.fea import FeaProcess

if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    run_child("repro.fea", FeaProcess)
