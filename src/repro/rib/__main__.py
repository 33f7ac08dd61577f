"""``python -m repro.rib`` — the RIB as a standalone OS process."""

from repro.core.runtime import run_child
from repro.rib import RibProcess

if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    run_child("repro.rib", RibProcess)
