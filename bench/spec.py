"""Names, units, directions and bounds of everything the benchmark reports,
read from ``BENCHMARK.json`` at the repository root — the one place they
are declared — so a workload cannot report a metric that is not there.

Every workload reports every metric.  The end-to-end names are therefore
generic — an *operation* is a route announce/withdraw seen in the FEA FIB
on the route workloads and an XRL replied on ``xrl_call`` — and README.md
maps them to the per-workload names of the issue (``routes_per_s``,
``install_p50_ms``, ``xrl_per_s`` ...).  A per-layer metric reads 0 on a
workload that bypasses its layer, which is the prediction for that
workload, or that cannot observe it from outside the router.
"""

import json
import os

from bench import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)

WORKLOAD_NAMES = [workload["name"] for workload in DECLARED["workloads"]]
END_TO_END_NAMES = [metric["name"] for metric in DECLARED["end_to_end"]]
PER_LAYER_NAMES = [metric["name"] for metric in DECLARED["per_layer"]]
UNITS = {metric["name"]: metric["unit"]
         for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]}
