"""CLI: ``python -m repro.analysis [paths...]``.

Exit status 0 when the tree is clean, 1 when any finding survives
suppression — the same contract as XORP's build-time xrlc check, so CI
wires this straight into the gate.  Every finding is an error: a clean
tree prints nothing.

``--graph-out``/``--graph-dot`` additionally export the whole-system
protocol graph (byte-stable JSON / Graphviz dot) the PRO rules ran over
(:mod:`repro.analysis.protograph`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.core import RULES
from repro.analysis.protograph import build_protocol_graph
from repro.analysis.report import FORMATS, render_findings
from repro.analysis.runner import collect_modules, run_checkers


def _default_root() -> Path:
    import repro

    return Path(repro.__file__).parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Architectural lint: IDL conformance, shared-nothing "
                    "isolation, event-loop determinism, callback safety, "
                    "whole-system protocol graph.",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to check "
                             "(default: the installed repro package)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="RULE",
                        help="only report this rule id (repeatable)")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--graph-out", type=Path, metavar="FILE",
                        help="write the protocol graph as byte-stable JSON")
    parser.add_argument("--graph-dot", type=Path, metavar="FILE",
                        help="write the protocol graph as Graphviz dot")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            print(f"{rule.id}  [{rule.paper}]  {rule.summary}")
        return 0

    paths = args.paths or [_default_root()]
    stats: dict = {}
    modules, errors = collect_modules(paths, stats=stats)
    started = time.perf_counter()  # repro: allow[DET001] tooling timing
    graph = build_protocol_graph(modules)
    findings = errors + run_checkers(modules, rules=args.rules, graph=graph)
    stats["check_seconds"] = stats.get("check_seconds", 0.0) \
        + (time.perf_counter() - started)  # repro: allow[DET001] tooling timing

    if args.graph_out:
        args.graph_out.write_text(graph.to_json(), encoding="utf-8")
    if args.graph_dot:
        args.graph_dot.write_text(graph.to_dot(), encoding="utf-8")

    if args.format == "json":
        payload = {
            "findings": [finding.__dict__ for finding in findings],
            "timing": {
                "files": stats.get("files", 0),
                "parsed": stats.get("parsed", 0),
                "parse_cached": stats.get("parse_cached", 0),
                "parse_seconds": round(stats.get("parse_seconds", 0.0), 6),
                "check_seconds": round(stats.get("check_seconds", 0.0), 6),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rendered = render_findings(findings, args.format)
        if rendered:
            print(rendered)
    if findings and args.format == "text":
        print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
