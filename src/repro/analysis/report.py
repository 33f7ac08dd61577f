"""Finding renderers shared by the analysis and obs CLIs.

Three formats, one contract:

* ``text`` — ``path:line: RULE message``, one per line (human, grep);
* ``json`` — a stable, sorted JSON array (CI artifacts, diffing);
* ``github`` — GitHub Actions workflow commands, so findings surface as
  annotations on the PR diff without any extra action.

GitHub's command syntax requires ``%``, ``\\r`` and ``\\n`` in the free
text to be escaped as ``%25``/``%0D``/``%0A``; property values (the
file name) additionally escape ``,`` and ``:``.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.analysis.core import Finding

FORMATS = ("text", "json", "github")


def _escape_data(value: str) -> str:
    return (value.replace("%", "%25")
                 .replace("\r", "%0D")
                 .replace("\n", "%0A"))


def _escape_property(value: str) -> str:
    return (_escape_data(value).replace(":", "%3A").replace(",", "%2C"))


def github_annotation(finding: Finding) -> str:
    return (
        f"::error file={_escape_property(finding.path)},"
        f"line={max(finding.line, 1)},"
        f"title={_escape_property(finding.rule)}::"
        f"{_escape_data(f'{finding.rule} {finding.message}')}"
    )


def render_findings(findings: Sequence[Finding], fmt: str) -> str:
    """One string (no trailing newline) in the requested format."""
    if fmt == "json":
        return json.dumps([finding.__dict__ for finding in findings],
                          indent=2, sort_keys=True)
    if fmt == "github":
        return "\n".join(github_annotation(f) for f in findings)
    lines: List[str] = [finding.render() for finding in findings]
    return "\n".join(lines)
