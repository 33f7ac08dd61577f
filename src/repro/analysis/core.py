"""Shared infrastructure for the architectural lint suite.

:class:`ModuleInfo` wraps one parsed source file with the metadata every
rule needs: its logical package path inside ``repro``, the AST, and the
per-line suppression table built from ``# repro: allow[RULE]`` comments.
What the rules read of the AST is collected by the one walk in
:mod:`repro.analysis.sites`.  :class:`Finding` is the structured result
every rule emits.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One enforced invariant: id, summary, and the paper section behind it."""

    id: str
    summary: str
    paper: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in [
        Rule("XRL001", "XRL names an interface/version absent from the IDL "
                       "catalogue", "§6.1"),
        Rule("XRL002", "XRL names a method the interface does not declare",
             "§6.1"),
        Rule("XRL005", "handler signature cannot accept the declared "
                       "parameters", "§6.1"),
        Rule("XRL006", "textual XRL literal does not parse", "§6.1"),
        Rule("ISO001", "process package imports another process package's "
                       "internals", "§4"),
        Rule("ISO002", "shared library package imports a process package",
             "§4"),
        Rule("DET001", "wall-clock read outside eventloop//xrl.transport "
                       "breaks SimulatedClock reproducibility", "§4"),
        Rule("DET002", "blocking sleep stalls the single-threaded event loop",
             "§4"),
        Rule("DET003", "unseeded randomness breaks deterministic replay",
             "§4"),
        Rule("DET004", "blocking socket/select call outside the transport "
                       "layer", "§4"),
        Rule("DET005", "zero-delay timer sequences dependent work through "
                       "the timer queue; same-deadline firing order is not "
                       "guaranteed", "§4"),
        Rule("CB001", "deferred callback captures process state without a "
                      "liveness/generation guard", "§4"),
        Rule("STG001", "stage message passes or declares 'caller' "
                       "positionally; the API requires it keyword-only",
             "§5"),
        Rule("BKD001", "FEA code constructs a FIB backend class directly "
                       "instead of selecting it through make_backend()",
             "§3"),
        # Whole-system protocol graph rules (repro.analysis.protograph):
        # interprocedural, computed over every send and bind site at once.
        Rule("PRO001", "XRL sent to an interface/method no process ever "
                       "binds — unresolvable at runtime", "§6.1"),
        Rule("PRO002", "synchronous XRL request closes an inter-process "
                       "request cycle — a deadlock once each process is a "
                       "real OS subprocess", "§4"),
        Rule("PRO003", "caller reads a reply atom the handler's IDL reply "
                       "spec never produces", "§6.1"),
        # Runtime rules: emitted by repro.sanitizer's stage sanitizer,
        # never by the static checkers.  They live in the same catalogue
        # so the static and runtime checkers share one namespace.
        Rule("SAN001", "add_route for a prefix already live on the same "
                       "stage edge without an intervening delete_route "
                       "(runtime, rule 1)", "§5"),
        Rule("SAN002", "delete_route without a previously propagated "
                       "add_route on the same stage edge (runtime, rule 1)",
             "§5"),
        Rule("SAN003", "replace_route for a prefix never added on the same "
                       "stage edge (runtime, rule 1)", "§5"),
        Rule("SAN004", "lookup_route answer contradicts the add/delete "
                       "stream previously sent downstream (runtime, rule 2)",
             "§5"),
        # Observability rules: emitted by ``python -m repro.obs`` when the
        # traced scenario's reconstructed evidence contradicts the
        # architecture (runtime, like the SAN rules).
        Rule("OBS001", "traced route never reached the FEA FIB "
                       "(runtime observability)", "§8"),
        Rule("OBS002", "expected metric missing or zero during a traced "
                       "scrape (runtime observability)", "§8"),
        Rule("OBS003", "span timestamps decrease along a causal path "
                       "(runtime observability)", "§8"),
        Rule("SUP001", "suppression names an unknown rule id", "tooling"),
        Rule("SUP002", "suppression comment suppresses nothing on this "
                       "tree (rotted allow[])", "tooling"),
        Rule("GEN001", "file does not parse as Python", "tooling"),
    ]
}


@dataclass(frozen=True)
class Finding:
    """One structured lint result: where, which rule, and why."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class AllowComment:
    """One ``# repro: allow[...]`` comment and the lines it covers."""

    line: int
    rules: Tuple[str, ...]
    covers: Tuple[int, ...]


def scan_allow_comments(source: str) -> List["AllowComment"]:
    """Every ``# repro: allow[RULE,...]`` comment token in *source*.

    Only real comment tokens count (the syntax being *mentioned* in a
    docstring must not suppress anything).  A trailing comment covers its
    own line; a line holding only the comment also covers the next line,
    so multi-line statements can be annotated above rather than squeezed
    past column 79.
    """
    import io
    import tokenize

    comments: List[AllowComment] = []
    if "repro:" not in source:          # tokenizing is the slow half of a parse
        return comments
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return comments
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if not match:
            continue
        rules = tuple(sorted({part.strip()
                              for part in match.group(1).split(",")
                              if part.strip()}))
        lineno = token.start[0]
        covers = [lineno]
        if token.line[:token.start[1]].strip() == "":
            covers.append(lineno + 1)
        comments.append(AllowComment(line=lineno, rules=rules,
                                     covers=tuple(covers)))
    return comments


def _suppression_table(comments: Iterable[AllowComment]
                       ) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for comment in comments:
        for lineno in comment.covers:
            table.setdefault(lineno, set()).update(comment.rules)
    return table


def scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line rule suppressions, built from :func:`scan_allow_comments`."""
    return _suppression_table(scan_allow_comments(source))


@dataclass
class ModuleInfo:
    """One source file prepared for checking."""

    path: Path
    #: dotted location inside the repro package, e.g. ("bgp", "process");
    #: ("analysis", "core") for this file.  Element 0 names the package a
    #: module belongs to for isolation/determinism scoping.
    logical: Tuple[str, ...]
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    allow_comments: List[AllowComment] = field(default_factory=list)
    #: what the one walk found (:func:`repro.analysis.sites.sites_of`),
    #: filled in on first use — cached with the parse
    sites: Optional[object] = None

    @property
    def package(self) -> str:
        return self.logical[0] if len(self.logical) > 1 else ""

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, ())

    @classmethod
    def from_source(cls, source: str, path: Path,
                    logical: Optional[Tuple[str, ...]] = None) -> "ModuleInfo":
        if logical is None:
            logical = logical_parts(path)
        tree = ast.parse(source, filename=str(path))
        comments = scan_allow_comments(source)
        return cls(path=path, logical=logical, source=source, tree=tree,
                   suppressions=_suppression_table(comments),
                   allow_comments=comments)


def logical_parts(path: Path) -> Tuple[str, ...]:
    """Best-effort logical location: the path parts below a ``repro`` dir."""
    parts = [p for p in path.parts]
    stem = list(parts[:-1]) + [Path(parts[-1]).stem]
    for index in range(len(stem) - 1, -1, -1):
        if stem[index] == "repro":
            return tuple(stem[index + 1:])
    return (stem[-1],)
