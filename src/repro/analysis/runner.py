"""Drive the rules over a source tree and collect findings.

:func:`check_tree` is what both entry points use — the ``python -m
repro.analysis`` CLI, and through :func:`analyze_paths` the pytest gate
in ``tests/test_analysis.py``.
Suppressions (``# repro: allow[RULE] reason``) are applied here, after
all rules ran, so a rule never needs to know about them; unknown rule
ids inside a suppression are themselves reported (SUP001) so typos
cannot silently disable enforcement, and suppressions that suppressed
nothing are reported (SUP002) so stale allows cannot rot silently.

There is one cache: the parsed :class:`ModuleInfo` per file, memoised
across runs keyed on ``(mtime_ns, size)``, which carries what the one
walk of the module found (:mod:`repro.analysis.sites`).  Every rule is
re-evaluated on every run — a verdict may depend on another file (a
handler inherited from a base class, a bind in another package), so
none is kept — and a ``rules`` selection only filters what is reported.
The wall time spent parsing vs checking is recorded into the *stats*
dict the CLI surfaces under ``--format json``.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, ModuleInfo, RULES
from repro.analysis.protograph import (
    ProtocolGraph,
    build_protocol_graph,
    check_protocol_graph,
)
from repro.analysis.rules import (
    check_backends,
    check_callbacks,
    check_determinism,
    check_isolation,
    check_stage_messages,
)
from repro.analysis.sites import ProjectIndex, sites_of
from repro.analysis.xrlcheck import check_xrl

#: path -> ((mtime_ns, size), ModuleInfo): the single-parse AST cache.
_MODULE_CACHE: Dict[str, Tuple[Tuple[int, int], ModuleInfo]] = {}

#: every per-module rule family: ``check(module, sites, project)``
CHECKS = (check_xrl, check_isolation, check_determinism, check_callbacks,
          check_stage_messages, check_backends)


def clear_module_cache() -> None:
    _MODULE_CACHE.clear()


def collect_modules(paths: Sequence[Path],
                    stats: Optional[dict] = None) -> Tuple[List[ModuleInfo],
                                                           List[Finding]]:
    """Load every ``.py`` file under *paths*; syntax errors become findings.

    Each file is parsed at most once per process: re-runs (a second CLI
    invocation in one process, every pytest gate after the first) reuse
    the cached :class:`ModuleInfo` unless the file changed on disk.
    """
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    parsed = cached = 0
    parse_seconds = 0.0
    for file_path in files:
        key = str(file_path)
        try:
            stat = file_path.stat()
            signature: Optional[Tuple[int, int]] = (stat.st_mtime_ns,
                                                    stat.st_size)
        except OSError:
            signature = None
        entry = _MODULE_CACHE.get(key)
        if signature is not None and entry is not None \
                and entry[0] == signature:
            modules.append(entry[1])
            cached += 1
            continue
        source = file_path.read_text(encoding="utf-8")
        started = time.perf_counter()  # repro: allow[DET001] tooling timing
        try:
            module = ModuleInfo.from_source(source, file_path)
        except SyntaxError as exc:
            errors.append(Finding(str(file_path), exc.lineno or 1, "GEN001",
                                  f"syntax error: {exc.msg}"))
            continue
        finally:
            parse_seconds += time.perf_counter() - started  # repro: allow[DET001] tooling timing
        parsed += 1
        modules.append(module)
        if signature is not None:
            _MODULE_CACHE[key] = (signature, module)
    if stats is not None:
        stats["files"] = stats.get("files", 0) + len(files)
        stats["parsed"] = stats.get("parsed", 0) + parsed
        stats["parse_cached"] = stats.get("parse_cached", 0) + cached
        stats["parse_seconds"] = stats.get("parse_seconds", 0.0) \
            + parse_seconds
    return modules, errors


def run_checkers(modules: Sequence[ModuleInfo],
                 rules: Optional[Iterable[str]] = None,
                 graph: Optional[ProtocolGraph] = None,
                 ) -> List[Finding]:
    """Run every rule over prepared modules; apply suppressions.

    With a *graph* of the same modules the whole-system PRO rules run
    over it too.  *rules* selects which rule ids are reported.
    """
    project = ProjectIndex(modules)
    findings: List[Finding] = []
    module_by_path = {str(m.path): m for m in modules}
    for module in modules:
        sites = sites_of(module)
        for check in CHECKS:
            findings.extend(check(module, sites, project))
    if graph is not None:
        findings.extend(check_protocol_graph(graph))
    kept: List[Finding] = []
    used_suppressions: set = set()
    for finding in findings:
        module = module_by_path.get(finding.path)
        if module is not None and module.suppressed(finding.line, finding.rule):
            used_suppressions.add((finding.path, finding.line, finding.rule))
            continue
        kept.append(finding)
    for module in modules:
        for line, rule_ids in sorted(module.suppressions.items()):
            for rule_id in sorted(rule_ids):
                if rule_id not in RULES:
                    kept.append(Finding(
                        str(module.path), line, "SUP001",
                        f"suppression names unknown rule {rule_id!r}"))
    for module in modules:
        path = str(module.path)
        for comment in module.allow_comments:
            for rule_id in comment.rules:
                if rule_id not in RULES:
                    continue           # SUP001 already reported it
                if any((path, line, rule_id) in used_suppressions
                       for line in comment.covers):
                    continue
                kept.append(Finding(
                    path, comment.line, "SUP002",
                    f"allow[{rule_id}] suppresses nothing here — "
                    f"remove the stale suppression"))
    # SUP001/SUP002 appear once per distinct comment even when a line is
    # covered twice (own line + comment-above), hence the dedup.
    kept = list(dict.fromkeys(kept))
    if rules is not None:
        wanted = set(rules)
        kept = [finding for finding in kept if finding.rule in wanted]
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def check_tree(paths: Sequence[Path], rules: Optional[Iterable[str]] = None,
               stats: Optional[dict] = None
               ) -> Tuple[List[Finding], ProtocolGraph]:
    """Full run: load sources under *paths*, check, suppress, sort; the
    findings and the protocol graph the PRO rules ran over.

    Whole-tree runs include the interprocedural protocol-graph pass
    (PRO rules); :func:`analyze_source` does not, because a lone fixture
    snippet is not a closed system.  The cyclic collector is paused for
    the run: a tree's ASTs are a hundred thousand fresh objects and no
    cycle, and collecting while they are built about doubles the parse.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        modules, errors = collect_modules(paths, stats=stats)
        started = time.perf_counter()  # repro: allow[DET001] tooling timing
        graph = build_protocol_graph(modules)
        findings = errors + run_checkers(modules, rules=rules, graph=graph)
    finally:
        if collecting:
            gc.enable()
    if stats is not None:
        stats["check_seconds"] = stats.get("check_seconds", 0.0) \
            + (time.perf_counter() - started)  # repro: allow[DET001] tooling timing
    return findings, graph


def analyze_paths(paths: Sequence[Path],
                  rules: Optional[Iterable[str]] = None,
                  stats: Optional[dict] = None) -> List[Finding]:
    """The findings of :func:`check_tree`."""
    return check_tree(paths, rules, stats)[0]


def analyze_source(source: str, *, logical: Tuple[str, ...],
                   path: str = "<fixture>",
                   rules: Optional[Iterable[str]] = None) -> List[Finding]:
    """Check one in-memory snippet (the test-fixture entry point)."""
    module = ModuleInfo.from_source(source, Path(path), logical=logical)
    return run_checkers([module], rules=rules)


def analyze_sources(sources: Dict[str, str],
                    rules: Optional[Iterable[str]] = None) -> List[Finding]:
    """Check a dict of ``{"pkg/mod.py": source}`` as one closed system.

    Unlike :func:`analyze_source` this runs the protocol-graph pass too,
    so tests can exercise PRO rules on small multi-module fixtures.
    """
    modules = [
        ModuleInfo.from_source(source, Path(f"repro/{relpath}"))
        for relpath, source in sorted(sources.items())
    ]
    return run_checkers(modules, rules=rules,
                        graph=build_protocol_graph(modules))
