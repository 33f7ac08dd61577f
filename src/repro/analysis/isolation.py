"""Shared-nothing isolation: processes only meet through XRLs.

    "This multi-process design limits the coupling between components;
    misbehaving code, such as an experimental routing protocol, cannot
    directly corrupt the memory of another process."  (paper §4)

In the C++ original that isolation was physical — separate address
spaces.  Here it is a discipline, and this checker is what enforces it:
a module inside one process package (``bgp``, ``rib``, ``fea``, ...)
must not import another process package (ISO001); everything crosses the
boundary through ``repro.xrl`` / ``repro.interfaces``.  Shared library
packages (``net``, ``core``, ``policy``, ...) are loaded into every
process, so they must not reach into any process package either
(ISO002) — that would smuggle one process's internals into all of them.

The composition harnesses (``experiments``, ``simnet``) assemble whole
multi-process routers by design — the analogue of XORP's test scripts —
and are exempt.  The Router Manager imports no process package: its
in-process launcher loads a module's package *by name* when the module is
first started (``rtrmgr/launcher.py``, the composition root — the same
``repro.<package>`` its process launcher hands to ``python -m``), and the
manager reaches what it started through XRLs only.  ``rtrmgr/cli.py``'s
``show`` commands are the package's one reader of module objects, and
say so.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ModuleInfo, ProjectIndex

#: packages that model one OS process each (paper §4's functional units)
PROCESS_PACKAGES = frozenset({
    "bgp", "rib", "fea", "rip", "ospf", "pim", "mld6igmp",
    "staticroutes", "rtrmgr",
})

#: multi-process composition harnesses, exempt by design
HARNESS_PACKAGES = frozenset({"experiments", "simnet"})


class IsolationChecker(Checker):
    name = "isolation"
    rules = ("ISO001", "ISO002")

    def check(self, module: ModuleInfo, project: ProjectIndex
              ) -> Iterator[Finding]:
        own = module.package
        if own in HARNESS_PACKAGES:
            return
        path = str(module.path)
        for node in ast.walk(module.tree):
            for target_pkg, line in _repro_imports(node):
                if target_pkg not in PROCESS_PACKAGES or target_pkg == own:
                    continue
                if own in PROCESS_PACKAGES:
                    yield Finding(
                        path, line, "ISO001",
                        f"process package {own!r} imports process package "
                        f"{target_pkg!r}; cross-process interaction must go "
                        "through repro.xrl / repro.interfaces")
                else:
                    yield Finding(
                        path, line, "ISO002",
                        f"shared package {own or module.logical[0]!r} imports "
                        f"process package {target_pkg!r}; shared code is "
                        "loaded into every process and must stay "
                        "process-agnostic")


def _repro_imports(node: ast.AST) -> Iterator[tuple]:
    """Yield ``(top_package_under_repro, line)`` for import statements."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno
    elif isinstance(node, ast.ImportFrom):
        if node.module and node.level == 0:
            parts = node.module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno
    elif (isinstance(node, ast.Call)
          and ((isinstance(node.func, ast.Attribute)
                and node.func.attr == "import_module")
               or (isinstance(node.func, ast.Name)
                   and node.func.id == "import_module"))
          and node.args
          and isinstance(node.args[0], ast.Constant)
          and isinstance(node.args[0].value, str)):
        parts = node.args[0].value.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            yield parts[1], node.lineno
