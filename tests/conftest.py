"""Shared fixtures: opt-in runtime sanitizers for integration tests, and
one analysed copy of ``src/repro`` for the analysers' tests of themselves.

``runtime_sanitizers`` arms the stage-graph consistency sanitizer and
the XRL dispatch sanitizer (see :mod:`repro.sanitizer`) around a test
and asserts at teardown that the run produced **zero** violations — the
dynamic analogue of the clean-tree gate in ``test_analysis.py``.  Tests
opt in with ``pytest.mark.usefixtures("runtime_sanitizers")`` (or a
module-level ``pytestmark``); everything else runs uninstrumented.
"""

import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import analyze_paths
from repro.eventloop import collector
from repro.sanitizer import RuntimeSanitizer
from repro.xrl import XrlRouter

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture(autouse=True)
def routers_shut_down(monkeypatch):
    """Every ``XrlRouter`` a test builds is shut down when the test ends,
    and the full collection goes back to CPython.

    Full collections are minutes apart under a large table
    (``repro.eventloop.collector``), so a listener or channel that only
    the collector closes is a leaked descriptor.  With every router shut
    down here, ``-W error::ResourceWarning`` has one meaning: some code
    path dropped a socket without closing it.
    """
    built = []  # weakly: a test may be about a router going away
    construct = XrlRouter.__init__

    def tracked(self, *args, **kwargs):
        built.append(weakref.ref(self))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(XrlRouter, "__init__", tracked)
    yield
    for ref in reversed(built):
        router = ref()
        if router is not None:
            router.shutdown()
    # A test that has ended turns no loop any more.  Most never call
    # ``Host.shutdown()``, the signal a program gives; without it the
    # next loop-less test (hypothesis, the analysers) would allocate
    # with nobody running the full collection.
    collector.hand_back()


@pytest.fixture
def runtime_sanitizers():
    sanitizer = RuntimeSanitizer()
    sanitizer.arm()
    try:
        yield sanitizer
    finally:
        sanitizer.disarm()
    rendered = "\n".join(v.render() for v in sanitizer.violations)
    assert not sanitizer.violations, (
        f"runtime sanitizer violations:\n{rendered}")


@pytest.fixture(scope="session")
def analysis_tree(tmp_path_factory):
    """A copy of ``src/repro`` (keeping the 'repro' path anchor), parsed
    and checked once: the analyser's caches are keyed by path, so every
    test that analyses this one copy re-does only what it changed."""
    tree = tmp_path_factory.mktemp("analysis") / "repro"
    shutil.copytree(SRC_REPRO, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    analyze_paths([tree])
    return tree


@pytest.fixture
def mutable_tree(analysis_tree):
    """The shared copy, for a test that seeds a defect into it.  Whatever
    the test wrote is put back afterwards, modification time included, so
    the cached parse of every file it left alone still matches."""
    before = {path: path.stat() for path in analysis_tree.rglob("*.py")}
    yield analysis_tree
    for path in analysis_tree.rglob("*.py"):
        was, now = before.get(path), path.stat()
        if was is None:
            path.unlink()
        elif (was.st_mtime_ns, was.st_size) != (now.st_mtime_ns, now.st_size):
            original = SRC_REPRO / path.relative_to(analysis_tree)
            path.write_bytes(original.read_bytes())
            os.utime(path, ns=(was.st_atime_ns, was.st_mtime_ns))


@pytest.fixture(scope="session")
def analysis_cli_runs(tmp_path_factory):
    """``python -m repro.analysis src/repro`` on the pristine tree, twice,
    every report written: run 0 prints text, run 1 json.  Each clean-tree
    CLI assertion reads these two runs."""
    out = tmp_path_factory.mktemp("analysis-cli")
    runs = []
    for index, fmt in enumerate(("text", "json")):
        files = {name: out / f"{name}{index}" for name in
                 ("graph", "graph_dot")}
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC_REPRO),
             "--format", fmt,
             "--graph-out", str(files["graph"]),
             "--graph-dot", str(files["graph_dot"])],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
        runs.append(SimpleNamespace(returncode=result.returncode,
                                    stdout=result.stdout,
                                    stderr=result.stderr, **files))
    return runs
