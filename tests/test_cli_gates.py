"""Exit-code gates for the two analysis/verification CLIs.

Each CLI is a CI tripwire: exit 0 on a healthy tree, nonzero when the
tree is broken in a way its checks must catch.  These tests run the
real entry points (``python -m repro.analysis`` / ``repro.obs``) via
subprocess against (a) the pristine source tree and (b) a copy with a
seeded defect, asserting the exit codes — so a CLI that starts
swallowing findings, or crashing before it reports, fails here rather
than silently greenlighting CI.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def copy_tree(tmp_path: Path) -> Path:
    """Copy src/repro to a tmp dir (keeping the 'repro' path anchor)."""
    dest = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_cli(module, *argv, pythonpath=None):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(pythonpath if pythonpath is not None
                               else REPO_ROOT / "src"),
             "PATH": "/usr/bin"},
    )


class TestAnalysisCli:
    def test_clean_tree_exits_zero(self, analysis_cli_runs):
        for result in analysis_cli_runs:
            assert result.returncode == 0, result.stdout + result.stderr

    def test_seeded_defect_exits_nonzero(self, tmp_path):
        tree = copy_tree(tmp_path)
        bad = tree / "core" / "napping.py"
        bad.write_text("import time\ntime.sleep(1.0)\n")
        result = run_cli("repro.analysis", str(tree))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "DET002" in result.stdout

    def test_deleted_bind_exits_nonzero(self, tmp_path):
        tree = copy_tree(tmp_path)
        rib = tree / "rib" / "rib.py"
        text = rib.read_text()
        rib.write_text("\n".join(
            line for line in text.splitlines()
            if "self.xrl.bind(RIB_IDL, self)" not in line) + "\n")
        result = run_cli("repro.analysis", str(tree))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "PRO001" in result.stdout

    def test_graph_out_is_byte_stable(self, analysis_cli_runs):
        first, second = (run.graph for run in analysis_cli_runs)
        dot = analysis_cli_runs[0].graph_dot
        assert first.read_bytes() == second.read_bytes()
        graph = json.loads(first.read_text())
        assert graph["schema"] == "repro.protograph/1"
        assert graph["edges"], "the shipped tree must have XRL edges"
        stream = [edge for edge in graph["edges"]
                  if (edge["from"], edge["to"]) == ("bgp", "rib")]
        assert any({"add_routes4", "delete_routes4"} <= set(e["methods"])
                   for e in stream)
        assert dot.read_text().startswith("digraph")

    def test_json_format_reports_timing(self, analysis_cli_runs):
        result = analysis_cli_runs[1]
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        timing = payload["timing"]
        assert timing["files"] > 0
        assert timing["parsed"] + timing["parse_cached"] == timing["files"]
        assert timing["parse_seconds"] >= 0.0
        assert timing["check_seconds"] >= 0.0


class TestObsCli:
    def test_clean_tree_exits_zero(self):
        result = run_cli("repro.obs", "--routes", "2")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "route(s) traced" in result.stderr

    def test_json_is_byte_stable(self):
        first = run_cli("repro.obs", "--routes", "2", "--json")
        second = run_cli("repro.obs", "--routes", "2", "--json")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # and it is actual JSON

    def test_seeded_defect_exits_nonzero(self, tmp_path):
        """Sever the FEA's FIB insertion: traced routes then never produce
        a fib span (OBS001) and fea.fib4.routes stays zero (OBS002)."""
        tree = copy_tree(tmp_path)
        driver = tree / "fea" / "driver.py"
        text = driver.read_text()
        assert text.count("].insert(entry)") == 1
        text = text.replace("].insert(entry)", "].exact(entry.net)")
        driver.write_text(text)
        result = run_cli("repro.obs", "--routes", "2",
                         pythonpath=tmp_path)
        assert result.returncode != 0, result.stdout + result.stderr
        assert "OBS001" in result.stdout
        assert "OBS002" in result.stdout
