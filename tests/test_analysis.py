"""Tests for the architectural lint suite (:mod:`repro.analysis`).

Five layers:

* fixture snippets — one known-good and one known-bad case per checker,
  run through :func:`analyze_source` (per-module rules) or
  :func:`analyze_sources` (multi-module protocol-graph rules), and what
  the walk makes of sender declarations and calls;
* mutation tests mirroring the acceptance criteria — an inserted
  ``time.sleep()``, a deleted ``bind()``, a synchronous back-call, and a
  renamed reply atom against copies of the *real* source tree must each
  be caught by exactly its intended rule;
* the rule × seeded-mutation matrix — one seed of the shipped tree per
  rule, and the checks that catch the seeds of deleted rules: a
  misspelt XRL method or argument fails the import of its module;
* the protocol graph itself — byte-stable export, correct edges;
* the CI gate — the shipped ``src/repro`` tree has no findings at all,
  and a whole-tree run walks each module once.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_paths,
    analyze_source,
    analyze_sources,
    build_protocol_graph,
    collect_modules,
)
from repro.analysis.core import RULES, ModuleInfo, scan_suppressions
from repro.analysis.runner import clear_module_cache
from repro.analysis.sites import sites_of
from repro.core.process import Host
from repro.rib.rib import RibProcess
from repro.xrl import IdlError

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# XRL conformance
# ---------------------------------------------------------------------------

class TestXrlConformance:
    def test_good_send_site_clean(self):
        source = (
            "from repro.interfaces import RIB_IDL\n"
            "_ADD_IGP_TABLE4 = RIB_IDL.sender('add_igp_table4', 'protocol')\n"
            "def go(router):\n"
            "    router.send(_ADD_IGP_TABLE4('rib', 'rip'))\n"
        )
        assert analyze_source(source, logical=("rip", "process.py")) == []

    def test_unknown_interface_xrl001(self):
        source = (
            "from repro.xrl.call_xrl import call_xrl\n"
            "def go(router):\n"
            "    call_xrl(router, 'finder://rib/ribx/1.0/add_igp_table4"
            "?protocol:txt=rip')\n"
        )
        findings = analyze_source(source, logical=("rtrmgr", "template.py"))
        assert rules_of(findings) == ["XRL001"]
        assert findings[0].line == 3
        assert "ribx" in findings[0].message

    def test_unknown_method_xrl002(self):
        source = (
            "from repro.xrl.call_xrl import call_xrl\n"
            "def go(router):\n"
            "    call_xrl(router, 'finder://rib/rib/1.0/add_igp_table9"
            "?protocol:txt=rip')\n"
        )
        findings = analyze_source(source, logical=("rtrmgr", "template.py"))
        assert rules_of(findings) == ["XRL002"]
        assert "add_igp_table9" in findings[0].message

    def test_bound_handlers_complete_clean(self):
        source = (
            "from repro.interfaces import COMMON_IDL\n"
            "class P:\n"
            "    def __init__(self, xrl):\n"
            "        xrl.bind(COMMON_IDL, self)\n"
            "    def xrl_get_target_name(self):\n"
            "        return 'p'\n"
            "    def xrl_get_version(self):\n"
            "        return '1'\n"
            "    def xrl_get_status(self):\n"
            "        return 'READY'\n"
            "    def xrl_shutdown(self):\n"
            "        pass\n"
        )
        assert analyze_source(source, logical=("rip", "process.py")) == []

    def test_handler_signature_xrl005(self):
        source = (
            "from repro.interfaces import COMMON_IDL\n"
            "class P:\n"
            "    def __init__(self, xrl):\n"
            "        xrl.bind(COMMON_IDL, self)\n"
            "    def xrl_get_target_name(self, which):\n"
            "        return 'p'\n"
            "    def xrl_get_version(self):\n"
            "        return '1'\n"
            "    def xrl_get_status(self):\n"
            "        return 'READY'\n"
            "    def xrl_shutdown(self):\n"
            "        pass\n"
        )
        findings = analyze_source(source, logical=("rip", "process.py"))
        assert rules_of(findings) == ["XRL005"]
        assert "get_target_name" in findings[0].message

    def test_textual_xrl006(self):
        source = (
            "from repro.xrl.call_xrl import call_xrl\n"
            "def go(router):\n"
            "    call_xrl(router, 'not an xrl at all')\n"
        )
        findings = analyze_source(source, logical=("rtrmgr", "template.py"))
        assert rules_of(findings) == ["XRL006"]

    def test_textual_good_clean(self):
        source = (
            "from repro.xrl.call_xrl import call_xrl\n"
            "def go(router):\n"
            "    call_xrl(router, 'finder://rib/rib/1.0/add_igp_table4"
            "?protocol:txt=rip')\n"
        )
        assert analyze_source(source, logical=("rtrmgr", "template.py")) == []

    def test_aliased_bind_still_checked(self):
        # `register = xrl.bind; register(...)` is the same registration —
        # one level of local aliasing must not hide a handler's signature.
        source = (
            "from repro.interfaces import COMMON_IDL\n"
            "class P:\n"
            "    def __init__(self, xrl):\n"
            "        register = xrl.bind\n"
            "        register(COMMON_IDL, self)\n"
            "    def xrl_get_target_name(self):\n"
            "        return 'p'\n"
            "    def xrl_get_version(self):\n"
            "        return '1'\n"
            "    def xrl_get_status(self):\n"
            "        return 'READY'\n"
            "    def xrl_shutdown(self, now):\n"
            "        pass\n"
        )
        findings = analyze_source(source, logical=("rip", "process.py"))
        assert rules_of(findings) == ["XRL005"]
        assert "shutdown" in findings[0].message


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

class TestSendSites:
    """What the walk makes of senders: their declarations and calls."""

    DECLARED = (
        "from repro.interfaces import RIB_IDL\n"
        "_ADD = RIB_IDL.sender('add_route4', 'protocol', 'net', 'nexthop',"
        " 'metric', 'policytags')\n"
        "_REPLACE = RIB_IDL.sender('replace_route4', 'protocol', 'net',"
        " 'nexthop', 'metric', 'policytags')\n"
    )

    def sends(self, body):
        return sites_of(ModuleInfo.from_source(
            self.DECLARED + body, Path("rip/process.py"),
            logical=("rip", "process")))

    def test_a_call_is_a_site_of_its_declaration(self):
        sites = self.sends(
            "def go(router, net, nexthop):\n"
            "    router.send(_ADD('rib', 'rip', net, nexthop, 1, []))\n")
        site, unsent = sites.sends
        assert unsent.methods == ("replace_route4",) and not unsent.sent
        assert (site.interface, site.methods, site.target, site.line,
                site.via, site.sent) == ("rib/1.0", ("add_route4",), "rib",
                                         5, "sender", True)

    def test_a_sender_picked_at_run_time_sends_each_method(self):
        sites = self.sends(
            "def go(router, new, net, nexthop):\n"
            "    xrl = (_ADD if new else _REPLACE)('rib', 'rip', net,"
            " nexthop, 1, [])\n"
            "    error, reply = router.send_sync(xrl)\n"
            "    return reply.get_u32('metric')\n")
        assert sorted((s.methods, s.sync, tuple(s.reads))
                      for s in sites.sends) == [
            (("add_route4",), True, (("metric", "u32"),)),
            (("replace_route4",), True, (("metric", "u32"),))]

    def test_a_declaration_no_call_resolves_is_an_unsent_site(self):
        sites = self.sends(
            "def go(router, net, nexthop):\n"
            "    router.send([_ADD][0]('rib', 'rip', net, nexthop, 1, []))\n")
        assert sorted((s.methods, s.line, s.via, s.sent)
                      for s in sites.sends) == [
            (("add_route4",), 2, "declaration", False),
            (("replace_route4",), 3, "declaration", False)]

    def test_an_xrl_built_by_hand_is_dynamic(self):
        sites = self.sends(
            "from repro.xrl.xrl import Xrl\n"
            "def go(router):\n"
            "    router.send(Xrl('rib', 'rib', '1.0', 'add_igp_table4'))\n")
        assert [d.site for d in sites.dynamic] == ["rip/process.py:6"]

    def test_a_sender_of_a_method_named_at_run_time_is_dynamic(self):
        sites = self.sends("SEND = RIB_IDL.sender(METHOD)\n")
        assert [d.site for d in sites.dynamic] == ["rip/process.py:4"]


class TestIsolation:
    def test_process_importing_sibling_iso001(self):
        source = "from repro.rib.rib import RibProcess\n"
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["ISO001"]
        assert findings[0].line == 1

    def test_own_package_and_shared_clean(self):
        source = (
            "from repro.bgp.route import BGPRoute\n"
            "from repro.core.process import XorpProcess\n"
            "from repro.interfaces import BGP_IDL\n"
            "from repro.xrl import XrlArgs\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_shared_importing_process_iso002(self):
        source = "from repro.bgp.route import BGPRoute\n"
        findings = analyze_source(source, logical=("policy", "varrw.py"))
        assert rules_of(findings) == ["ISO002"]

    def test_dynamic_import_module_caught(self):
        source = (
            "from importlib import import_module\n"
            "def load():\n"
            "    return import_module('repro.ospf.process')\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["ISO001"]

    def test_harness_packages_exempt(self):
        source = (
            "from repro.bgp.process import BgpProcess\n"
            "from repro.rib.rib import RibProcess\n"
        )
        assert analyze_source(source, logical=("experiments", "x.py")) == []


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_wall_clock_det001(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["DET001"]
        assert findings[0].line == 3

    def test_blocking_sleep_det002(self):
        source = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(1.0)\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["DET002"]

    def test_unseeded_random_det003(self):
        source = (
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        findings = analyze_source(source, logical=("rip", "process.py"))
        assert rules_of(findings) == ["DET003"]

    def test_seeded_random_clean(self):
        source = (
            "import random\n"
            "def jitter(seed):\n"
            "    return random.Random(seed).random()\n"
        )
        assert analyze_source(source, logical=("rip", "process.py")) == []

    def test_blocking_socket_det004(self):
        source = (
            "import socket\n"
            "def connect():\n"
            "    return socket.create_connection(('h', 1))\n"
        )
        findings = analyze_source(source, logical=("fea", "fea.py"))
        assert rules_of(findings) == ["DET004"]

    def test_eventloop_package_exempt(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        assert analyze_source(source, logical=("eventloop", "clock.py")) == []

    def test_zero_delay_timer_det005(self):
        source = (
            "def sequence(self):\n"
            "    self.loop.call_later(0, self.second_half)\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["DET005"]

    def test_zero_delay_float_schedule_after_det005(self):
        source = (
            "def sequence(self):\n"
            "    self.timers.schedule_after(0.0, self.second_half)\n"
        )
        findings = analyze_source(source, logical=("rib", "rib.py"))
        assert rules_of(findings) == ["DET005"]

    def test_nonzero_delay_clean(self):
        source = (
            "def sequence(self):\n"
            "    self.loop.call_later(0.5, self.second_half)\n"
            "    self.loop.call_soon(self.other_half)\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_det005_suppressible(self):
        source = (
            "def kick(self):\n"
            "    # repro: allow[DET005] order among kicks is immaterial\n"
            "    self.loop.call_later(0, self.poll)\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_transport_package_exempt(self):
        source = (
            "import socket\n"
            "def make():\n"
            "    return socket.socket()\n"
        )
        assert analyze_source(
            source, logical=("xrl", "transport", "tcp.py")) == []


# ---------------------------------------------------------------------------
# Callback safety
# ---------------------------------------------------------------------------

class TestCallbackSafety:
    def test_unguarded_deferred_lambda_cb001(self):
        source = (
            "class P:\n"
            "    def start(self):\n"
            "        self.loop.call_soon(lambda: self.items.clear())\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["CB001"]
        assert findings[0].line == 3

    def test_guarded_method_clean(self):
        source = (
            "class P:\n"
            "    def start(self):\n"
            "        self.loop.call_soon(self._tick)\n"
            "    def _tick(self):\n"
            "        if not self.running:\n"
            "            return\n"
            "        self.items.clear()\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_call_later_checked_too(self):
        source = (
            "class P:\n"
            "    def start(self):\n"
            "        self.loop.call_later(1.0, lambda: self.items.clear())\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["CB001"]

    def test_stateless_callback_clean(self):
        source = (
            "class P:\n"
            "    def start(self, done):\n"
            "        self.loop.call_soon(lambda: done(1))\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []


# ---------------------------------------------------------------------------
# Stage message API (keyword-only caller)
# ---------------------------------------------------------------------------

class TestStageMessageChecker:
    def test_positional_caller_call_stg001(self):
        source = (
            "def go(stage, routes, origin):\n"
            "    stage.delete_routes(routes, origin)\n"
        )
        findings = analyze_source(source, logical=("rib", "rib.py"))
        assert rules_of(findings) == ["STG001"]
        assert findings[0].line == 2
        assert "keyword" in findings[0].message

    def test_positional_caller_replace_stg001(self):
        source = (
            "def go(stage, old, new, origin):\n"
            "    stage.replace_route(old, new, origin)\n"
        )
        findings = analyze_source(source, logical=("rib", "rib.py"))
        assert rules_of(findings) == ["STG001"]

    def test_positional_caller_batch_call_stg001(self):
        source = (
            "def go(stage, routes, origin):\n"
            "    stage.add_routes(routes, origin)\n"
        )
        findings = analyze_source(source, logical=("rib", "rib.py"))
        assert rules_of(findings) == ["STG001"]

    def test_keyword_caller_clean(self):
        source = (
            "def go(stage, route, routes, origin):\n"
            "    stage.add_routes(routes, caller=origin)\n"
            "    stage.delete_routes(routes, caller=origin)\n"
            "    stage.replace_route(route, route, caller=origin)\n"
            "    stage.lookup_route(route, caller=origin)\n"
        )
        assert analyze_source(source, logical=("rib", "rib.py")) == []

    def test_positional_caller_def_stg001(self):
        source = (
            "class S:\n"
            "    def add_routes(self, routes, caller=None):\n"
            "        pass\n"
        )
        findings = analyze_source(source, logical=("rib", "rib.py"))
        assert rules_of(findings) == ["STG001"]
        assert findings[0].line == 2
        assert "keyword-only" in findings[0].message

    def test_keyword_only_caller_def_clean(self):
        source = (
            "class S:\n"
            "    def delete_routes(self, routes, *, caller=None):\n"
            "        pass\n"
        )
        assert analyze_source(source, logical=("rib", "rib.py")) == []


# ---------------------------------------------------------------------------
# Backend construction discipline
# ---------------------------------------------------------------------------

class TestBackendDiscipline:
    def test_direct_backend_construction_bkd001(self):
        source = (
            "from repro.fea.backends import NetlinkFibBackend\n"
            "def build():\n"
            "    return NetlinkFibBackend(queue_capacity=16)\n"
        )
        findings = analyze_source(source, logical=("fea", "fea.py"))
        assert rules_of(findings) == ["BKD001"]
        assert findings[0].line == 3
        assert "make_backend" in findings[0].message

    def test_make_backend_clean(self):
        source = (
            "from repro.fea.backends import make_backend\n"
            "def build(name, options):\n"
            "    return make_backend(name, **options)\n"
        )
        assert analyze_source(source, logical=("fea", "fea.py")) == []

    def test_local_fibbackend_subclass_caught(self):
        # A subclass defined outside backends/ is still a backend: its
        # construction must go through the registry too.
        source = (
            "from repro.fea.backends.base import FibBackend\n"
            "class SneakyBackend(FibBackend):\n"
            "    pass\n"
            "def build():\n"
            "    return SneakyBackend()\n"
        )
        findings = analyze_source(source, logical=("fea", "fea.py"))
        assert rules_of(findings) == ["BKD001"]
        assert findings[0].line == 5

    def test_backends_package_itself_exempt(self):
        source = (
            "class TrieFibBackend:\n"
            "    pass\n"
            "BACKENDS = {'trie': TrieFibBackend}\n"
            "def make_backend(name):\n"
            "    return BACKENDS[name]()\n"
            "probe = TrieFibBackend()\n"
        )
        assert analyze_source(
            source, logical=("fea", "backends", "__init__.py")) == []

    def test_other_packages_out_of_scope(self):
        # The rule scopes to the FEA: harnesses and tests build concrete
        # backends on purpose.
        source = (
            "from repro.fea.backends import TrieFibBackend\n"
            "probe = TrieFibBackend()\n"
        )
        assert analyze_source(
            source, logical=("experiments", "resilience.py")) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_trailing_allow_silences(self):
        source = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(1.0)  # repro: allow[DET002] test fixture\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_comment_line_covers_next_line(self):
        source = (
            "import time\n"
            "def wait():\n"
            "    # repro: allow[DET002] test fixture\n"
            "    time.sleep(1.0)\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_allow_is_rule_specific(self):
        # The wrong-rule allow[] leaves DET002 standing AND is itself
        # flagged as a rotted suppression (SUP002).
        source = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(1.0)  # repro: allow[DET001] wrong rule\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["DET002", "SUP002"]

    def test_unused_allow_sup002(self):
        source = (
            "def quiet():\n"
            "    return 1  # repro: allow[DET002] nothing sleeps here\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"))
        assert rules_of(findings) == ["SUP002"]
        assert findings[0].line == 2
        assert "DET002" in findings[0].message

    def test_used_allow_is_not_sup002(self):
        source = (
            "import time\n"
            "def wait():\n"
            "    time.sleep(1.0)  # repro: allow[DET002] test fixture\n"
        )
        assert analyze_source(source, logical=("bgp", "process.py")) == []

    def test_sup002_silent_under_rule_filter(self):
        # Under --rule the discarded findings would make every other
        # allow[] look unused, so SUP002 only runs on full-rule passes.
        source = (
            "def quiet():\n"
            "    return 1  # repro: allow[DET002] nothing sleeps here\n"
        )
        findings = analyze_source(source, logical=("bgp", "process.py"),
                                  rules=["DET001"])
        assert findings == []

    def test_unknown_rule_sup001(self):
        source = "x = 1  # repro: allow[BOGUS9]\n"
        findings = analyze_source(source, logical=("core", "x.py"))
        assert rules_of(findings) == ["SUP001"]
        assert "BOGUS9" in findings[0].message

    def test_docstrings_do_not_suppress(self):
        source = '"""Docs mention # repro: allow[DET002] syntax."""\n'
        assert scan_suppressions(source) == {}

    def test_syntax_error_gen001(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def (:\n")
        findings = analyze_paths([bad.parent])
        assert rules_of(findings) == ["GEN001"]


# ---------------------------------------------------------------------------
# The CI gate and the acceptance-criteria mutations
# ---------------------------------------------------------------------------

class TestTreeGate:
    def test_shipped_tree_has_no_errors(self, analysis_tree):
        findings = analyze_paths([analysis_tree])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exits_zero_on_clean_tree(self, analysis_cli_runs):
        result = analysis_cli_runs[0]
        assert result.returncode == 0, result.stdout + result.stderr

    def test_inserted_sleep_one_finding(self, mutable_tree):
        tree = mutable_tree
        bgp = tree / "bgp" / "process.py"
        lines = bgp.read_text().splitlines(keepends=True)
        anchor = next(i for i, l in enumerate(lines)
                      if "self.xrl.bind(BGP_IDL, self)" in l)
        lines.insert(anchor, "        import time; time.sleep(0.1)\n")
        bgp.write_text("".join(lines))
        errors = analyze_paths([tree])
        assert len(errors) == 1
        finding = errors[0]
        assert finding.rule == "DET002"
        assert finding.path.endswith("bgp/process.py")
        assert finding.line == anchor + 1

    def test_handler_changed_in_base_class_in_another_file(self, mutable_tree):
        # A bind's verdict depends on every file its class inherits from:
        # editing only the base must change it, without clearing any cache.
        tree = mutable_tree
        base = tree / "rip" / "base.py"
        handlers = (
            "class Base:\n"
            "    def xrl_get_target_name(self):\n"
            "        return 'p'\n"
            "    def xrl_get_version(self):\n"
            "        return '1'\n"
            "    def xrl_get_status(self):\n"
            "        return 'READY'\n"
        )
        base.write_text(handlers + "    def xrl_shutdown(self):\n"
                                   "        pass\n")
        (tree / "rip" / "bound.py").write_text(
            "from repro.interfaces import COMMON_IDL\n"
            "from repro.rip.base import Base\n"
            "class P(Base):\n"
            "    def __init__(self, xrl):\n"
            "        xrl.bind(COMMON_IDL, self)\n"
        )
        assert analyze_paths([tree]) == []
        base.write_text(handlers + "    def xrl_shutdown(self, now):\n"
                                   "        pass\n")
        findings = analyze_paths([tree])
        assert rules_of(findings) == ["XRL005"]
        assert findings[0].path.endswith("rip/bound.py")
        assert "shutdown" in findings[0].message

    def test_a_whole_tree_run_walks_each_module_once(self, analysis_tree,
                                                     monkeypatch):
        # Counted, not timed: node expansions per AST node over one
        # uncached run.  Every rule reads the one walk in sites.py.
        expansions = 0
        expand = ast.iter_child_nodes

        def counted(node):
            nonlocal expansions
            expansions += 1
            return expand(node)

        clear_module_cache()
        monkeypatch.setattr(ast, "iter_child_nodes", counted)
        assert analyze_paths([analysis_tree]) == []
        monkeypatch.undo()
        modules, _errors = collect_modules([analysis_tree])
        nodes = sum(1 for module in modules for _ in ast.walk(module.tree))
        assert expansions / nodes <= 1.1, (expansions, nodes)

    def test_rule_registry_documented(self):
        for rule_id, rule in RULES.items():
            assert rule.summary, rule_id
            assert rule_id == rule.id


# ---------------------------------------------------------------------------
# The whole-system protocol graph (PRO001–PRO003)
# ---------------------------------------------------------------------------

class TestProtographMutations:
    """Each seeded mutation must be caught by exactly its intended rule."""

    def test_deleted_bind_pro001(self, mutable_tree):
        tree = mutable_tree
        rib = tree / "rib" / "rib.py"
        text = rib.read_text()
        assert "self.xrl.bind(RIB_IDL, self)" in text
        rib.write_text("\n".join(
            line for line in text.splitlines()
            if "self.xrl.bind(RIB_IDL, self)" not in line) + "\n")
        errors = analyze_paths([tree])
        assert errors, "deleting the RIB bind must break resolution"
        assert {f.rule for f in errors} == {"PRO001"}
        assert any("rib/1.0" in f.message for f in errors)

    def test_sync_back_call_pro002(self, mutable_tree):
        # rib -> fea is an existing async edge; a synchronous FEA -> rib
        # call closes an inter-process request cycle — the deadlock the
        # multi-process split (ROADMAP item 2) cannot tolerate.
        tree = mutable_tree
        fea = tree / "fea" / "fea.py"
        fea.write_text(fea.read_text() + (
            "\n\n"
            "from repro.interfaces import RIB_IDL\n"
            "_LOOKUP = RIB_IDL.sender('lookup_route_by_dest4', 'addr')\n"
            "\n\n"
            "class _RouteConfirmer:\n"
            "    def __init__(self, xrl):\n"
            "        self.xrl = xrl\n"
            "\n"
            "    def confirm(self, addr):\n"
            "        return self.xrl.send_sync(_LOOKUP('rib', addr),\n"
            "                                  deadline=5)\n"
        ))
        errors = analyze_paths([tree])
        assert len(errors) == 1
        assert errors[0].rule == "PRO002"
        assert "fea -> rib" in errors[0].message
        assert "cycle" in errors[0].message

    def test_renamed_reply_atom_pro003(self, mutable_tree):
        tree = mutable_tree
        supervisor = tree / "rtrmgr" / "supervisor.py"
        text = supervisor.read_text()
        assert 'get_txt("status")' in text
        supervisor.write_text(
            text.replace('get_txt("status")', 'get_txt("statuz")', 1))
        errors = analyze_paths([tree])
        assert len(errors) == 1
        assert errors[0].rule == "PRO003"
        assert "'statuz'" in errors[0].message
        assert errors[0].path.endswith("rtrmgr/supervisor.py")

    def test_renamed_ifaddr_read_pro003(self, mutable_tree):
        # The manager reads the FEA's interface address where it sends
        # the query, so the read is checked against the reply spec.
        rtrmgr = mutable_tree / "rtrmgr" / "rtrmgr.py"
        text = rtrmgr.read_text()
        assert text.count('get_ipv4("addr")') == 1
        rtrmgr.write_text(text.replace('get_ipv4("addr")', 'get_ipv4("adr")'))
        errors = analyze_paths([mutable_tree])
        assert rules_of(errors) == ["PRO003"]
        assert "'adr'" in errors[0].message
        assert "get_interface_addr4" in errors[0].message


# ---------------------------------------------------------------------------
# The rule × seeded-mutation matrix (DESIGN.md, "Static guarantees")
# ---------------------------------------------------------------------------

#: rule -> its seed in the shipped tree, as edits (file under repro/,
#: text, what replaces its first occurrence).  An empty text appends to
#: the file; None creates it.
SEEDS = {
    "XRL001": [("rib/rib.py", "self.xrl.bind(PROFILER_IDL, self.profiler)",
                "self.xrl.bind(PROFILE_IDL, self.profiler)")],
    "XRL002": [("experiments/xrlperf.py", '"bench/1.0/noargs"',
                '"bench/1.0/noargz"')],
    "XRL005": [("rib/rib.py", "def xrl_delete_routes4(self, protocol, nets)",
                "def xrl_delete_routes4(self, protocol, nets, cause)")],
    "XRL006": [("experiments/xrlperf.py", '"bench/1.0/noargs"',
                '"bench/1.0"')],
    "ISO001": [("bgp/process.py", "from repro.core.stages import",
                "from repro.rib.rib import RibProcess\n"
                "from repro.core.stages import")],
    "ISO002": [("policy/varrw.py", "from repro.net import IPNet\n",
                "from repro.net import IPNet\n"
                "from repro.fea.fib import FibEntry\n")],
    "DET001": [("bgp/process.py", "        target = self.rib_target\n",
                "        import time; time.time()\n"
                "        target = self.rib_target\n")],
    "DET002": [("bgp/process.py", "        self.xrl.bind(BGP_IDL, self)",
                "        import time; time.sleep(0.1)\n"
                "        self.xrl.bind(BGP_IDL, self)")],
    "DET003": [("rib/rib.py", "        if self._prof_sent_fea.enabled:",
                "        import random; random.random()\n"
                "        if self._prof_sent_fea.enabled:")],
    "DET004": [("core/dialer.py", None,
                "import socket\n\n\ndef dial(host, port):\n"
                "    return socket.create_connection((host, port))\n")],
    "DET005": [("core/txqueue.py", "loop.call_soon(self._turn)",
                "loop.call_later(0, self._turn)")],
    "CB001": [("rip/process.py",
               "        if not self.running:  # deferred past shutdown: "
               "nothing to clear\n            return\n", "")],
    "STG001": [("core/stages.py",
                "def add_routes(self, routes: List[Any], *,",
                "def add_routes(self, routes: List[Any],")],
    "BKD001": [("fea/fea.py", "import FibBackend, make_backend",
                "import FibBackend, TrieFibBackend, make_backend"),
               ("fea/fea.py", "backend = make_backend(",
                "backend = TrieFibBackend() if backend == 'trie' \\\n"
                "                else make_backend(")],
    "PRO001": [("rib/rib.py", "self.xrl.bind(RIB_IDL, self)\n", "pass\n")],
    "PRO002": [("fea/fea.py", "",
                "\n\nfrom repro.interfaces import RIB_IDL\n"
                "_LOOKUP = RIB_IDL.sender('lookup_route_by_dest4', 'addr')\n"
                "\n\nclass _RouteConfirmer:\n"
                "    def confirm(self, addr):\n"
                "        return self.xrl.send_sync(_LOOKUP('rib', addr),\n"
                "                                  deadline=5)\n")],
    "PRO003": [("rtrmgr/supervisor.py", 'get_txt("status")',
                'get_txt("statuz")')],
    "SUP001": [("rib/rib.py", "        if self._prof_sent_fea.enabled:",
                "        if self._prof_sent_fea.enabled:  "
                "# repro: allow[BOGUS9]")],
    "SUP002": [("rib/rib.py", "        if self._prof_sent_fea.enabled:",
                "        if self._prof_sent_fea.enabled:  "
                "# repro: allow[DET002]")],
    "GEN001": [("core/broken.py", None, "def (:\n")],
}

#: seeds another rule reports too: a raw registration that does not
#: parse, or names a method the interface lacks, binds nothing, so what
#: was sent to it is unhandled
ALSO = {"XRL002": {"PRO001"}, "XRL006": {"PRO001"}}

#: seeds that fail the import of their module, as (file under repro/,
#: text, what replaces its first occurrence, what the IdlError names):
#: each sender checks its declaration when the module is imported
IMPORT_SEEDS = {
    "method": ("rib/rib.py", '"add_entry4"', '"add_entyr4"', "add_entyr4"),
    "argument": ("rtrmgr/translate.py", '"peer", "as", "next_hop"',
                 '"peer", "asn", "next_hop"', "asn"),
    "rib lone route": ("rib/rib.py", '"add_entry4", "net", "nexthop"',
                       '"add_entry4", "net", "nexthopp"', "nexthopp"),
    "bgp lone route": ("bgp/process.py", '"delete_route4", "protocol", "net"',
                       '"delete_route4", "protocol", "nett"', "nett"),
}

#: the methods the traced two-router flow of
#: ``test_full_router_integration.py`` sends on each process hop
TRACED_FLOW = {
    ("bgp", "rib", "rib/1.0"): {"add_route4", "add_routes4",
                                "delete_route4", "delete_routes4"},
    ("rib", "fea", "fea_fib/1.0"): {"add_entry4", "add_entries4",
                                    "delete_entry4", "delete_entries4"},
}


def seed(tree, rule):
    for relpath, text, replacement in SEEDS[rule]:
        path = tree / relpath
        source = "" if text is None else path.read_text()
        assert text is None or text in source, (rule, relpath)
        path.write_text(source.replace(text, replacement, 1) if text
                        else source + replacement)


def untraced(graph):
    """``(src, dst, method)`` of the traced flow no async edge carries."""
    missing = set()
    for (src, dst, interface), methods in TRACED_FLOW.items():
        edge = graph.edges.get((src, dst, interface, False))
        carried = edge.methods if edge is not None else set()
        missing |= {(src, dst, method) for method in methods - carried}
    return missing


class TestRuleMatrix:
    """One seed of the shipped tree per rule; each is caught."""

    def test_every_static_rule_has_a_seed(self):
        runtime = ("SAN", "OBS")        # tests/test_sanitizer.py, test_cli_gates
        assert set(SEEDS) == {rule for rule in RULES
                              if not rule.startswith(runtime)}

    @pytest.mark.parametrize("rule", sorted(SEEDS))
    def test_the_rule_catches_its_seed(self, rule, mutable_tree):
        seed(mutable_tree, rule)
        found = {finding.rule for finding in analyze_paths([mutable_tree])}
        assert found == {rule} | ALSO.get(rule, set())

    @pytest.mark.parametrize("kind", sorted(IMPORT_SEEDS))
    def test_a_bad_declaration_fails_its_import(self, kind, mutable_tree):
        relpath, text, replacement, named = IMPORT_SEEDS[kind]
        path = mutable_tree / relpath
        source = path.read_text()
        assert text in source, kind
        path.write_text(source.replace(text, replacement, 1))
        spec = importlib.util.spec_from_file_location(
            "seeded_" + path.stem, path)
        with pytest.raises(IdlError, match=named):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_a_missing_handler_is_refused_at_bind(self):
        # The seed of the deleted missing-handler rule: a handler gone
        # from RibProcess.  Binding the class refuses it, wherever the
        # class is built.
        class HandlerGone(RibProcess):
            xrl_lookup_route_by_dest4 = None

        with pytest.raises(IdlError, match="lookup_route_by_dest4"):
            HandlerGone(Host())

    @pytest.mark.parametrize("callee", ["(_ADD_ROUTES4 if routes else None)",
                                        "[_ADD_ROUTES4][0]"])
    def test_a_send_through_an_expression_stays_in_the_graph(
            self, callee, mutable_tree):
        # BGP's add_routes4 sent through a callee the walk resolves (one
        # arm of a conditional) or does not (a subscript): the sender's
        # declaration keeps the method on the bgp -> rib edge either way.
        bgp = mutable_tree / "bgp" / "process.py"
        text = bgp.read_text()
        assert text.count("_ADD_ROUTES4(") == 1
        bgp.write_text(text.replace("_ADD_ROUTES4(", callee + "("))
        modules, _errors = collect_modules([mutable_tree])
        graph = build_protocol_graph(modules)
        assert untraced(graph) == set()


class TestProtographFixtures:
    """Small closed-system fixtures through :func:`analyze_sources`."""

    BINDER = (
        "from repro.interfaces import COMMON_IDL\n"
        "class P:\n"
        "    def __init__(self, xrl):\n"
        "        xrl.bind(COMMON_IDL, self)\n"
        "    def xrl_get_target_name(self):\n"
        "        return 'p'\n"
        "    def xrl_get_version(self):\n"
        "        return '1'\n"
        "    def xrl_get_status(self):\n"
        "        return 'READY'\n"
        "    def xrl_shutdown(self):\n"
        "        pass\n"
    )

    def test_send_without_any_bind_pro001(self):
        sender = (
            "from repro.interfaces import RIB_IDL\n"
            "_ADD_IGP_TABLE4 = RIB_IDL.sender('add_igp_table4', 'protocol')\n"
            "def go(router):\n"
            "    router.send(_ADD_IGP_TABLE4('rib', 'rip'))\n"
        )
        findings = analyze_sources({"bgp/feed.py": sender})
        assert rules_of(findings) == ["PRO001"]

    def test_send_with_bind_resolves(self):
        sender = (
            "from repro.interfaces import COMMON_IDL\n"
            "_GET_STATUS = COMMON_IDL.sender('get_status')\n"
            "def go(router):\n"
            "    router.send(_GET_STATUS('p'))\n"
        )
        findings = analyze_sources({"bgp/probe.py": sender,
                                    "rib/p.py": self.BINDER})
        assert rules_of(findings) == []


class TestProtographGraph:
    def test_graph_json_is_byte_stable(self, analysis_tree):
        modules, errors = collect_modules([analysis_tree])
        assert errors == []
        first = build_protocol_graph(modules).to_json()
        second = build_protocol_graph(modules).to_json()
        assert first == second

    def test_graph_has_expected_edges(self, analysis_tree):
        modules, _errors = collect_modules([analysis_tree])
        graph = build_protocol_graph(modules)
        pairs = {(e.src, e.dst) for e in graph.edges.values()}
        assert ("bgp", "rib") in pairs      # BGP feeds the RIB
        assert ("rib", "fea") in pairs      # RIB pushes the FIB
        assert ("rib", "bgp") in pairs      # redistribution back-channel
        sync_pairs = {(e.src, e.dst) for e in graph.edges.values() if e.sync}
        assert ("rtrmgr", "rib") in sync_pairs   # rtrmgr configures sync
        # The route stream's senders, singular and vectorized, all ride
        # the bgp -> rib edge, asynchronously.
        stream = graph.edges[("bgp", "rib", "rib/1.0", False)]
        assert {"add_routes4", "delete_routes4",
                "add_route4", "delete_route4"} <= stream.methods
        # Every hop of the traced two-router flow, and the CLI's ``call``
        # that starts it, which may send anything.
        assert untraced(graph) == set()
        assert "rtrmgr" in {site.package for site in graph.dynamic_sites}

    def test_dot_export_mentions_every_package_on_an_edge(self, analysis_tree):
        modules, _errors = collect_modules([analysis_tree])
        graph = build_protocol_graph(modules)
        dot = graph.to_dot()
        for edge in graph.edges.values():
            assert f'"{edge.src}"' in dot
            assert f'"{edge.dst}"' in dot


class TestFindingsCacheRuleset:
    """A rule selection only filters the report.

    Regression: a per-module findings cache once ignored ``--rule``
    filters, so a filtered run poisoned it and a later full run replayed
    the filtered findings — silently dropping every other rule's output.
    No findings are cached now; the selection must still not leak.
    """

    def _seeded_tree(self, tree):
        # One package is enough: the parse cache works file by file.
        bgp = tree / "bgp" / "process.py"
        lines = bgp.read_text().splitlines(keepends=True)
        anchor = next(i for i, line in enumerate(lines)
                      if "self.xrl.bind(BGP_IDL, self)" in line)
        lines.insert(anchor, "        import time; time.sleep(0.1)\n")
        bgp.write_text("".join(lines))
        return tree / "bgp"

    def test_rule_filter_then_full_run_sees_everything(self, mutable_tree):
        tree = self._seeded_tree(mutable_tree)
        clear_module_cache()
        filtered = analyze_paths([tree], rules=["DET002"])
        assert rules_of(filtered) == ["DET002"]
        # Same modules, same process: the full run must NOT reuse the
        # DET002-only cached findings.
        full = analyze_paths([tree])
        assert "DET002" in rules_of(full)
        assert {f.rule for f in full} > {"DET002"}, (
            "full run replayed the rule-filtered cache")
        # and narrowing again still works after the full run
        narrowed = analyze_paths([tree], rules=["DET002"])
        assert rules_of(narrowed) == ["DET002"]


class TestAstCache:
    # One package of the shared copy: the parse cache works file by file.

    def test_second_pass_is_fully_cached(self, mutable_tree):
        tree = mutable_tree / "bgp"
        clear_module_cache()
        cold: dict = {}
        analyze_paths([tree], stats=cold)
        warm: dict = {}
        analyze_paths([tree], stats=warm)
        assert cold["parsed"] == cold["files"] > 0
        assert cold["parse_cached"] == 0
        assert warm["parse_cached"] == warm["files"]
        assert warm["parsed"] == 0

    def test_cache_invalidated_on_edit(self, mutable_tree):
        tree = mutable_tree / "bgp"
        clear_module_cache()
        analyze_paths([tree])
        target = tree / "process.py"
        target.write_text(target.read_text() + "\n# touched\n")
        stats: dict = {}
        analyze_paths([tree], stats=stats)
        assert stats["parsed"] == 1
        assert stats["parse_cached"] == stats["files"] - 1


class TestReportFormats:
    """The shared text/json/github renderers used by both CLIs."""

    def _finding(self):
        from repro.analysis.core import Finding

        return Finding(path="src/repro/bgp/process.py", line=42,
                       rule="DET002", message="time.sleep() blocks, 100%")

    def test_github_annotation_shape_and_escaping(self):
        from repro.analysis.report import render_findings

        rendered = render_findings([self._finding()], "github")
        assert rendered.startswith("::error file=src/repro/bgp/process.py,"
                                   "line=42,title=DET002::")
        assert "100%25" in rendered  # '%' escaped per workflow-command rules
        assert "\n" not in rendered

    def test_json_rendering_is_stable(self):
        import json

        from repro.analysis.report import render_findings

        first = render_findings([self._finding()], "json")
        second = render_findings([self._finding()], "json")
        assert first == second
        assert json.loads(first)[0]["rule"] == "DET002"

    def test_cli_github_format(self, tmp_path):
        bad = tmp_path / "process.py"
        bad.write_text("import time\ntime.sleep(1.0)\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format", "github",
             str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 1
        assert result.stdout.startswith("::error file=")
        assert "DET002" in result.stdout
