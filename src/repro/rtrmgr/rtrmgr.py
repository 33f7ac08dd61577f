"""Router Manager: module lifecycle and configuration commit.

The Router Manager owns the candidate and committed configuration trees
and reaches the processes it manages only through XRLs.  On commit it:

1. starts the modules the new configuration requires and the Finder does
   not already know, through its launcher (:mod:`repro.rtrmgr.launcher`)
   — the one thing that differs between the single-interpreter and the
   OS-process deployment.  It knows a module by its ``ModuleSpec``
   (:mod:`repro.rtrmgr.modules`, or :meth:`RouterManager.declare`);
2. installs Finder ACLs for each started module (paper §7: "The Finder is
   configured with a set of XRLs that each process is allowed to call,
   and a set of targets that each process is allowed to communicate
   with");
3. sends ``translate(committed, candidate)`` in order
   (:mod:`repro.rtrmgr.translate`);
4. on failure, rolls the candidate back to the committed tree.

Restarting a module (the :class:`~repro.rtrmgr.supervisor.Supervisor`'s
entry point) is a relaunch plus the translation of the whole committed
tree, filtered to the XRLs whose target is that module.

"XORP centralizes all configuration information in the Router Manager,
so no XORP process needs to access the filesystem to load or save its
configuration."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.process import Host, XorpProcess
from repro.interfaces import COMMON_IDL, FEA_IFMGR_IDL, RIB_IDL, RTRMGR_IDL
from repro.net import IPv4
from repro.rtrmgr.config_tree import CommitError, ConfigError, ConfigTree
from repro.rtrmgr.launcher import InProcessLauncher
from repro.rtrmgr.modules import STOCK, ModuleSpec
from repro.rtrmgr.supervisor import Supervisor, SupervisorPolicy
from repro.rtrmgr.template import DEFAULT_TEMPLATE, parse_template
from repro.rtrmgr.translate import translate
from repro.xrl import Xrl, XrlError

_FLUSH_TABLE4 = RIB_IDL.sender("flush_table4", "protocol")
_GET_INTERFACE_ADDR4 = FEA_IFMGR_IDL.sender("get_interface_addr4", "ifname")


def _okay(xrl: Xrl, error: XrlError) -> None:
    if not error.is_okay:
        raise CommitError(f"{xrl.target}/{xrl.method}: {error}")


class RouterManager(XorpProcess):
    process_name = "rtrmgr"
    version = "repro-rtrmgr/1.0"

    def __init__(self, host: Host, *, template_text: Optional[str] = None,
                 launcher=None, policy: Optional[SupervisorPolicy] = None):
        super().__init__(host)
        self.template = parse_template(
            template_text if template_text is not None else DEFAULT_TEMPLATE)
        self.config = ConfigTree(self.template)      # candidate
        self.committed = ConfigTree(self.template)   # running
        self.xrl = self.create_router("rtrmgr", singleton=True)
        self.xrl.bind(RTRMGR_IDL, self)
        self.xrl.bind(COMMON_IDL, self)
        self.launcher = launcher if launcher is not None \
            else InProcessLauncher(host)
        #: whatever the launcher returned: the process object in-process,
        #: a pid/alive/popen shell for a child
        self.modules: Dict[str, Any] = {}
        #: every module this manager knows, by name, in declaration order
        self.specs: Dict[str, ModuleSpec] = {spec.name: spec for spec in STOCK}
        self.supervisor = Supervisor(self, policy)
        self.commit_count = 0
        self.metrics.gauge("modules", lambda: len(self.modules))
        self.metrics.gauge("commits", lambda: self.commit_count)

    # -- candidate configuration editing ------------------------------------
    def set(self, path_text: str, value: Any = None) -> None:
        """``set("protocols bgp local-as", 65001)``-style editing."""
        self.config.set(path_text.split(), value)

    def delete(self, path_text: str) -> None:
        self.config.delete(path_text.split())

    def load(self, config_text: str) -> None:
        """Replace the candidate with parsed braces-syntax text."""
        self.config = ConfigTree(self.template)
        self.config.load(config_text)

    def show(self) -> str:
        return self.committed.render()

    def show_candidate(self) -> str:
        return self.config.render()

    # -- module lifecycle -------------------------------------------------------
    def declare(self, spec: ModuleSpec) -> None:
        """Know a module: after those declared, or in its namesake's place."""
        self.specs[spec.name] = spec

    def register_module_factory(self, name: str, factory: Callable) -> None:
        """Build declared module *name* as ``factory(**params)``."""
        self.specs[name] = self.specs[name]._replace(process=factory)

    def start_module(self, name: str, *, supervise: bool = True):
        """Launch *name* for the first time, under the candidate tree."""
        spec = self.specs[name]
        handle = self._launch(spec, self.config)
        if supervise:
            self.supervisor.add_module(
                name, class_name=spec.class_name, depends_on=spec.depends_on,
                rib_protocols=spec.rib_protocols,
                restart=lambda: self.restart_module(name))
        return handle

    def _launch(self, spec: ModuleSpec, tree: ConfigTree):
        params = {keyword: value for keyword, path, __ in spec.params
                  if (value := tree.get_value(list(path))) is not None}
        handle = self.launcher.start(spec, params)
        self.modules[spec.name] = handle
        if spec.acl is not None:
            for instance in self.host.finder.class_instances(spec.class_name):
                self.host.finder.set_acl(instance, allowed_targets=spec.acl)
        return handle

    def restart_module(self, name: str):
        """Replace a dead (or wedged) module and replay its configuration.

        The new process has empty state, so what it must be told is the
        translation of the whole committed tree from nothing — the part
        of it addressed to this module.
        """
        spec = self.specs[name]
        old = self.modules.pop(name, None)
        if old is not None:
            self.launcher.stop(old)
        handle = self._launch(spec, self.committed)
        for xrl in translate(ConfigTree(self.template), self.committed,
                             self._ifaddr, self.specs.values()):
            if xrl.target == spec.class_name:
                self._send(xrl)
        return handle

    def flush_rib(self, protocols: Iterable[str]) -> None:
        """Purge a dead module's origin tables from the RIB (§3)."""
        if self.host.finder.known_target("rib"):
            for protocol in protocols:
                self.xrl.send(_FLUSH_TABLE4("rib", protocol))

    # -- commit -------------------------------------------------------------
    def commit(self) -> None:
        """Apply the candidate configuration; roll back on failure."""
        try:
            for spec in self.specs.values():
                if spec.subtree is None or spec.name in self.modules \
                        or not self.config.exists(list(spec.subtree)) \
                        or self.host.finder.known_target(spec.class_name):
                    continue
                for __, path, mandatory in spec.params:
                    if mandatory and self.config.get_value(list(path)) is None:
                        raise CommitError(f"{' '.join(path)} must be set")
                self.start_module(spec.name)
            for xrl in translate(self.committed, self.config, self._ifaddr,
                                 self.specs.values()):
                self._send(xrl)
        except (XrlError, CommitError, ConfigError) as exc:
            self.config = self.committed.copy()
            raise CommitError(f"commit failed, rolled back: {exc}") from exc
        # Promote a copy, so later edits of the candidate stay detached.
        self.committed = self.config.copy()
        self.commit_count += 1

    def _send(self, xrl: Xrl) -> None:
        _okay(xrl, self.xrl.send_sync(xrl, deadline=30)[0])

    def _ifaddr(self, ifname: str) -> Tuple[IPv4, int]:
        """An interface the configuration does not itself define: ask the FEA."""
        xrl = _GET_INTERFACE_ADDR4("fea", ifname)
        error, reply = self.xrl.send_sync(xrl, deadline=30)
        _okay(xrl, error)
        return reply.get_ipv4("addr"), reply.get_u32("prefix_len")

    def shutdown(self) -> None:
        if not self.running:
            return
        self.supervisor.stop()
        for handle in self.modules.values():
            self.launcher.stop(handle)
        self.launcher.close()
        super().shutdown()

    # -- rtrmgr/1.0 -----------------------------------------------------------
    def xrl_get_config(self) -> dict:
        return {"config": self.committed.render()}

    def xrl_get_modules(self) -> dict:
        return {"modules": ",".join(sorted(self.modules))}
