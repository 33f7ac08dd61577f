"""Router Manager: module lifecycle and configuration commit.

The Router Manager owns the candidate and committed configuration trees
and reaches the processes it manages only through XRLs.  On commit it:

1. starts the modules the new configuration requires and the Finder does
   not already know, through its launcher (:mod:`repro.rtrmgr.launcher`)
   — the one thing that differs between the single-interpreter and the
   OS-process deployment;
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

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.process import Host, XorpProcess
from repro.interfaces import COMMON_IDL, RTRMGR_IDL
from repro.net import IPv4
from repro.rtrmgr.config_tree import CommitError, ConfigError, ConfigTree
from repro.rtrmgr.launcher import InProcessLauncher
from repro.rtrmgr.supervisor import Supervisor, SupervisorPolicy
from repro.rtrmgr.template import DEFAULT_TEMPLATE, parse_template
from repro.rtrmgr.translate import translate
from repro.xrl import XrlArgs, XrlError
from repro.xrl.xrl import Xrl

#: Finder ACLs installed per module class (target classes it may resolve)
MODULE_ACLS = {
    "bgp": {"rib", "bgp"},
    "rip": {"rib", "fea", "rip"},
    "ospf": {"rib", "fea"},
    "static_routes": {"rib"},
    "pim": {"rib", "fea", "mld6igmp"},
    "mld6igmp": {"pim"},
}

#: what calls for each module, in start order: a router always has an
#: FEA and a RIB, and a protocol when its subtree is configured
MODULE_SUBTREES = (
    ("fea", ()),
    ("rib", ()),
    ("bgp", ("protocols", "bgp")),
    ("rip", ("protocols", "rip")),
    ("ospf", ("protocols", "ospf")),
    ("static_routes", ("protocols", "static")),
    ("mld6igmp", ("protocols", "pim")),
    ("pim", ("protocols", "pim")),
)

#: start-up parameters — what a module is constructed with rather than
#: configured with: module -> ((keyword, configuration path, mandatory), ...).
#: A launcher renders them as constructor keywords or as ``--key-word`` argv.
MODULE_PARAMS = {
    "bgp": (("local_as", ("protocols", "bgp", "local-as"), True),
            ("bgp_id", ("protocols", "bgp", "bgp-id"), False)),
    "ospf": (("router_id", ("protocols", "ospf", "router-id"), True),),
}


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
        #: the XRL class a module registers under, where not its own name
        self.class_names: Dict[str, str] = {}
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
    def register_module_factory(self, name: str, factory: Callable, *,
                                allowed_targets: Optional[set] = None) -> None:
        """Extension point: third-party protocols plug in here.

        *factory* is called with the module's start-up parameters as
        keywords (none, unless ``MODULE_PARAMS`` names the module).
        """
        self.launcher.factories[name] = factory
        if allowed_targets is not None:
            MODULE_ACLS[name] = set(allowed_targets)

    def start_module(self, name: str, *, supervise: bool = True):
        """Launch *name* for the first time, under the candidate tree."""
        handle = self._launch(name, self.config)
        if supervise:
            self.supervisor.add_module(
                name, class_name=self.class_names.get(name, name),
                restart=lambda: self.restart_module(name))
        return handle

    def _launch(self, name: str, tree: ConfigTree):
        params = {}
        for keyword, path, __mandatory in MODULE_PARAMS.get(name, ()):
            value = tree.get_value(list(path))
            if value is not None:
                params[keyword] = value
        class_name = self.class_names.get(name, name)
        handle = self.launcher.start(name, class_name, params)
        self.modules[name] = handle
        acl = MODULE_ACLS.get(name)
        if acl is not None:
            for instance in self.host.finder.class_instances(class_name):
                self.host.finder.set_acl(instance, allowed_targets=set(acl))
        return handle

    def restart_module(self, name: str):
        """Replace a dead (or wedged) module and replay its configuration.

        The new process has empty state, so what it must be told is the
        translation of the whole committed tree from nothing — the part
        of it addressed to this module.
        """
        old = self.modules.pop(name, None)
        if old is not None:
            self.launcher.stop(old)
        handle = self._launch(name, self.committed)
        class_name = self.class_names.get(name, name)
        for xrl in translate(ConfigTree(self.template), self.committed,
                             self._ifaddr):
            if xrl.target == class_name:
                self._send(xrl)
        return handle

    # -- commit -------------------------------------------------------------
    def commit(self) -> None:
        """Apply the candidate configuration; roll back on failure."""
        try:
            for name, subtree in MODULE_SUBTREES:
                if name in self.modules \
                        or not self.config.exists(list(subtree)) \
                        or self.host.finder.known_target(name):
                    continue
                for __, path, mandatory in MODULE_PARAMS.get(name, ()):
                    if mandatory and self.config.get_value(list(path)) is None:
                        raise CommitError(f"{' '.join(path)} must be set")
                self.start_module(name)
            for xrl in translate(self.committed, self.config, self._ifaddr):
                self._send(xrl)
        except (XrlError, CommitError, ConfigError) as exc:
            self.config = self.committed.copy()
            raise CommitError(f"commit failed, rolled back: {exc}") from exc
        # Promote a copy, so later edits of the candidate stay detached.
        self.committed = self.config.copy()
        self.commit_count += 1

    def _send(self, xrl: Xrl) -> XrlArgs:
        error, result = self.xrl.send_sync(xrl, deadline=30)
        if not error.is_okay:
            raise CommitError(f"{xrl.target}/{xrl.method}: {error}")
        return result

    def _ifaddr(self, ifname: str) -> Tuple[IPv4, int]:
        """An interface the configuration does not itself define: ask the FEA."""
        reply = self._send(Xrl("fea", "fea_ifmgr", "1.0", "get_interface_addr4",
                               XrlArgs().add_txt("ifname", ifname)))
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
