"""A small scriptable CLI over the Router Manager.

Configuration commands edit the candidate tree until ``commit``;
``show modules``/``configuration``, ``call`` and part of ``show bgp``/
``ospf`` route through XRLs ("providing operators with unified management
interfaces").  The rest of ``show bgp``/``rip``/``ospf``/``route`` reads
the module objects in ``rtrmgr.modules`` and ``host.processes`` directly
— the one place in this package that touches a managed process's state,
and so the one part that works under the in-process launcher only, until
those reads have XRLs of their own (ROADMAP item 4).
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List

from repro.interfaces import BGP_IDL, OSPF_IDL
from repro.rtrmgr.config_tree import ConfigError
from repro.rtrmgr.rtrmgr import CommitError, RouterManager
from repro.rtrmgr.template import TemplateError
from repro.xrl import XrlError

_GET_PEER_LIST = BGP_IDL.sender("get_peer_list")
_GET_NEIGHBORS = OSPF_IDL.sender("get_neighbors")
_GET_LSDB = OSPF_IDL.sender("get_lsdb")


def _okay(error: XrlError) -> None:
    if not error.is_okay:
        raise CommitError(str(error))


class Cli:
    """Execute command lines against a RouterManager; returns output text."""

    def __init__(self, rtrmgr: RouterManager):
        self.rtrmgr = rtrmgr
        self.history: List[str] = []
        #: operational "show" subcommands -> handler(args) -> str
        self.show_commands: Dict[str, Callable[[List[str]], str]] = {
            "configuration": lambda args: self.rtrmgr.show(),
            "candidate": lambda args: self.rtrmgr.show_candidate(),
            "modules": self._show_modules,
            "bgp": self._show_bgp,
            "rip": self._show_rip,
            "ospf": self._show_ospf,
            "route": self._show_route,
        }

    def execute(self, line: str) -> str:
        """Run one command line; return its output (or error text)."""
        self.history.append(line)
        try:
            words = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        if not words:
            return ""
        command, args = words[0], words[1:]
        try:
            if command == "set":
                if len(args) < 2:
                    return "error: set <path...> <value>"
                self.rtrmgr.set(" ".join(args[:-1]), args[-1])
                return "OK"
            if command == "create":
                self.rtrmgr.config.set(args)
                return "OK"
            if command == "delete":
                self.rtrmgr.delete(" ".join(args))
                return "OK"
            if command == "commit":
                self.rtrmgr.commit()
                return "Commit OK"
            if command == "show":
                return self._show(args)
            if command == "load":
                return "error: use Cli.load_text() for multi-line input"
            if command == "call":
                return self._call_xrl(args)
            if command == "help":
                return self._help()
        except (ConfigError, TemplateError, CommitError) as exc:
            return f"error: {exc}"
        return f"error: unknown command {command!r}"

    def run_interactive(self, input_fn=input, output_fn=print,
                        prompt: str = "xorpsh> ") -> None:
        """A minimal interactive shell (exit with 'exit'/'quit'/EOF)."""
        while True:
            try:
                line = input_fn(prompt)
            except EOFError:
                return
            if line.strip() in ("exit", "quit"):
                return
            output = self.execute(line)
            if output:
                output_fn(output)

    def load_text(self, config_text: str) -> str:
        try:
            self.rtrmgr.load(config_text)
        except (ConfigError, TemplateError) as exc:
            return f"error: {exc}"
        return "OK"

    # -- show subcommands --------------------------------------------------
    def _show(self, args: List[str]) -> str:
        if not args:
            return self.rtrmgr.show()
        handler = self.show_commands.get(args[0])
        if handler is None:
            return f"error: unknown show command {args[0]!r}"
        return handler(args[1:])

    def _show_modules(self, args: List[str]) -> str:
        return "\n".join(sorted(self.rtrmgr.modules)) or "(none)"

    def _show_bgp(self, args: List[str]) -> str:
        bgp = self.rtrmgr.modules.get("bgp")
        if bgp is None:
            return "BGP is not running"
        if args and args[0] == "routes":
            return self._show_bgp_routes(bgp)
        error, result = self.rtrmgr.xrl.send_sync(_GET_PEER_LIST("bgp"),
                                                  deadline=10)
        _okay(error)
        lines = [f"local AS: {bgp.local_as}", f"BGP ID: {bgp.bgp_id}"]
        for peer_id in filter(None, result.get_txt("peers").split(",")):
            handler = bgp.peers[peer_id]
            lines.append(
                f"peer {peer_id} AS {handler.config.peer_as} "
                f"state {handler.fsm.state.value} "
                f"prefixes {handler.peer_in.route_count}")
        lines.append(f"best routes: {bgp.decision.route_count}")
        return "\n".join(lines)

    def _show_bgp_routes(self, bgp) -> str:
        lines = []
        for net, route in sorted(bgp.decision.winners.items()):
            attrs = route.attributes
            med = attrs.med if attrs.med is not None else "-"
            lines.append(
                f"{net} via {route.nexthop} from {route.peer_id} "
                f"localpref {attrs.local_pref} med {med} "
                f"as-path [{attrs.as_path}]")
        return "\n".join(lines) or "(no BGP routes)"

    def _show_rip(self, args: List[str]) -> str:
        rip = self.rtrmgr.modules.get("rip")
        if rip is None:
            return "RIP is not running"
        lines = []
        for ifname, port in sorted(rip.ports.items()):
            lines.append(f"interface {ifname} cost {port.cost} "
                         f"in {port.packets_in} out {port.packets_out}")
        lines.append(f"routes: {len(rip.routes)}")
        return "\n".join(lines)

    def _show_ospf(self, args: List[str]) -> str:
        ospf = self.rtrmgr.modules.get("ospf")
        if ospf is None:
            return "OSPF is not running"
        router = self.rtrmgr.xrl
        error, neighbors = router.send_sync(_GET_NEIGHBORS("ospf"),
                                            deadline=10)
        _okay(error)
        error, lsdb = router.send_sync(_GET_LSDB("ospf"), deadline=10)
        _okay(error)
        lines = [f"router id: {ospf.router_id}",
                 f"neighbors: {neighbors.get_txt('neighbors') or '(none)'}",
                 f"lsdb: {lsdb.get_txt('lsdb') or '(empty)'}",
                 f"spf runs: {ospf.spf_runs}"]
        return "\n".join(lines)

    def _show_route(self, args: List[str]) -> str:
        fea = self.rtrmgr.host.processes.get("fea")
        if fea is None:
            return "no FEA"
        lines = []
        for net, entry in fea.fib4.entries():
            via = f"via {entry.nexthop}" if not entry.nexthop.is_zero() \
                else "connected"
            dev = f" dev {entry.ifname}" if entry.ifname else ""
            lines.append(f"{net} {via}{dev}")
        return "\n".join(lines) or "(empty)"

    def _call_xrl(self, args: List[str]) -> str:
        """``call <xrl-text>`` — the call_xrl scripting facility."""
        from repro.xrl.call_xrl import call_xrl

        if not args:
            return "error: call <xrl>"
        error, text = call_xrl(self.rtrmgr.xrl, args[0])
        if not error.is_okay:
            return f"error: {error}"
        return text or "OK"

    def _help(self) -> str:
        return "\n".join([
            "set <path...> <value>    edit the candidate configuration",
            "create <path...>         create a non-leaf config node",
            "delete <path...>         remove configuration",
            "commit                   apply the candidate configuration",
            "show [configuration|candidate|modules|bgp|rip|route]",
            "call <xrl>               invoke an XRL (textual form)",
        ])
