"""One control plane: the same manager in both deployments.

* **Deployment equivalence** — one configuration text, committed under the
  in-process launcher and under the process launcher, makes the manager
  send the identical ordered XRL list, and the two FIBs agree.  So does
  every configuration an experiment or example commits, unless it needs a
  module without a ``python -m`` main, which the process launcher refuses.
* **Restart = filtered translation** — what a reborn module is told is
  ``translate(empty, committed)`` filtered to its target, nothing else.
* **A failed commit changes nothing the manager remembers** — the retry
  sends the whole difference again.

The process-launcher halves fork real ``python -m repro.<module>``
children; there the module handle has a pid and nothing else to read, so
those halves also prove the commit path reads no module state.
"""

import importlib.util
import os
import signal
from pathlib import Path

import pytest

from repro.core.process import Host
from repro.experiments import latency, obsflow, recovery, routeflow
from repro.net import IPNet, IPv4
from repro.rtrmgr import CommitError, ConfigTree, RouterManager
from repro.rtrmgr.modules import STOCK
from repro.rtrmgr.spawn import SpawnManager
from repro.rtrmgr.supervisor import UP
from repro.rtrmgr.template import DEFAULT_TEMPLATE, parse_template
from repro.rtrmgr.translate import translate
from repro.xrl import XrlArgs
from repro.xrl.transport.kill import SIGTERM, KillFamily
from repro.xrl.xrl import Xrl
from tests.test_multiproc import snappy_policy

CONFIG = """
interfaces {
    interface eth0 { address: 10.0.0.1 prefix-length: 24 }
}
protocols {
    bgp {
        local-as: 65001
        bgp-id: 10.0.0.1
        peer 10.0.0.2 { as: 65002 local-ip: 10.0.0.1 enabled: true }
        network 203.0.113.0/24 { next-hop: 10.0.0.1 }
    }
}
"""

#: CONFIG with the peer deleted and the network's next-hop changed
SECOND_CONFIG = """
interfaces {
    interface eth0 { address: 10.0.0.1 prefix-length: 24 }
}
protocols {
    bgp {
        local-as: 65001
        bgp-id: 10.0.0.1
        network 203.0.113.0/24 { next-hop: 10.0.0.9 }
    }
}
"""

FIRST_COMMIT = [
    ("fea", "create_interface"), ("fea", "set_interface_enabled"),
    ("rib", "add_route4"),
    ("bgp", "add_peer"), ("bgp", "enable_peer"), ("bgp", "originate_route4"),
]
SECOND_COMMIT = [
    ("bgp", "delete_peer"), ("bgp", "withdraw_route4"),
    ("bgp", "originate_route4"),
]

#: the modules with a ``python -m`` main, which ``ProcessLauncher`` runs
MAINS = tuple(spec.name for spec in STOCK if spec.program is not None)


def example(name):
    """``examples/<name>.py`` as a module, its ``main()`` not run."""
    path = Path(__file__).resolve().parent.parent / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def session_text(lines):
    """The candidate an operator's ``set`` / ``create`` CLI lines build."""
    tree = ConfigTree(parse_template(DEFAULT_TEMPLATE))
    for line in lines:
        command, *path = line.split()
        if command == "set":
            tree.set(path[:-1], path[-1])
        else:
            tree.set(path)
    return tree.render()


def harness_configs():
    """``{name: text}``: every configuration an experiment or an example
    commits, each distinct text once."""
    bgp_network, policy_routing, flap_damping, quickstart, ospf_area, \
        multicast_pim = (example(name) for name in (
            "bgp_network", "policy_routing", "flap_damping", "quickstart",
            "ospf_area", "multicast_pim"))
    configs = {
        "latency": latency.CONFIG,
        "routeflow": routeflow.CONFIG,
        "obsflow": obsflow.CONFIG,
        "recovery": recovery.CONFIG,
        "recovery remote": recovery.REMOTE_CONFIG,
        "bgp_network r1": bgp_network.R1_CONFIG,
        "bgp_network r2": bgp_network.R2_CONFIG,
        "bgp_network r3": bgp_network.R3_CONFIG,
        "policy_routing r1": policy_routing.R1_CONFIG,
        "policy_routing r2": policy_routing.R2_CONFIG,
        "flap_damping": flap_damping.CONFIG,
        "quickstart r1": session_text(quickstart.R1_SESSION),
        "quickstart r2": quickstart.R2_CONFIG,
        "multicast_pim": multicast_pim.CONFIG,
        "multicast_pim reroute": multicast_pim.REROUTE,
        **{f"ospf_area {router}": text
           for router, text in ospf_area.CONFIGS.items()},
    }
    distinct = {text: name for name, text in configs.items()}
    return {name: text for text, name in distinct.items()}


HARNESS_CONFIGS = harness_configs()


def without_main(text):
    """The first module *text* starts that ``ProcessLauncher`` cannot."""
    tree = ConfigTree(parse_template(DEFAULT_TEMPLATE))
    tree.load(text)
    return next((spec.name for spec in STOCK if spec.name not in MAINS
                 and tree.exists(list(spec.subtree))), None)


def spy_sends(manager):
    """Every XRL the manager sends from here on, as comparable text."""
    sent = []
    send = manager._send

    def record(xrl):
        sent.append((xrl.target, xrl.method, str(xrl.args)))
        return send(xrl)

    manager._send = record
    return sent


#: RIP redistributes a static route (RIP has no ``python -m`` main, so
#: only the in-process launcher runs it)
RIP_REDIST_CONFIG = """
    interfaces { interface eth0 { address: 10.0.0.1 } }
    protocols {
        rip { interface eth0 { cost: 2 } redistribute static { } }
        static { route 172.16.0.0/12 { next-hop: 10.0.0.7 } }
    }
"""


def fib_lookup(manager, addr):
    """``fea_fib/1.0 lookup_entry4`` over XRL: (net, nexthop) or None."""
    error, reply = manager.xrl.send_sync(
        Xrl("fea", "fea_fib", "1.0", "lookup_entry4",
            XrlArgs().add_ipv4("addr", addr)), deadline=5)
    if not error.is_okay or not reply.get_bool("resolves"):
        return None
    return str(reply.get_ipv4net("net")), str(reply.get_ipv4("nexthop"))


def expected_replay(manager, target):
    """``translate(empty, committed)`` filtered to *target*, as text."""
    return [(xrl.target, xrl.method, str(xrl.args))
            for xrl in translate(ConfigTree(manager.template),
                                 manager.committed, manager._ifaddr,
                                 manager.specs.values())
            if xrl.target == target]


def make_manager(deployment):
    if deployment == "inproc":
        return RouterManager(Host(), policy=snappy_policy())
    return SpawnManager(policy=snappy_policy())


def kill_module(manager, name):
    """The kill family in one interpreter, SIGKILL for an OS child."""
    victim = manager.modules[name]
    if isinstance(manager, SpawnManager):
        os.kill(victim.pid, signal.SIGKILL)
    else:
        sender = manager.host.kill_family.connect(victim._kill_address,
                                                  manager.xrl)
        sender.call(KillFamily.encode_signal(1, SIGTERM), lambda frame: None)
    return victim


def await_restart(manager, name, victim):
    restarts = manager.supervisor.restarts

    def reborn():
        return (manager.supervisor.restarts > restarts
                and manager.modules.get(name) not in (None, victim)
                and manager.supervisor.status(name) == UP)

    assert manager.loop.run_until(reborn, timeout=60), f"{name} not restarted"


@pytest.fixture(params=["inproc", "process"])
def manager(request):
    manager = make_manager(request.param)
    yield manager
    manager.shutdown()
    manager.host.shutdown()


class TestDeploymentEquivalence:
    def run_commits(self, manager):
        sent = spy_sends(manager)
        manager.load(CONFIG)
        manager.commit()
        first = list(sent)
        assert manager.loop.run_until(
            lambda: fib_lookup(manager, "203.0.113.7") is not None, timeout=60)
        lookups = [fib_lookup(manager, "203.0.113.7"),
                   fib_lookup(manager, "10.0.0.200")]
        del sent[:]
        manager.load(SECOND_CONFIG)
        manager.commit()
        return first, list(sent), lookups

    def test_one_config_two_launchers_same_xrls_same_fib(self):
        results = {}
        for deployment in ("inproc", "process"):
            manager = make_manager(deployment)
            try:
                results[deployment] = self.run_commits(manager)
                assert sorted(manager.modules) == ["bgp", "fea", "rib"]
                # A module the Finder knows has declared every method:
                # nothing the manager sent needed a second try.
                assert manager.xrl.retries_performed == 0
            finally:
                manager.shutdown()
                manager.host.shutdown()
        first, second, lookups = results["inproc"]
        assert [(t, m) for t, m, __ in first] == FIRST_COMMIT
        # The second commit sends the difference and nothing it sent before.
        assert [(t, m) for t, m, __ in second] == SECOND_COMMIT
        assert lookups == [("203.0.113.0/24", "10.0.0.1"),
                           ("10.0.0.0/24", "0.0.0.0")]
        assert results["process"] == results["inproc"]

    @pytest.mark.parametrize("name", sorted(
        name for name, text in HARNESS_CONFIGS.items()
        if without_main(text) is None))
    def test_harness_configuration_same_xrls_both_launchers(self, name):
        """A harness's configuration means the same XRLs in either
        deployment: every module it needs has a ``python -m`` main."""
        sent = {}
        for deployment in ("inproc", "process"):
            manager = make_manager(deployment)
            try:
                sent[deployment] = spy_sends(manager)
                manager.load(HARNESS_CONFIGS[name])
                manager.commit()
            finally:
                manager.shutdown()
                manager.host.shutdown()
        assert sent["inproc"], name
        assert sent["process"] == sent["inproc"]

    def test_harness_configurations_needing_a_module_without_a_main(self):
        """The rest are refused by ``ProcessLauncher``, naming the first
        module it cannot run (ROADMAP item 6: only fea, rib and bgp have
        a main)."""
        refused = {name: without_main(text)
                   for name, text in HARNESS_CONFIGS.items()
                   if without_main(text) is not None}
        assert set(refused.values()) == {"rip", "ospf", "static_routes"}
        manager = make_manager("process")
        try:
            for name, module in sorted(refused.items()):
                manager.load(HARNESS_CONFIGS[name])
                with pytest.raises(CommitError, match=module):
                    manager.commit()
        finally:
            manager.shutdown()

    def test_process_launcher_refuses_a_module_without_a_main(self):
        manager = make_manager("process")
        try:
            manager.load("protocols { static { route 10.9.0.0/16 "
                         "{ next-hop: 10.0.0.2 } } }")
            with pytest.raises(CommitError, match="static_routes"):
                manager.commit()
        finally:
            manager.shutdown()


class TestRestartIsFilteredTranslation:
    def test_bgp_then_rib_are_told_their_share_and_nothing_else(self, manager):
        manager.load(CONFIG)
        manager.commit()
        manager.supervisor.start()
        assert manager.loop.run_until(
            lambda: fib_lookup(manager, "203.0.113.7") is not None, timeout=60)
        sent = spy_sends(manager)
        for name, methods in (
                ("bgp", ["add_peer", "enable_peer", "originate_route4"]),
                ("rib", ["add_route4"])):
            del sent[:]
            victim = kill_module(manager, name)
            await_restart(manager, name, victim)
            assert sent == expected_replay(manager, name)
            assert [method for __, method, __args in sent] == methods
            assert manager.loop.run_until(
                lambda: fib_lookup(manager, "203.0.113.7")
                == ("203.0.113.0/24", "10.0.0.1"), timeout=60), \
                f"FIB did not reconverge after {name} died"

    def test_reborn_rib_gets_redistribution_enabled_again(self):
        manager = make_manager("inproc")
        manager.load("""
            interfaces { interface eth0 { address: 10.0.0.1 } }
            protocols {
                rip { interface eth0 { cost: 2 } redistribute static { } }
                static { route 172.16.0.0/12 { next-hop: 10.0.0.7 } }
            }
        """)
        manager.commit()
        manager.supervisor.start()
        rip = manager.modules["rip"]
        target = IPNet.parse("172.16.0.0/12")
        assert manager.loop.run_until(
            lambda: rip.routes.exact(target) is not None,
            timeout=30), "static route never redistributed into RIP"
        sent = spy_sends(manager)
        victim = kill_module(manager, "rib")
        await_restart(manager, "rib", victim)
        # (the RIP interface's address is configured, so no FEA query)
        assert sent == expected_replay(manager, "rib")
        assert [method for __, method, __args in sent] \
            == ["add_route4", "redist_enable4"]
        manager.host.shutdown()


class TestRebornConsumerGetsTheTable:
    """A consumer of the RIB's routes is reborn empty: the RIB sends it
    every route it should hold again (a route-stream dump)."""

    def test_reborn_fea_gets_the_fib_back(self, manager):
        manager.load(CONFIG)
        manager.commit()
        manager.supervisor.start()
        route = ("203.0.113.0/24", "10.0.0.1")
        assert manager.loop.run_until(
            lambda: fib_lookup(manager, "203.0.113.7") == route, timeout=60)
        victim = kill_module(manager, "fea")
        await_restart(manager, "fea", victim)
        assert manager.loop.run_until(
            lambda: fib_lookup(manager, "203.0.113.7") == route,
            timeout=60), "FIB did not reconverge after fea died"

    def test_reborn_rip_gets_the_redistributed_route_again(self):
        manager = make_manager("inproc")
        try:
            manager.load(RIP_REDIST_CONFIG)
            manager.commit()
            manager.supervisor.start()
            target = IPNet.parse("172.16.0.0/12")
            assert manager.loop.run_until(
                lambda: manager.modules["rip"].routes.exact(target)
                is not None, timeout=30), "never redistributed into RIP"
            victim = kill_module(manager, "rip")
            await_restart(manager, "rip", victim)
            reborn = manager.modules["rip"]
            assert manager.loop.run_until(
                lambda: reborn.routes.exact(target) is not None,
                timeout=30), "the reborn RIP never got the route again"
        finally:
            manager.shutdown()
            manager.host.shutdown()


class TestFailedCommit:
    def test_third_xrl_fails_nothing_is_remembered_retry_sends_it_all(self):
        manager = make_manager("inproc")
        sent = spy_sends(manager)
        send = manager._send

        def kill_rib_before_the_third(xrl):
            if len(sent) == 2:
                manager.modules["rib"].shutdown()
            return send(xrl)

        manager._send = kill_rib_before_the_third
        manager.load(CONFIG)
        with pytest.raises(CommitError, match="rib/add_route4"):
            manager.commit()
        assert [(t, m) for t, m, __ in sent] == FIRST_COMMIT[:3]
        assert manager.committed.render() == ""
        assert manager.config.render() == ""       # candidate rolled back
        assert manager.commit_count == 0

        manager._send = send
        manager.restart_module("rib")
        del sent[:]
        manager.load(CONFIG)
        manager.commit()
        # The whole difference, not the part that had not been sent yet:
        # create_interface is idempotent for the identical interface.
        assert [(t, m) for t, m, __ in sent] == FIRST_COMMIT
        assert manager.loop.run_until(
            lambda: manager.modules["fea"].fib4.lookup(IPv4("203.0.113.7"))
            is not None, timeout=30)
        manager.host.shutdown()


class TestInterfacesOverXrl:
    def test_create_interface_is_idempotent_and_refuses_a_conflict(self):
        manager = make_manager("inproc")
        manager.load("interfaces { interface eth0 { address: 10.0.0.1 } }")
        manager.commit()
        fea = manager.modules["fea"]
        assert str(fea.ifmgr.get("eth0").subnet) == "10.0.0.0/24"
        args = (XrlArgs().add_txt("ifname", "eth0")
                .add_ipv4("addr", "10.0.0.1").add_u32("prefix_len", 24))
        error, __ = manager.xrl.send_sync(
            Xrl("fea", "fea_ifmgr", "1.0", "create_interface", args))
        assert error.is_okay
        manager.set("interfaces interface eth0 address", "10.0.0.2")
        with pytest.raises(CommitError, match="exists as 10.0.0.1/24"):
            manager.commit()
        assert str(fea.ifmgr.get("eth0").addr) == "10.0.0.1"
