"""Real OS multi-process deployment tests (paper §6.1).

Children here are genuine ``python -m repro.<module>`` subprocesses: they
register their components by XRL with the parent's Finder target, and
serve XRLs over the negotiated TCP transport.  The
acceptance scenario runs two routers — BGP, RIB, and FEA each as a
separate OS process under a :class:`~repro.rtrmgr.spawn.SpawnManager`,
each router built from configuration text and ``commit()`` alone —
peers them over a real BGP TCP session, SIGKILLs a child mid-flow, and
asserts the supervisor's death-watch/restart machinery and the manager's
filtered re-translation of the committed tree bring the forwarding state
back.

These tests fork real processes and use generous wall-clock timeouts;
each cleans up its children in teardown even on failure.
"""

import os
import signal
import socket
import time

import pytest

from repro.core.process import Host
from repro.eventloop import EventLoop, SystemClock
from repro.interfaces import COMMON_IDL, FEA_FIB_IDL, RIB_IDL
from repro.rtrmgr.spawn import SpawnManager
from repro.rtrmgr.supervisor import UP, SupervisorPolicy
from repro.xrl import XrlArgs
from repro.xrl.finder import Finder
from repro.xrl.transport.tcp import TcpFamily
from repro.xrl.xrl import Xrl


def snappy_policy() -> SupervisorPolicy:
    """Restart fast and never give up inside a test's lifetime."""
    return SupervisorPolicy(ping_period=1.0, ping_timeout=2.0,
                            backoff_initial=0.05, backoff_max=0.5,
                            storm_window=60.0, storm_budget=50,
                            stable_after=1.0)


def free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def call(manager: SpawnManager, target: str, interface, method: str,
         values=None, *, deadline: float = 10.0) -> XrlArgs:
    """Synchronous IDL-typed XRL through a manager's rtrmgr router."""
    args = interface.method(method).build_args(values or {})
    error, reply = manager.xrl.send_sync(
        Xrl(target, interface.name, interface.version, method, args),
        deadline=deadline)
    assert error.is_okay, f"{target} {method}: {error}"
    return reply


def xrl_connections(client_pid: int, finder, target: str) -> int:
    """Established TCP connections from OS process *client_pid* to
    *target*'s XRL listener, read from /proc the way ``ss -tnp`` does."""
    __, candidates, __cls = finder.resolve(
        "test", target, "common/0.1/get_status")
    port = int(dict(candidates)["stcp"].rpartition(":")[2])
    inodes = set()
    for fd in os.listdir(f"/proc/{client_pid}/fd"):
        try:
            link = os.readlink(f"/proc/{client_pid}/fd/{fd}")
        except OSError:
            continue  # closed since listdir
        if link.startswith("socket:["):
            inodes.add(link[len("socket:["):-1])
    count = 0
    with open("/proc/net/tcp") as table:
        next(table)  # header
        for line in table:
            fields = line.split()
            established = fields[3] == "01"
            remote_port = int(fields[2].rpartition(":")[2], 16)
            if established and remote_port == port and fields[9] in inodes:
                count += 1
    return count


class TestSingleModule:
    """One supervised RIB child: register, call, SIGKILL, reconverge."""

    @pytest.fixture
    def manager(self):
        manager = SpawnManager(policy=snappy_policy())
        yield manager
        manager.shutdown()

    def test_spawn_registers_and_serves_xrls(self, manager):
        shell = manager.spawn_module("rib")
        assert shell.alive
        assert manager.host.finder.known_target("rib")
        manager.loop.run(duration=0.3)
        reply = call(manager, "rib", COMMON_IDL, "get_status")
        assert reply.get_txt("status") == "running"

    def test_sigkill_triggers_restart_and_replay(self, manager):
        manager.load("""
            interfaces { interface eth0 { address: 192.0.2.1 } }
        """)
        manager.commit()        # needs, so starts, an FEA and a RIB
        manager.supervisor.start()
        manager.loop.run(duration=0.3)
        restarted = []
        manager.supervisor.on_restarted = (
            lambda name, shell: restarted.append(name))

        first_pid = manager.modules["rib"].pid
        os.kill(first_pid, signal.SIGKILL)

        def reborn():
            shell = manager.modules.get("rib")
            return (shell is not None and shell.alive
                    and shell.pid != first_pid
                    and manager.supervisor.status("rib") == UP)

        assert manager.loop.run_until(reborn, timeout=30)
        assert restarted == ["rib"]

        # The committed configuration, re-translated for the RIB alone, is
        # visible in the reborn child: the interface's connected route.
        reply = call(manager, "rib", RIB_IDL, "lookup_route_by_dest4",
                     {"addr": "192.0.2.7"})
        assert reply.get_bool("resolves")
        assert str(reply.get_ipv4net("net")) == "192.0.2.0/24"
        assert reply.get_txt("protocol") == "connected"


class TestShutdown:
    def test_shutdown_serves_the_childs_finder_deregistration(self):
        """A SIGTERMed child deregisters from the Finder on its way out;
        shutdown() must serve that instead of waiting 5 s to SIGKILL."""
        manager = SpawnManager(policy=snappy_policy())
        try:
            shell = manager.spawn_module("fea")
            manager.loop.run(duration=0.3)
            started = time.monotonic()
            manager.shutdown()
            elapsed = time.monotonic() - started
        finally:
            manager.shutdown()
        assert elapsed < 2.0, f"shutdown took {elapsed:.1f}s"
        assert shell.popen.returncode is not None
        assert shell.popen.returncode != -signal.SIGKILL


class TestFinderLoss:
    def test_child_exits_when_its_finder_goes_away(self):
        """SIGKILL of the rtrmgr looks like this to a child: the Finder
        connection drops.  The child must shut down, not run orphaned."""
        manager = SpawnManager(policy=snappy_policy())
        try:
            shell = manager.spawn_module("rib")
            manager.loop.run(duration=0.3)
            assert shell.alive
            # Closing the Finder router's listener closes its sessions.
            manager.launcher.finder_target.router.shutdown()
            assert shell.popen.wait(timeout=5) is not None
        finally:
            manager.shutdown()


class _Router:
    """One simulated chassis: fea + rib + bgp children under one manager,
    brought up from configuration text.  The only thing not in it is the
    launcher's deployment wiring: which TCP port BGP listens on or dials."""

    def __init__(self, loop, *, addr, local_as, peer, peer_as, bgp_args,
                 network=None):
        host = Host(loop, Finder(), extra_families=[TcpFamily()])
        self.manager = SpawnManager(host, policy=snappy_policy())
        self.manager.launcher.args["bgp"] = bgp_args
        originate = (f"network {network} {{ next-hop: {addr} }}"
                     if network is not None else "")
        self.manager.load(f"""
            interfaces {{
                interface eth0 {{ address: {addr} prefix-length: 24 }}
            }}
            protocols {{
                bgp {{
                    local-as: {local_as}
                    bgp-id: {addr}
                    peer {peer} {{
                        as: {peer_as}
                        local-ip: {addr}
                        enabled: true
                    }}
                    {originate}
                }}
            }}
        """)
        self.manager.commit()
        self.manager.supervisor.start()

    def fib_resolves(self, addr) -> bool:
        args = FEA_FIB_IDL.method("lookup_entry4").build_args({"addr": addr})
        error, reply = self.manager.xrl.send_sync(
            Xrl("fea", "fea_fib", "1.0", "lookup_entry4", args), deadline=5)
        return error.is_okay and reply.get_bool("resolves")

    def shutdown(self):
        self.manager.shutdown()


class TestTwoRouterDeployment:
    """BGP/RIB/FEA as six OS processes across two routers."""

    def test_peering_routes_and_sigkill_reconvergence(self):
        loop = EventLoop(SystemClock())
        r1_port = free_port()
        r1 = r2 = None
        try:
            r1 = _Router(loop, addr="10.0.0.1", local_as=65001,
                         peer="10.0.0.2", peer_as=65002,
                         network="203.0.113.0/24",
                         bgp_args=["--bgp-listen", str(r1_port)])
            r2 = _Router(loop, addr="10.0.0.2", local_as=65002,
                         peer="10.0.0.1", peer_as=65001,
                         bgp_args=["--bgp-connect",
                                   f"10.0.0.1=127.0.0.1:{r1_port}"])

            # BGP peers over a real TCP session between the two bgp
            # processes; the route then flows bgp -> rib -> fea inside
            # r2, every hop crossing an OS process boundary.
            assert loop.run_until(
                lambda: r2.fib_resolves("203.0.113.7"), timeout=60), \
                "route never reached r2's FEA"

            # One ordered channel per directed process pair, however many
            # methods cross it (bgp -> rib alone uses six).
            for router in (r1, r2):
                pids = {name: shell.pid for name, shell
                        in router.manager.modules.items()}
                finder = router.manager.host.finder
                assert xrl_connections(pids["bgp"], finder, "rib") == 1
                assert xrl_connections(pids["rib"], finder, "fea") == 1

            # Chaos: SIGKILL r1's BGP. The supervisor must notice via the
            # Finder connection death, respawn it, re-translate the
            # committed peering and network for it, and r2 must reconverge.
            old_pid = r1.manager.modules["bgp"].pid
            os.kill(old_pid, signal.SIGKILL)

            def reborn():
                shell = r1.manager.modules.get("bgp")
                return (shell is not None and shell.alive
                        and shell.pid != old_pid
                        and r1.manager.supervisor.status("bgp") == UP)

            assert loop.run_until(reborn, timeout=30)

            # r2's dial timer reconnects to the reborn listener; the
            # replayed originate_route4 re-advertises; forwarding state
            # returns to r2's FEA.
            assert loop.run_until(
                lambda: r2.fib_resolves("203.0.113.7"), timeout=60), \
                "route did not reconverge after SIGKILL"
            assert r1.manager.supervisor.restarts == 1
        finally:
            for router in (r1, r2):
                if router is not None:
                    router.shutdown()
