"""Tests for the Finder's own XRL interface and RIP authentication."""

from repro.core.process import Host, XorpProcess
from repro.net import IPNet, IPv4
from repro.xrl import Xrl, XrlArgs
from repro.xrl.error import XrlErrorCode
from repro.xrl.finder_target import bind_finder_target


class TestFinderTarget:
    def _setup(self):
        host = Host()
        bind_finder_target(host)
        process = XorpProcess(host, "mgmt")
        client = process.create_router("mgmt")
        rib_process = XorpProcess(host, "fake-rib")
        rib_router = rib_process.create_router("rib")
        rib_router.register_raw_method("rib/1.0/ping", lambda args: None)
        return host, client, rib_router

    def test_resolve_xrl_textual(self):
        """Paper §6.1: finder://... resolves to family://address/key-method."""
        host, client, rib_router = self._setup()
        args = XrlArgs().add_txt("xrl", "finder://rib/rib/1.0/ping")
        error, result = client.send_sync(
            Xrl("finder", "finder", "1.0", "resolve_xrl", args), deadline=10)
        assert error.is_okay, error
        resolved = result.get_txt("resolved")
        # Contains a concrete family, an address, and the 32-hex-char key.
        first = resolved.splitlines()[0]
        family, rest = first.split("://", 1)
        assert family in ("local", "unix")
        address, key_and_path = rest.split("/", 1)
        key = key_and_path.split("/")[0]
        assert len(key) == 32 and all(c in "0123456789abcdef" for c in key)
        assert key_and_path.endswith("rib/1.0/ping")

    def test_resolve_unknown_target_fails(self):
        host, client, __ = self._setup()
        args = XrlArgs().add_txt("xrl", "finder://ghost/x/1.0/y")
        error, __ = client.send_sync(
            Xrl("finder", "finder", "1.0", "resolve_xrl", args), deadline=10)
        assert error.code == XrlErrorCode.RESOLVE_FAILED

    def test_target_list(self):
        host, client, __ = self._setup()
        error, result = client.send_sync(
            Xrl("finder", "finder", "1.0", "get_target_list"), deadline=10)
        assert error.is_okay
        targets = result.get_txt("targets").split(",")
        assert "rib" in targets and "finder" in targets

    def test_class_instances(self):
        host, client, rib_router = self._setup()
        args = XrlArgs().add_txt("class_name", "rib")
        error, result = client.send_sync(
            Xrl("finder", "finder", "1.0", "get_class_instances", args),
            deadline=10)
        assert error.is_okay
        assert rib_router.instance_name in result.get_txt("instances")

    def test_target_exists(self):
        host, client, __ = self._setup()
        for target, expected in (("rib", True), ("nothing", False)):
            args = XrlArgs().add_txt("target", target)
            error, result = client.send_sync(
                Xrl("finder", "finder", "1.0", "target_exists", args),
                deadline=10)
            assert error.is_okay
            assert result.get_bool("exists") is expected


class TestRipAuthentication:
    def _pair(self):
        from tests.test_rip import build_rip_pair

        return build_rip_pair()

    def test_matching_passwords_converge(self):
        network, a, b, rip_a, rip_b = self._pair()
        rip_a.xrl_set_authentication("eth0", "s3cret")
        rip_b.xrl_set_authentication("eth0", "s3cret")
        rip_a.xrl_add_static_route(IPNet.parse("99.0.0.0/8"),
                                   IPv4("10.0.0.1"), 1)
        assert network.run_until(
            lambda: rip_b.routes.get(IPNet.parse("99.0.0.0/8")) is not None,
            timeout=30)

    def test_mismatched_password_rejected(self):
        network, a, b, rip_a, rip_b = self._pair()
        rip_a.xrl_set_authentication("eth0", "alpha")
        rip_b.xrl_set_authentication("eth0", "bravo")
        rip_a.xrl_add_static_route(IPNet.parse("99.0.0.0/8"),
                                   IPv4("10.0.0.1"), 1)
        network.run(duration=20)
        assert rip_b.routes.get(IPNet.parse("99.0.0.0/8")) is None
        assert rip_b.ports["eth0"].bad_packets > 0

    def test_unauthenticated_sender_rejected(self):
        network, a, b, rip_a, rip_b = self._pair()
        rip_b.xrl_set_authentication("eth0", "s3cret")  # receiver requires
        rip_a.xrl_add_static_route(IPNet.parse("99.0.0.0/8"),
                                   IPv4("10.0.0.1"), 1)
        network.run(duration=20)
        assert rip_b.routes.get(IPNet.parse("99.0.0.0/8")) is None
